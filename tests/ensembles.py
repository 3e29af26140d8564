"""Seeded random test-instance generators."""

from __future__ import annotations

import numpy as np

from pertkit.symdiag import MultisetState, SparseInteraction, TrilinearVertex, box_grid, build_interaction


def random_hermitian(n: int, scale: float, seed: int) -> np.ndarray:
    """``scale * (G + G*)/2`` for a standard complex Gaussian ``G``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_diagonal(n: int, scale: float, seed: int) -> np.ndarray:
    """Sorted distinct real diagonal with minimum gap ``scale/n``."""
    rng = np.random.default_rng(seed)
    gaps = (scale / n) * (1.0 + rng.uniform(size=n - 1)) if n > 1 else np.empty(0)
    vals = np.concatenate([[0.0], np.cumsum(gaps)])
    vals = vals - vals.mean() + scale * rng.uniform(-0.1, 0.1)
    return np.diag(vals).astype(complex)


def random_momentum_model(scale: float, seed: int) -> SparseInteraction:
    """Trilinear momentum-conserving model with randomized masses.

    One-dimensional box grid of radius 2; conventional two-particle seed
    states; ``scale`` rescales all masses.
    """
    rng = np.random.default_rng(seed)
    masses = {s: float(scale * rng.uniform(0.5, 2.0)) for s in ("a", "b", "c")}
    rule = TrilinearVertex(masses=masses, grid=box_grid(1, 2))
    seeds = [
        MultisetState.of(("a", (1,)), ("b", (-1,))),
        MultisetState.of(("a", (-1,)), ("b", (1,))),
    ]
    return build_interaction(rule, seeds, depth=2)


def random_ensemble(kind: str, n: int, scale: float, seed: int):
    """Dispatch by kind: ``hermitian``, ``diagonal``, or ``momentum-model``."""
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "hermitian":
        return random_hermitian(n, scale, seed)
    if kind == "diagonal":
        return random_diagonal(n, scale, seed)
    if kind == "momentum-model":
        return random_momentum_model(scale, seed)
    raise ValueError(f"unknown ensemble kind {kind!r}")

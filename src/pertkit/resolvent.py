"""Neumann (resolvent) series for ``(A+B)^{-1}`` with exact remainders,
and the Feynman-parameter simplex representation of regularized resolvent
entries for diagonal ``A``.

The expansion is ``(A+B)^{-1} = sum_m (-1)^m A^{-1} (B A^{-1})^m``,
convergent when the symmetrized ratio ``||A^{-1/2} B A^{-1/2}|| < 1``;
truncating at order ``k`` leaves the exact remainder
``(-1)^k (A^{-1} B)^k (A+B)^{-1}``, an identity valid at every order
whether or not the series converges.

The series are sums over index paths, and :func:`index_paths` walks them
all: the nonzero entries of a dense ``B`` here and in the scattering index
sum, the sparse diagram basis in ``symdiag``.  The dense callers refuse
``n**m > PATH_ENUMERATION_CAP`` up front; every walk stops past ``PATH_CAP``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ArgumentError, DefinitenessError, EnumerationLimitError

#: A priori bound ``n**m`` on the index paths of a dense ``B`` that the
#: simplex representation and the scattering index sum enumerate.
PATH_ENUMERATION_CAP = 10**7
#: Partial paths one walk of :func:`index_paths` may extend.
PATH_CAP = 10**6


def symmetrized_ratio(a, b) -> float:
    """Convergence ratio ``||A^{-1/2} B A^{-1/2}||`` for Hermitian PD ``A``."""
    a, b = matcore.as_pair(a, b)
    dec = matcore.eig_hermitian(matcore.require_hermitian(a, what="A"))
    if dec.eigenvalues[0] <= 0:
        raise DefinitenessError(
            f"A must be positive definite (min eigenvalue {dec.eigenvalues[0]:.3e})"
        )
    v = dec.eigenvectors
    inv_sqrt = (v / np.sqrt(dec.eigenvalues)) @ v.conj().T
    return matcore.op_norm(inv_sqrt @ b @ inv_sqrt)


def series_terms(a, b, k: int) -> matcore.Series:
    """First ``k`` terms of the resolvent series, by repeated multiplication.

    ``terms[m] = (-1)^m A^{-1} (B A^{-1})^m`` for ``m = 0..k-1``; a single
    inversion of ``A`` is performed.  ``ratio`` is the symmetrized ratio, NaN
    when ``A`` is not Hermitian positive definite (it is then undefined).
    """
    matcore.check_order(k, "k")
    a, b = matcore.as_pair(a, b)
    a_inv = matcore.inverse(a)
    step = b @ a_inv
    terms = np.empty((k,) + a.shape, dtype=complex)
    t = a_inv
    for m in range(k):
        terms[m] = t
        t = -(t @ step)
    try:
        ratio = symmetrized_ratio(a, b)
    except (DefinitenessError, matcore.NotHermitianError):
        ratio = math.nan
    return matcore.Series(terms, ratio)


def exact_remainder(a, b, k: int) -> np.ndarray:
    """Exact order-``k`` remainder ``(-1)^k (A^{-1} B)^k (A+B)^{-1}``.

    ``partial_sum(k) + exact_remainder(k)`` equals ``(A+B)^{-1}`` as an
    identity, independent of convergence.
    """
    matcore.check_order(k, "k")
    a, b = matcore.as_pair(a, b)
    full_inv = matcore.inverse(a + b)
    if k == 0:
        return full_inv
    y = matcore.solve(a, b)
    return (-1) ** k * np.linalg.matrix_power(y, k) @ full_inv


@dataclass(frozen=True)
class SimplexQuadrature:
    """Quadrature policy on the standard simplex of Feynman parameters."""

    method: str = "monte-carlo"
    samples_or_depth: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("monte-carlo", "recursive-grid"):
            raise ArgumentError(f"unknown simplex method {self.method!r}")
        if self.method == "monte-carlo" and self.samples_or_depth < 1000:
            raise ArgumentError("monte-carlo needs at least 1000 samples")
        if self.method == "recursive-grid" and self.samples_or_depth < 2:
            raise ArgumentError("recursive-grid needs depth >= 2")


@dataclass(frozen=True)
class FeynmanEntry:
    """Value of the simplex representation with its sampling uncertainty."""

    value: complex
    std_error: float
    order_values: tuple


def index_paths(links, i, j, m: int):
    """Every index path ``i -> ... -> j`` of ``m`` links, as a tuple of indices.

    A path steps from ``r`` to each index of ``links(r)`` in the order listed,
    and takes its last step only if ``j`` is among them.  Raises
    :class:`EnumerationLimitError` once the walk has extended more than
    :data:`PATH_CAP` partial paths.
    """
    matcore.check_order(m, "m")
    if m == 0:
        if i == j:
            yield (i,)
        return
    extended = 0

    def extend(path):
        nonlocal extended
        extended += 1
        if extended > PATH_CAP:
            raise EnumerationLimitError(f"path enumeration exceeds cap {PATH_CAP}")
        if len(path) == m:
            if j in links(path[-1]):
                yield path + (j,)
            return
        for nxt in links(path[-1]):
            yield from extend(path + (nxt,))

    yield from extend((i,))


def _simplex_nodes(m: int, q: SimplexQuadrature, seed_offset: int = 0):
    """Points and probability weights over the standard simplex in m+1 vars.

    Returns ``(x, w)`` with ``x`` of shape (npts, m+1) and ``w`` summing to
    one, so Lebesgue integrals over the simplex are
    ``(1/m!) * sum_s w_s f(x_s)``.  Monte-carlo draws uniform
    Dirichlet(1,..,1) points; recursive-grid maps an iterated Gauss-Legendre
    rule of the unit cube onto the simplex by stick breaking.
    """
    if m == 0:
        return np.ones((1, 1)), np.ones(1)
    if q.method == "monte-carlo":
        rng = np.random.default_rng(q.seed + seed_offset)
        e = rng.exponential(size=(q.samples_or_depth, m + 1))
        x = e / e.sum(axis=1, keepdims=True)
        w = np.full(q.samples_or_depth, 1.0 / q.samples_or_depth)
        return x, w
    nodes, weights = np.polynomial.legendre.leggauss(q.samples_or_depth)
    u = (nodes + 1.0) / 2.0
    wu = weights / 2.0
    xs = []
    ws = []
    for combo in itertools.product(range(q.samples_or_depth), repeat=m):
        remaining = 1.0
        weight = 1.0
        x = np.empty(m + 1)
        for axis, idx in enumerate(combo):
            x[axis] = remaining * u[idx]
            # Jacobian of the stick-breaking map is the remaining length
            weight *= wu[idx] * remaining
            remaining -= x[axis]
        x[m] = remaining
        xs.append(x)
        ws.append(weight)
    x = np.array(xs)
    w = np.array(ws)
    return x, w / w.sum()


def feynman_parameter_entry(
    a_diag, b, i: int, j: int, tau: float, m_max: int, q: SimplexQuadrature
) -> FeynmanEntry:
    """Entry ``(A + B + i*tau)^{-1}_{ij}`` as a sum of simplex integrals.

    For diagonal real ``A`` the order-``m`` contribution is
    ``(-1)^m m! * integral over the simplex of
    sum over index paths of prod B / (x . lambda_path + i*tau)^{m+1}``,
    the Feynman parameters being the simplex coordinates.  Index paths are
    enumerated exhaustively; Monte-Carlo sampling reports a standard error.
    """
    matcore.check_positive(tau, "tau")
    matcore.check_order(m_max, "m_max")
    a, b = matcore.as_pair(a_diag, b)
    lam = matcore.diagonal_of(a)
    n = b.shape[0]
    matcore.check_index(i, n)
    matcore.check_index(j, n)
    if n**m_max > PATH_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"index enumeration {n}^{m_max} exceeds cap {PATH_ENUMERATION_CAP}"
        )

    nz = [np.flatnonzero(row).tolist() for row in b]
    order_values = []
    variance = 0.0
    total = 0.0 + 0.0j
    for m in range(m_max + 1):
        paths = list(index_paths(nz.__getitem__, i, j, m))
        if not paths:
            order_values.append(0.0 + 0.0j)
            continue
        lam_rows = np.array([[lam[k] for k in p] for p in paths])  # (P, m+1)
        wts = np.array([math.prod((b[r, c] for r, c in zip(p, p[1:])), start=1.0 + 0.0j) for p in paths])  # (P,)
        x, w = _simplex_nodes(m, q, seed_offset=m)
        # denominators: (S, P) = x @ lam_rows.T + i tau
        denom = (x @ lam_rows.T) + 1j * tau
        integrand = (wts[None, :] / denom ** (m + 1)).sum(axis=1)  # per sample
        # Lebesgue integral over the simplex = mean/ m! for probability weights;
        # the m! prefactor of the representation cancels it exactly.
        mean = complex(np.sum(w * integrand))
        term = (-1) ** m * mean
        order_values.append(term)
        total += term
        if q.method == "monte-carlo" and m >= 1:
            s = q.samples_or_depth
            dev = integrand - mean
            variance += float(np.sum(w * np.abs(dev) ** 2)) / max(s - 1, 1)
    return FeynmanEntry(
        value=total, std_error=math.sqrt(variance), order_values=tuple(order_values)
    )

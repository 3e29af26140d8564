"""Dense complex linear-algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
This module provides the validated core every other module builds on:
spectral norm, guarded inverse, Hermitian eigendecomposition, matrix
exponential, circular contour quadrature of analytic maps, the one set of
Simpson weights and the one truncated-series type, :class:`Series`.

Guard policy: every Hermiticity, diagonality, level-index, operand-shape,
rate and singularity decision is made here: an ``(A, B)`` pair passes
:func:`as_pair` and a rate :func:`check_positive`.  :func:`is_hermitian`,
:func:`is_diagonal` and :func:`inverse` first try to decide from O(n^2)
Frobenius norms, via ``||X||_F / sqrt(n) <= ||X||_2 <= ||X||_F``, and
accept or reject only with a factor-2 margin and finite norms.  Otherwise the exact SVD test
runs, so every verdict is the SVD verdict.  :func:`is_hermitian` also
takes a ``(k, n, n)`` stack and decides every slice at once from plain sums
of squares, with the same margins; a slice whose sum may have underflowed
or overflowed falls back to the single-matrix test.  :func:`solve` keeps
its SVD test, and reported norms are always :func:`op_norm`.

Factor once: a Hermitian matrix is decomposed once by :func:`eig_hermitian`
and its :class:`SpectralDecomposition`, which carries the matrix and stands in
for it, is passed on.  Every shifted inverse ``(A - z)^{-1}`` is then a diagonal
scaling that needs no singularity guard while ``z`` keeps off the spectrum.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2

from .errors import (
    ArgumentError,
    MatrixFormatError,
    NotHermitianError,
    ShapeError,
    SingularMatrixError,
)

#: Relative smallest-singular-value threshold below which a matrix is
#: treated as singular.  All supported problems have well-separated spectra.
SINGULARITY_RTOL = 1e-13

HERMITICITY_RTOL = 1e-10


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Validate and convert ``m`` to a 2-D complex128 array.

    Rejects NaN/Inf entries and, when ``square`` is set, non-square shapes.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise MatrixFormatError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise MatrixFormatError("matrix contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both operands as by ``as_matrix(square=True)``; :class:`ShapeError`
    unless they have one shape."""
    a, b = as_matrix(a, square=True), as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ShapeError(f"A and B must have the same shape, got {a.shape} and {b.shape}")
    return a, b


def check_positive(x: float, name: str) -> None:
    """Raise :class:`ArgumentError` unless ``0 < x < inf``: a rate is never
    zero, negative, infinite or NaN."""
    if not 0 < x < math.inf:
        raise ArgumentError(f"{name} must be positive")


def check_order(k: int, name: str) -> None:
    """Raise :class:`ArgumentError` unless ``k >= 0``: a series has no
    negative order or term count."""
    if not k >= 0:
        raise ArgumentError(f"{name} must be nonnegative")


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size < 1 or not np.isfinite(a).all():
        raise MatrixFormatError("expected a finite, non-empty vector")
    return a


def op_norm(m) -> float:
    """Spectral norm (largest singular value) of a square matrix."""
    a = as_matrix(m, square=True)
    return float(np.linalg.norm(a, 2))


def herm_defect(m) -> float:
    """Spectral norm of the anti-Hermitian part, ``||M - M*||``."""
    a = as_matrix(m, square=True)
    return float(np.linalg.norm(a - a.conj().T, 2))


def _fro(x: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which scales and so cannot underflow."""
    return float(dznrm2(x.ravel()))


def _decide(a: np.ndarray, rtol: float, defect_lo: float, defect_hi: float, exact) -> bool:
    """``defect <= rtol * max(||A||_2, 1e-300)`` for a defect known to lie in
    ``[defect_lo, defect_hi]``; calls ``exact()`` when the bounds leave it open."""
    a_fro = _fro(a)
    lo, hi = max(a_fro / math.sqrt(a.shape[0]), 1e-300), max(a_fro, 1e-300)
    if math.isfinite(defect_hi + hi):
        if 2.0 * defect_hi <= rtol * lo:
            return True
        if defect_lo > 2.0 * rtol * hi:
            return False
    return exact()


def is_hermitian(m):
    """Whether ``||A - A*||_2 <= HERMITICITY_RTOL * max(||A||_2, 1e-300)``; for
    a ``(k, n, n)`` stack, the verdict of every slice as a boolean array."""
    rtol = HERMITICITY_RTOL
    if np.ndim(m) == 3:
        a = np.asarray(m, dtype=complex)
        if a.shape[1] != a.shape[2]:
            raise ShapeError(f"expected a stack of square matrices, got shape {a.shape}")
        as_matrix(a.reshape(a.shape[0] * a.shape[1], a.shape[2]))  # non-empty, finite
        defect = a - a.conj().swapaxes(1, 2)
        with np.errstate(over="ignore"):
            a_sq, d_sq = ((x.real**2 + x.imag**2).sum(axis=(1, 2)) for x in (a, defect))
        root_n, a_fro, d = math.sqrt(a.shape[1]), np.sqrt(a_sq), np.sqrt(d_sq)
        accept = 2.0 * d <= rtol * a_fro / root_n
        reject = d / root_n > 2.0 * rtol * a_fro
        # plain sums of squares are trusted when finite and, for A, above
        # 1e-280: then underflowed squares are far below the margins
        trusted = np.isfinite(a_sq + d_sq) & (a_sq >= 1e-280)
        for j in np.flatnonzero(~(trusted & (accept | reject))):
            accept[j] = is_hermitian(a[j])
        return accept
    a = as_matrix(m, square=True)
    d = _fro(a - a.conj().T)
    return _decide(a, rtol, d / math.sqrt(a.shape[0]), d,
                   lambda: herm_defect(a) <= rtol * max(op_norm(a), 1e-300))


def is_diagonal(m, rtol: float = 1e-14) -> bool:
    """Whether ``||offdiag(A)||_F <= rtol * max(||A||_2, 1e-300)``."""
    a = as_matrix(m, square=True)
    off = _fro(a - np.diag(np.diagonal(a)))
    return _decide(a, rtol, off, off, lambda: off <= rtol * max(op_norm(a), 1e-300))


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m, square=True)
    if not is_hermitian(a):
        raise NotHermitianError(f"{what} is not Hermitian to relative {HERMITICITY_RTOL:g}")
    return a


def diagonal_of(m) -> np.ndarray:
    """The real diagonal of a diagonal Hermitian matrix: :class:`NotHermitianError`
    unless :func:`is_hermitian`, :class:`MatrixFormatError` unless
    :func:`is_diagonal` at its relative 1e-14."""
    a = require_hermitian(m, what="A")
    if not is_diagonal(a):
        raise MatrixFormatError("A must be diagonal")
    return np.real(np.diagonal(a)).copy()


def check_index(i: int, n: int) -> None:
    """Raise :class:`ArgumentError` unless ``i`` is an integer with
    ``0 <= i < n``: a level index never wraps around and is never a float."""
    try:
        ok = 0 <= operator.index(i) < n
    except TypeError:
        ok = False
    if not ok:
        raise ArgumentError("eigenvalue index out of range")


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix, guarded against near-singularity.

    Raises :class:`SingularMatrixError` when the smallest singular value is
    below ``SINGULARITY_RTOL`` times the largest.  The solve runs first, and
    the SVD is skipped when ``1 / (||A||_F ||X||_F)``, which bounds
    ``sigma_min / sigma_max`` from below up to the LU backward error, is at
    least twice the threshold.
    """
    a = as_matrix(m, square=True)
    eye = np.eye(a.shape[0], dtype=complex)
    try:
        x = np.linalg.solve(a, eye)
    except np.linalg.LinAlgError:
        x = None
    if x is not None and 2.0 * SINGULARITY_RTOL * _fro(a) * _fro(x) <= 1.0:
        return x
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] < SINGULARITY_RTOL * max(s[0], 1e-300):
        raise SingularMatrixError(
            f"matrix singular to tolerance (sigma_min/sigma_max = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return np.linalg.solve(a, eye) if x is None else x


def solve(m, rhs) -> np.ndarray:
    """Guarded linear solve ``m @ x = rhs`` with the same singularity policy."""
    a = as_matrix(m, square=True)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] < SINGULARITY_RTOL * max(s[0], 1e-300):
        raise SingularMatrixError("linear system singular to tolerance")
    return np.linalg.solve(a, np.asarray(rhs, dtype=complex))


@dataclass
class Series:
    """The first terms of a series, stacked along axis 0, and its convergence
    ratio; ``convergent`` only when the ratio is known and below one."""

    terms: np.ndarray
    ratio: float

    @property
    def convergent(self) -> bool:
        return bool(np.isfinite(self.ratio) and self.ratio < 1.0)

    def partial_sum(self, k: int | None = None) -> np.ndarray:
        """Sum of the first ``k`` terms, of all of them by default."""
        return np.sum(self.terms[:k], axis=0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigenvalues (ascending from :func:`eig_hermitian`) and orthonormal
    eigenvector columns ``V`` of the validated Hermitian ``matrix``; its shifted
    inverses are the diagonal scalings ``V diag(1/(lambda - z)) V*``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray


def eig_hermitian(m) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input is validated to be Hermitian to relative 1e-10; the returned
    eigenvalues are real and ascending, the eigenvectors orthonormal.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v, matrix=a)


def simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights on ``n_intervals + 1`` equispaced nodes."""
    if n_intervals % 2:
        raise ArgumentError("Simpson rule needs an even number of intervals")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def expm(m) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring (Pade core)."""
    return scipy.linalg.expm(as_matrix(m, square=True))


@dataclass(frozen=True)
class ContourSpec:
    """A circle in the complex plane with equispaced quadrature nodes."""

    center: complex
    radius: float
    num_points: int = 256

    def __post_init__(self):
        check_positive(self.radius, "contour radius")
        if self.num_points < 16:
            raise ArgumentError("contour needs at least 16 quadrature points")


def contour_integrate(f, c: ContourSpec):
    """Evaluate ``(1/2*pi*i) * closed integral of f(z) dz`` over the circle.

    Uses the trapezoid rule on equispaced nodes, which converges
    exponentially for integrands analytic in an annulus around the circle.
    With ``f(z) = g(z) (z - M)^{-1}`` and counterclockwise orientation this
    is the Cauchy/Riesz calculus: a simple pole at ``p`` inside contributes
    its residue, so e.g. ``f(z) = 1/(z - p)`` integrates to 1.

    ``f`` may return scalars or arrays; the result matches.
    """
    n = c.num_points
    theta = 2.0 * np.pi * np.arange(n) / n
    phases = np.exp(1j * theta)
    total = None
    for ph in phases:
        val = f(c.center + c.radius * ph)
        contrib = np.asarray(val, dtype=complex) * ph
        total = contrib if total is None else total + contrib
    total = total * (c.radius / n)
    if total.ndim == 0:
        return complex(total)
    return total


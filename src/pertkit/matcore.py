"""Dense complex linear-algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
This module provides the validated core every other module builds on:
spectral norm, guarded inverse, Hermitian eigendecomposition, the one
matrix-exponential kernel, :func:`cascade` (a Taylor polynomial with scaling
and squaring, whose single block is :func:`expm`), circular contour
quadrature of analytic maps, the one time grid, :class:`TimeGrid`, with its
quadrature weights and damped exponentials, and the one truncated-series
type, :class:`Series`.  It needs numpy alone.

Guard policy: every Hermiticity, diagonality, level-index, operand-shape,
rate and singularity decision is made here: an ``(A, B)`` pair passes
:func:`as_pair` and a rate :func:`check_positive`.  :func:`is_hermitian`,
:func:`is_diagonal` and :func:`inverse` first try to decide from O(n^2)
Frobenius norms, via ``||X||_F / sqrt(n) <= ||X||_2 <= ||X||_F``, and
accept or reject only with a factor-2 margin and finite norms; a Frobenius
norm is one sum of squares, rescaled where it may have underflowed.
Otherwise the exact SVD test runs, so every verdict is the SVD verdict.
:func:`is_hermitian` also takes a ``(k, n, n)`` stack and decides every
slice at once from plain sums of squares, with the same margins; a slice
whose sum may have underflowed or overflowed falls back to the single-matrix
test.  :func:`solve` takes :func:`inverse`'s verdict, and reported norms are
always :func:`op_norm`.

Factor once: a Hermitian matrix is decomposed once by :func:`eig_hermitian`,
which is also the one Hermiticity decision on it and names it in a refusal,
and its :class:`SpectralDecomposition`, which carries the matrix and stands in
for it, is passed on.  Every shifted inverse ``(A - z)^{-1}`` is then a diagonal
scaling that needs no singularity guard while ``z`` keeps off the spectrum.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    EnumerationLimitError,
    MatrixFormatError,
    NotHermitianError,
    ShapeError,
    SingularMatrixError,
)

#: Relative smallest-singular-value threshold below which a matrix is
#: treated as singular.  All supported problems have well-separated spectra.
SINGULARITY_RTOL = 1e-13

HERMITICITY_RTOL = 1e-10

#: Entries of one time grid's node arrays: its nodes times the entries an
#: integrator holds per node, 1 GiB of complex128.
GRID_CAP = 2**26


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
    """Raise :class:`ArgumentError` unless ``k`` is an integer ``>= 0``: a
    series has no negative or fractional order, and a count no fraction."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {k!r}") from None
    if k < 0:
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
    """Frobenius norm from one sum of squares, trusted when finite and at
    least 1e-280 as in :func:`is_hermitian`'s stack; otherwise the sum is
    taken of ``x`` over its largest modulus, so it cannot underflow."""
    sq = np.vdot(x, x).real
    if math.isfinite(sq) and sq >= 1e-280:
        return math.sqrt(sq)
    with np.errstate(over="ignore"):
        big = float(np.abs(x).max())
    if not 0.0 < big < math.inf:
        return big
    y = x / big
    return big * math.sqrt(np.vdot(y, y).real)


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
    """Guarded linear solve ``m @ x = rhs``: :func:`inverse` is the singularity test."""
    a = as_matrix(m, square=True)
    inverse(a)
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


def eig_hermitian(m, what: str = "matrix") -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input is validated as by :func:`require_hermitian`, which names it
    ``what`` in a refusal; the returned eigenvalues are real and ascending,
    the eigenvectors orthonormal.
    """
    a = require_hermitian(m, what)
    w, v = np.linalg.eigh(0.5 * a + 0.5 * a.conj().T)  # by halves: no entry overflows
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v, matrix=a)


def simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights on ``n_intervals + 1`` equispaced nodes."""
    if n_intervals % 2:
        raise ArgumentError("Simpson rule needs an even number of intervals")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def trapezoid_weights(n_intervals: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on ``n_intervals + 1`` equispaced nodes."""
    w = np.full(n_intervals + 1, h)
    w[[0, -1]] *= 0.5
    return w


def node_weights(n_intervals: int, h: float) -> np.ndarray:
    """Weights on a given set of ``n_intervals + 1`` equispaced nodes: Simpson
    on an even count of intervals, the trapezoid rule on an odd one."""
    return trapezoid_weights(n_intervals, h) if n_intervals % 2 else simpson_weights(n_intervals, h)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: ``steps`` intervals, an integer count of at
    least 8, over the caller's interval."""

    steps: int

    def __post_init__(self):
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 8):
            raise ArgumentError(f"need an integer count of at least 8 steps, got {self.steps!r}")

    @classmethod
    def of(cls, count: float, at_least: int = 8) -> TimeGrid:
        """The grid of ``max(at_least, int(count))`` steps for a float ``count``,
        such as a rate times a length.  A count whose nodes alone exceed
        :data:`GRID_CAP`, infinity and NaN included, raises
        :class:`EnumerationLimitError` before ``int()`` can overflow on it."""
        if not count < GRID_CAP:
            nodes = math.floor(count) + 1 if math.isfinite(count) else count
            raise EnumerationLimitError(f"time grid of {nodes} nodes x 1 entries exceeds cap {GRID_CAP}")
        return cls(max(at_least, int(count)))

    def check_size(self, per_node: int) -> None:
        """Raise :class:`EnumerationLimitError` unless ``steps + 1`` nodes of
        ``per_node`` entries each fit :data:`GRID_CAP`; call it before allocating them."""
        if (self.steps + 1) * per_node > GRID_CAP:
            raise EnumerationLimitError(f"time grid of {self.steps + 1} nodes x {per_node} entries exceeds cap {GRID_CAP}")

    def simpson(self, t_end: float, per_node: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and composite Simpson weights on ``[0, t_end]``, an odd step
        count rounded up to even; that grid's size is checked first."""
        even = TimeGrid(self.steps + self.steps % 2)
        even.check_size(per_node)
        h = t_end / even.steps
        return h * np.arange(even.steps + 1), simpson_weights(even.steps, h)

    def damped(self, t_end: float, freqs: np.ndarray, rate: float) -> np.ndarray:
        """``w_k e^{(i f - rate) t_k}`` on the :meth:`simpson` grid, one ``(nodes, len(freqs))``
        array formed in place, which sums to ``integral_0^{t_end} e^{(i f - rate) t} dt``."""
        ts, weights = self.simpson(t_end, len(freqs))
        out = (1j * freqs[None, :] - rate) * ts[:, None]
        np.exp(out, out=out)
        out *= weights[:, None]
        return out


def cascade(a, b, t: float, m_max: int) -> np.ndarray:
    """First block column ``[Y_0, ..., Y_{m_max}]`` of ``e^{tL}``, ``L`` block
    lower-bidiagonal with ``A`` on the diagonal and ``B`` below it (Van Loan,
    1978): ``Y_m' = A Y_m + B Y_{m-1}``, ``Y(0) = [I, 0, ..., 0]``.  Powers of
    ``L`` are block lower-triangular Toeplitz, so a column determines its
    matrix and a squaring is the block convolution ``sum_k E_{m-k} E_k``.
    A result that overflows raises :class:`ArgumentError`."""
    if not 0 <= t < math.inf:
        raise ArgumentError("t must be finite and nonnegative")
    check_order(m_max, "m_max")
    a, b = as_pair(a, b)
    # ||hL||_2 <= ||hA||_2 + ||hB||_2 <= h (||A||_F + ||B||_F) <= 1/2
    theta = t * (_fro(a) + _fro(b))
    s = max(0, math.frexp(2.0 * theta)[1])
    h = t / 2.0**s
    one = np.zeros((m_max + 1,) + a.shape, dtype=complex)
    one[0] = np.eye(a.shape[0])
    # Taylor polynomial by Horner.  Block m carries m factors of hB, so degree
    # 16 + m_max leaves each block a remainder within theta^17 e^theta / 17!
    # (below 3.6e-20 at theta = 1/2, under 2^-53) of (h ||B||_2)^m / m!
    e = one
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(16 + m_max, 0, -1):
            le = a @ e
            le[1:] += b @ e[:-1]
            e = one + (h / k) * le
        for _ in range(s):
            e = np.stack([np.matmul(e[m::-1], e[: m + 1]).sum(axis=0) for m in range(m_max + 1)])
    if not np.isfinite(e).all():
        raise ArgumentError(f"exponential overflows: t (||A||_F + ||B||_F) = {theta:.3g}")
    return e


def expm(m) -> np.ndarray:
    """Matrix exponential ``e^M``: the single block of :func:`cascade` with
    ``B = 0`` and ``t = 1``, a Taylor polynomial on ``M / 2^s`` and ``s``
    squarings."""
    a = as_matrix(m, square=True)
    return cascade(a, np.zeros_like(a), 1.0, 0)[0]


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
        check_order(self.num_points, "contour num_points")


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


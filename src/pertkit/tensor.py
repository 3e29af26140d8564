"""Product-space operators: Kronecker sums, exponential factorization,
frequency-convolution resolvent identities, and the Dirac / Klein-Gordon
closed-form block inverses.

For ``A = A1 (x) I + I (x) A2`` (Hermitian factors) the shifted inverse has
the line-convolution representation

    ``(A - w + 2ie)^{-1} = -(1/(2*pi*i)) * integral over w1 of
      (A1 - w1 + ie)^{-1} (x) (A2 - (w - w1) + ie)^{-1} dw1``

and the even-kernel variant composes ``(M + ie)/((M + ie)^2 - w^2)``
factors with prefactor ``i/pi``.  Both are evaluated by composite trapezoid
on ``[-cutoff, cutoff]``; the integrand of the first decays like
``1/w1^2``, so the truncated rule carries a universal ``-i/(pi*cutoff)``
leading tail that is returned alongside the raw value.  In the factor
eigenbases every shifted inverse is diagonal, so the line integral is one
``(n1, n2)`` matrix of scalar sums: one gemm per ``LINE_CHUNK`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import matcore
from .errors import ArgumentError, ShapeError, SingularMatrixError

MAX_MATERIALIZED_DIM = 4096

#: Frequency-line nodes per gemm; bounds the temporaries whatever the node count.
LINE_CHUNK = 4096


@dataclass(frozen=True)
class KroneckerSum:
    """Non-interacting multi-factor operator ``sum_k I (x).. A_k ..(x) I``."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ArgumentError("need at least one factor")
        for f in self.factors:
            matcore.as_matrix(f, square=True)

    @property
    def total_dim(self) -> int:
        n = 1
        for f in self.factors:
            n *= np.asarray(f).shape[0]
        return n


@dataclass(frozen=True)
class LineQuadrature:
    """Symmetric-interval trapezoid policy for the frequency line."""

    cutoff: float
    nodes: int

    def __post_init__(self):
        if self.cutoff < 10:
            raise ArgumentError("cutoff must be at least 10")
        if self.nodes < 200:
            raise ArgumentError("need at least 200 nodes")


def kron_sum_materialize(k: KroneckerSum) -> np.ndarray:
    """Dense matrix of the Kronecker sum; spectrum is all factor-eigenvalue sums."""
    if k.total_dim > MAX_MATERIALIZED_DIM:
        raise ShapeError(f"total dimension {k.total_dim} exceeds {MAX_MATERIALIZED_DIM}")
    mats = [matcore.as_matrix(f, square=True) for f in k.factors]
    dims = [m.shape[0] for m in mats]
    total = np.zeros((k.total_dim, k.total_dim), dtype=complex)
    for idx, m in enumerate(mats):
        left = int(np.prod(dims[:idx])) if idx else 1
        right = int(np.prod(dims[idx + 1 :])) if idx + 1 < len(dims) else 1
        term = np.kron(np.kron(np.eye(left), m), np.eye(right))
        total += term
    return total


def exp_factorization_check(k: KroneckerSum, t: float) -> float:
    """Defect ``||e^{it A} - (x)_k e^{it A_k}||`` of the exponential splitting."""
    total = kron_sum_materialize(k)
    lhs = matcore.expm(1j * t * total)
    rhs = reduce(np.kron, [matcore.expm(1j * t * np.asarray(f, dtype=complex)) for f in k.factors])
    return matcore.op_norm(lhs - rhs)


@dataclass
class ConvolutionValue:
    """Raw trapezoid value plus the analytic leading-order tail correction.

    ``value`` (raw + correction) is the best estimate; the raw value's
    defect against the exact shifted inverse decays like ``1/cutoff`` and
    halves when the cutoff doubles.
    """

    raw: np.ndarray
    tail_correction: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.raw + self.tail_correction


def _two_factor_eigs(k: KroneckerSum):
    if len(k.factors) != 2:
        raise ShapeError("convolution identities are implemented for two factors")
    d1 = matcore.eig_hermitian(k.factors[0])
    d2 = matcore.eig_hermitian(k.factors[1])
    v = np.kron(d1.eigenvectors, d2.eigenvectors)
    return d1.eigenvalues, d2.eigenvalues, v


def _line_sum(q: LineQuadrature, g1, g2) -> np.ndarray:
    """Trapezoid sum of ``g1(w)[:, None] * g2(w)[None, :]`` over the line,
    for ``g1``, ``g2`` mapping a chunk of nodes to ``(chunk, n1)``, ``(chunk, n2)``."""
    w1 = np.linspace(-q.cutoff, q.cutoff, q.nodes)
    weights = np.full(q.nodes, w1[1] - w1[0])
    weights[[0, -1]] *= 0.5
    total = 0.0
    for s in range(0, q.nodes, LINE_CHUNK):
        w = w1[s : s + LINE_CHUNK]
        total = total + (weights[s : s + LINE_CHUNK, None] * g1(w)).T @ g2(w)
    return total


def convolution_resolvent(k: KroneckerSum, omega: float, eps: float, q: LineQuadrature) -> ConvolutionValue:
    """Line-convolution representation of ``(A - omega + 2i eps)^{-1}``.

    Composite trapezoid on ``[-cutoff, cutoff]``; the returned tail
    correction is ``-i/(pi*cutoff)`` times the identity (the exact integral
    of the leading ``-1/w1^2`` asymptote over the discarded tails).
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    lam1, lam2, v = _two_factor_eigs(k)
    diag = _line_sum(q, lambda w: 1.0 / (lam1 - w[:, None] + 1j * eps),
                     lambda w: 1.0 / (lam2 - (omega - w)[:, None] + 1j * eps)).ravel()
    diag = -diag / (2j * np.pi)
    raw = (v * diag) @ v.conj().T
    n = v.shape[0]
    tail = (-1j / (np.pi * q.cutoff)) * np.eye(n, dtype=complex)
    return ConvolutionValue(raw=raw, tail_correction=tail)


def convolution_resolvent_symmetric(k: KroneckerSum, omega: float, eps: float, q: LineQuadrature) -> ConvolutionValue:
    """Even-kernel convolution composing ``(M + ie)/((M + ie)^2 - w^2)``.

    The integrand decays like ``1/w1^4``; the tail correction uses the
    exact integral of the leading asymptote.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    lam1, lam2, v = _two_factor_eigs(k)
    z1 = lam1 + 1j * eps
    z2 = lam2 + 1j * eps
    diag = _line_sum(q, lambda w: z1 / (z1**2 - w[:, None] ** 2),
                     lambda w: z2 / (z2**2 - (omega - w)[:, None] ** 2))
    diag = (1j / np.pi) * diag
    tail_diag = (1j / np.pi) * np.multiply.outer(z1, z2) * (2.0 / (3.0 * q.cutoff**3))
    raw = (v * diag.ravel()) @ v.conj().T
    tail = (v * tail_diag.ravel()) @ v.conj().T
    return ConvolutionValue(raw=raw, tail_correction=tail)


# ---------------------------------------------------------------------------
# relativistic block inverses

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dirac_block_matrix(p, m: float, z: complex) -> np.ndarray:
    """Momentum-space Dirac block ``[[ (m-z) I, s.p], [s.p, (-m-z) I]]``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ShapeError("momentum must be a 3-vector")
    sp = sum(pk * sk for pk, sk in zip(p, PAULI))
    eye2 = np.eye(2, dtype=complex)
    top = np.hstack([(m - z) * eye2, sp])
    bot = np.hstack([sp, (-m - z) * eye2])
    return np.vstack([top, bot])


def dirac_block_inverse(p, m: float, z: complex) -> np.ndarray:
    """Closed-form inverse of the Dirac block.

    ``(1/(m^2 - z^2 + p^2)) [[ (m+z) I, s.p], [s.p, (-m+z) I]]``, which is
    the block at ``-z`` scaled; the product with the forward block is the
    identity to rounding.
    """
    numerator = dirac_block_matrix(p, m, -z)
    p = np.asarray(p, dtype=float)
    denom = m**2 - complex(z) ** 2 + float(np.dot(p, p))
    if abs(denom) < 1e-14 * max(1.0, m**2 + abs(z) ** 2 + float(np.dot(p, p))):
        raise SingularMatrixError("Dirac block evaluated at its pole")
    return numerator / denom


def klein_gordon_block_matrix(a: float, z: complex) -> np.ndarray:
    return np.array([[-z, a], [a, -z]], dtype=complex)


def klein_gordon_block_inverse(a: float, z: complex) -> np.ndarray:
    """Closed-form inverse ``(1/(z^2-a^2)) [[-z, -a], [-a, -z]]`` of the
    2x2 Klein-Gordon frequency block."""
    denom = complex(z) ** 2 - a**2
    if abs(denom) < 1e-14 * max(1.0, abs(z) ** 2 + a**2):
        raise SingularMatrixError("Klein-Gordon block evaluated at its pole")
    return np.array([[-z, -a], [-a, -z]], dtype=complex) / denom


def klein_gordon_first_order_form(a: float) -> np.ndarray:
    """First-order form ``[[0, ia], [-ia, 0]]``; squares to ``a^2 I``."""
    return np.array([[0.0, 1j * a], [-1j * a, 0.0]], dtype=complex)

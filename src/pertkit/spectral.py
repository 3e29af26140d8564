"""Perturbation of eigenvalues, spectral projectors, and eigenvectors.

Two complementary routes are implemented for an isolated eigenvalue of a
Hermitian ``A`` perturbed by ``B``:

* contour-integral coefficients: the order-``k`` eigenvalue correction is
  ``(1/(2*pi*i*k)) * closed integral of Tr([(z-A)^{-1} B]^k) dz`` over a
  small circle around the unperturbed eigenvalue, and the projector
  corrections integrate ``[(z-A)^{-1} B]^k (z-A)^{-1}``;

* the Schur-complement split around a distinguished eigenvector ``v``:
  in the unitary basis ``[v | v-perp]`` the perturbed matrix becomes
  ``[[lambda + <v,Bv>, b*], [b, A_perp + B_perp]]`` and the perturbed
  eigenpair is recovered from the scalar fixed point
  ``lhat = lambda + <v,Bv> - <b, (A_perp + B_perp - lhat)^{-1} b>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ArgumentError, ContourEnclosureError, ConvergenceError, MatrixFormatError, ShapeError
from .matcore import ContourSpec, SpectralDecomposition


# ---------------------------------------------------------------------------
# contour-integral coefficients


@dataclass
class EigenPerturbationSeries:
    """Real coefficients of the perturbed-eigenvalue power series."""

    coefficients: np.ndarray
    contour: ContourSpec
    target_index: int

    def evaluate(self, eps: float, order: int | None = None) -> float:
        c = self.coefficients if order is None else self.coefficients[: order + 1]
        return float(np.polynomial.polynomial.polyval(eps, c))


@dataclass
class ProjectionSeries:
    """Matrix coefficients of the perturbed spectral-projector series."""

    coefficients: list

    def evaluate(self, eps: float) -> np.ndarray:
        total = np.zeros_like(self.coefficients[0])
        for k, c in enumerate(self.coefficients):
            total = total + (eps**k) * c
        return total


def default_contour(eigenvalues, i: int, num_points: int = 256) -> ContourSpec:
    """Circle around eigenvalue ``i`` with radius half the spectral gap."""
    w = np.asarray(eigenvalues, dtype=float)
    others = np.delete(w, i)
    if others.size == 0:
        return ContourSpec(center=complex(w[i]), radius=1.0, num_points=num_points)
    gap = float(np.min(np.abs(others - w[i])))
    if gap <= 0:
        raise ContourEnclosureError("target eigenvalue is not isolated")
    return ContourSpec(center=complex(w[i]), radius=gap / 2.0, num_points=num_points)


def _winding_check(eigenvalues: np.ndarray, c: ContourSpec) -> None:
    # quadrature of Tr (z-A)^{-1}: counts enclosed eigenvalues
    lam = eigenvalues

    def trace_resolvent(z):
        return np.sum(1.0 / (z - lam))

    count = matcore.contour_integrate(trace_resolvent, c)
    if abs(count - 1.0) > 1e-6:
        raise ContourEnclosureError(
            f"contour winding count {count:.6g}; must enclose exactly one eigenvalue"
        )


def eigenvalue_coefficients(a, b, i: int, order: int, contour: ContourSpec | None = None) -> EigenPerturbationSeries:
    """Perturbation coefficients of the eigenvalue continuing ``lambda_i(A)``.

    ``coefficients[k]`` multiplies ``eps^k`` in the expansion of the
    eigenvalue of ``A + eps B``; ``coefficients[0]`` is the unperturbed
    eigenvalue and higher orders come from contour quadrature of the trace
    formula.  For diagonal ``A`` the first orders reduce to ``B_ii`` and
    ``sum_{j != i} |B_ij|^2 / (lambda_i - lambda_j)``.

    ``a`` is Hermitian ``A`` or, so that a caller who already holds it need
    not decompose ``A`` again, its :class:`SpectralDecomposition`.  ``B`` must
    be Hermitian, so the coefficients are real; :class:`NotHermitianError` is
    raised otherwise.  In the eigenbasis of ``A`` the resolvent is a diagonal
    scaling, and the order-``k`` trace takes ``ceil(k/2) - 1`` matrix products
    per node.
    """
    if isinstance(a, SpectralDecomposition):
        dec = a
    else:
        dec = matcore.eig_hermitian(matcore.require_hermitian(a, what="A"))
    b = matcore.require_hermitian(b, what="B")
    if b.shape != dec.eigenvectors.shape:
        raise ShapeError("A and B must have the same shape")
    lam = dec.eigenvalues
    c = contour if contour is not None else default_contour(lam, i)
    _winding_check(lam, c)
    if not (abs(lam[i] - c.center) < c.radius):
        raise ContourEnclosureError("contour does not enclose the target eigenvalue")

    v = dec.eigenvectors
    b_eig = v.conj().T @ b @ v
    b_diag = np.diagonal(b_eig)

    coeffs = np.zeros(order + 1)
    coeffs[0] = lam[i]
    for k in range(1, order + 1):
        if k == 1:
            def integrand(z):
                return np.sum(b_diag / (z - lam))
        else:
            def integrand(z, _k=k):
                # Tr M^k = sum(M^h * (M^(k-h))^T) for M = (z-A)^{-1} B, h = k // 2
                m = b_eig / (z - lam)[:, None]
                p = m
                for _ in range(_k // 2 - 1):
                    p = p @ m
                q = p @ m if _k % 2 else p
                return np.sum(p * q.T)

        val = matcore.contour_integrate(integrand, c) / k
        coeffs[k] = val.real
    return EigenPerturbationSeries(coefficients=coeffs, contour=c, target_index=i)


def projection_coefficients(a, b, contour: ContourSpec, order: int) -> ProjectionSeries:
    """Series of the spectral projector of ``A + eps B`` inside the contour.

    ``coefficients[k] = (1/2*pi*i) * closed integral of
    [(z-A)^{-1} B]^k (z-A)^{-1} dz``; order zero is the unperturbed Riesz
    projector.  One quadrature integrates every order: in the eigenbasis of
    ``A`` each node takes one matrix product per order.
    """
    a = matcore.require_hermitian(a, what="A")
    b = matcore.as_matrix(b, square=True)
    dec = matcore.eig_hermitian(a)
    lam = dec.eigenvalues
    _winding_check(lam, contour)
    v = dec.eigenvectors
    b_eig = v.conj().T @ b @ v

    def integrand(z):
        d = 1.0 / (z - lam)
        m = b_eig * d[:, None]
        t = np.empty((order + 1,) + m.shape, dtype=complex)
        t[0] = np.diag(d)
        for k in range(order):
            t[k + 1] = m @ t[k]
        return t

    pk = matcore.contour_integrate(integrand, contour)
    return ProjectionSeries(coefficients=[v @ p @ v.conj().T for p in pk])


def lambda4_closed_form(a_diag, b, i: int) -> float:
    """Fourth-order eigenvalue coefficient for diagonal ``A``, in closed form.

    Three sums over off-target indices with energy denominators
    ``d_j = lambda_i - lambda_j``:

    ``sum_{jkl} B_ij B_jk B_kl B_li/(d_j d_k d_l)
      - sum_{jk} (2 B_ij B_jk B_ki B_ii + |B_ij|^2 |B_ik|^2)/(d_j^2 d_k)
      + sum_j |B_ij|^2 B_ii^2 / d_j^3``.
    """
    a = matcore.as_matrix(a_diag, square=True)
    lam = np.real(np.diagonal(a))
    if not matcore.is_diagonal(a, 1e-12):
        raise MatrixFormatError("A must be diagonal")
    b = matcore.as_matrix(b, square=True)
    n = lam.size
    mask = np.arange(n) != i
    d = lam[i] - lam[mask]
    if np.any(np.abs(d) == 0.0):
        raise ZeroDivisionError("repeated diagonal entries: vanishing denominator")
    inv_d = 1.0 / d

    row = b[i, mask]          # B_ij, j != i
    col = b[mask, i]          # B_ji
    sub = b[np.ix_(mask, mask)]
    bii = b[i, i].real

    x = col * inv_d                       # l-index vector B_li / d_l
    y = sub @ x                           # k-index
    z = inv_d * y
    w = sub @ z                           # j-index
    sum1 = np.dot(row * inv_d, w)

    t1 = 2.0 * bii * np.dot(row * inv_d**2, sub @ (col * inv_d))
    t2 = np.sum(np.abs(row) ** 2 * inv_d**2) * np.sum(np.abs(row) ** 2 * inv_d)
    sum3 = bii**2 * np.sum(np.abs(row) ** 2 * inv_d**3)
    return float((sum1 - (t1 + t2) + sum3).real)


# ---------------------------------------------------------------------------
# Schur-complement eigenvector machinery


@dataclass
class SchurData:
    """Block split of ``A + B`` around the eigenvector ``v`` of ``A``.

    ``a_perp``/``b_perp`` and the coupling column ``b`` are expressed in the
    orthonormal basis ``basis`` of the orthocomplement of ``v``, so that
    ``W* (A+B) W`` with ``W = [v | basis]`` is
    ``[[lambda0 + diag_coupling, b*], [b, a_perp + b_perp]]``.
    """

    lambda0: float
    diag_coupling: complex
    b: np.ndarray
    a_perp: np.ndarray
    b_perp: np.ndarray
    v: np.ndarray
    basis: np.ndarray

    def perp_matrix(self) -> np.ndarray:
        return self.a_perp + self.b_perp

    def block_matrix(self) -> np.ndarray:
        n = self.b.size + 1
        m = np.zeros((n, n), dtype=complex)
        m[0, 0] = self.lambda0 + self.diag_coupling
        m[0, 1:] = self.b.conj()
        m[1:, 0] = self.b
        m[1:, 1:] = self.perp_matrix()
        return m


def _orthocomplement_basis(v: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the orthocomplement of unit ``v``."""
    n = v.size
    u, _, _ = np.linalg.svd(v.reshape(n, 1), full_matrices=True)
    return u[:, 1:]


def schur_split(a, b, i: int) -> SchurData:
    """Split ``A + B`` around the i-th eigenvector of Hermitian ``A``."""
    a = matcore.require_hermitian(a, what="A")
    b = matcore.as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ShapeError("A and B must have the same shape")
    dec = matcore.eig_hermitian(a)
    v = dec.eigenvectors[:, i].copy()
    q = _orthocomplement_basis(v)
    bv = b @ v
    return SchurData(
        lambda0=float(dec.eigenvalues[i]),
        diag_coupling=complex(np.vdot(v, bv)),
        b=q.conj().T @ bv,
        a_perp=q.conj().T @ a @ q,
        b_perp=q.conj().T @ b @ q,
        v=v,
        basis=q,
    )


def self_energy(s: SchurData, z: complex) -> complex:
    """Schur-complement self-energy ``<b, (A_perp + B_perp - z)^{-1} b>``.

    Satisfies ``<v, (A+B-z)^{-1} v> = 1/(lambda0 + <v,Bv> - z - self_energy(z))``.
    """
    m = s.perp_matrix() - complex(z) * np.eye(s.b.size, dtype=complex)
    return complex(np.vdot(s.b, matcore.solve(m, s.b)))


def _self_energy_eigform(s: SchurData):
    dec = matcore.eig_hermitian(s.perp_matrix())
    beta = dec.eigenvectors.conj().T @ s.b
    return dec.eigenvalues, np.abs(beta) ** 2


def fixed_point_eigenvalue(s: SchurData, max_iter: int = 100) -> float:
    """Perturbed eigenvalue from the scalar fixed point of the Schur split.

    Solves ``F(x) = lambda0 + <v,Bv> - x - self_energy(x) = 0`` by
    safeguarded Newton started at ``lambda0 + <v,Bv>``; ``F`` is strictly
    decreasing between consecutive eigenvalues of ``A_perp + B_perp``, so
    the root in the interval containing the start point is unique.
    """
    c = s.lambda0 + s.diag_coupling.real
    if s.b.size == 0:  # a 1x1 split has no orthocomplement: ``c`` is exact
        return float(c)
    mu, w2 = _self_energy_eigform(s)

    def f_and_fp(x: float):
        d = mu - x
        val = c - x - np.sum(w2 / d)
        slope = -1.0 - np.sum(w2 / d**2)
        return val, slope

    if np.sum(w2) == 0.0:
        return float(c)

    x0 = c
    lo = mu[mu < x0 - 1e-14]
    hi = mu[mu > x0 + 1e-14]
    lo_pole = lo[-1] if lo.size else -math.inf
    hi_pole = hi[0] if hi.size else math.inf

    scale = max(1.0, abs(c), float(np.max(np.abs(mu))) if mu.size else 0.0)

    # bracket [blo, bhi] with F(blo) > 0 > F(bhi)
    def bracket_end(side: int) -> float:
        # side -1 (below x0) or +1: a point with side * F < 0, stepped in from
        # that side's pole or, with no pole there, out from x0
        pole, other = (lo_pole, hi_pole) if side < 0 else (hi_pole, lo_pole)
        if math.isfinite(pole):
            step = max(hi_pole - lo_pole if math.isfinite(other) else 1.0, 1e-12) * 1e-3
            x = pole - side * step
            for _ in range(60):
                if side * f_and_fp(x)[0] < 0:
                    return x
                step *= 0.25
                x = pole - side * step
            raise ConvergenceError(f"no sign change near the {'lower' if side < 0 else 'upper'} pole")
        x, step = x0, 1.0
        for _ in range(60):
            if side * f_and_fp(x)[0] < 0:
                return x
            x += side * step
            step *= 2.0
        raise ConvergenceError(f"no sign change toward {'-' if side < 0 else '+'}infinity")

    blo, bhi = bracket_end(-1), bracket_end(1)
    x = min(max(x0, blo), bhi)
    for _ in range(max_iter):
        val, slope = f_and_fp(x)
        if abs(val) <= 1e-13 * scale:
            return float(x)
        if val > 0:
            blo = max(blo, x)
        else:
            bhi = min(bhi, x)
        x_new = x - val / slope
        if not (blo < x_new < bhi):
            x_new = 0.5 * (blo + bhi)
        x = x_new
    raise ConvergenceError(f"fixed-point iteration did not converge in {max_iter} steps")


def eigenvector_tilde(s: SchurData, z: complex) -> np.ndarray:
    """Unnormalized eigenvector representative ``v + (z - A_perp - B_perp)^{-1} b``.

    Returned in the original coordinates; at the fixed-point eigenvalue its
    normalization is the exact unit eigenvector of ``A + B`` up to phase.
    """
    if s.b.size == 0:
        return s.v.copy()
    m = complex(z) * np.eye(s.b.size, dtype=complex) - s.perp_matrix()
    return s.v + s.basis @ matcore.solve(m, s.b)


@dataclass
class EigenvectorSeriesResult:
    """Terms of the orthocomplement eigenvector series and its ratio."""

    terms: list
    ratio: float

    @property
    def convergent(self) -> bool:
        return self.ratio < 1.0

    def partial_sum(self, count: int | None = None) -> np.ndarray:
        k = len(self.terms) if count is None else count
        return sum(self.terms[:k])


def eigenvector_series(s: SchurData, lambda_hat: float, count: int) -> EigenvectorSeriesResult:
    """Resolvent-series terms for the orthocomplement solve at ``lambda_hat``.

    Term ``l`` (1-based) is
    ``(-1)^{l-1} [(A_perp - lhat)^{-1} B_perp]^{l-1} (A_perp - lhat)^{-1} b``;
    the partial sums converge to ``(A_perp + B_perp - lhat)^{-1} b`` when the
    spectral ratio ``||(A_perp - lhat)^{-1} B_perp||`` is below one.  The
    perturbed eigenvector's orthocomplement part is ``-<v,vhat>`` times that
    limit. Vectors are in the orthocomplement coordinates of the split.
    """
    m0 = s.a_perp - lambda_hat * np.eye(s.b.size, dtype=complex)
    base = matcore.solve(m0, s.b)
    step = matcore.solve(m0, s.b_perp)
    ratio = matcore.op_norm(step) if s.b.size else 0.0
    terms = []
    t = base
    for _ in range(count):
        terms.append(t)
        t = -(step @ t)
    return EigenvectorSeriesResult(terms=terms, ratio=float(ratio))


def overlap_squared(s: SchurData, lambda_hat: float) -> float:
    """Squared overlap ``|<v, vhat>|^2`` from the normalization identity.

    Evaluates both closed forms, ``1/(1 + ||(A_perp+B_perp-lhat)^{-1} b||^2)``
    and the derivative form ``1/(1 + <b, (A_perp+B_perp-lhat)^{-2} b>)``, and
    checks they agree.
    """
    m = s.perp_matrix() - lambda_hat * np.eye(s.b.size, dtype=complex)
    w = matcore.solve(m, s.b)
    val_norm = 1.0 / (1.0 + float(np.vdot(w, w).real))
    w2 = matcore.solve(m, w)
    val_deriv = 1.0 / (1.0 + float(np.vdot(s.b, w2).real))
    if abs(val_norm - val_deriv) > 1e-9 * max(1.0, abs(val_norm)):
        raise ConvergenceError(
            "normalization identity violated: "
            f"{val_norm!r} (norm form) vs {val_deriv!r} (derivative form)"
        )
    return val_norm


@dataclass
class SpectralMeasure:
    """Atomic spectral measure of a probe vector: locations and weights."""

    locations: np.ndarray
    weights: np.ndarray

    def stieltjes(self, z: complex) -> complex:
        return complex(np.sum(self.weights / (self.locations - z)))

    def first_moment(self) -> float:
        return float(np.sum(self.weights * self.locations))


def spectral_measure(a, b, v) -> SpectralMeasure:
    """Measure ``sum_i |<vhat_i, v>|^2 delta_{lhat_i}`` for ``A + B``.

    The Stieltjes transform of the measure reproduces
    ``<v, (A+B-z)^{-1} v>`` at any ``z`` off the real axis.
    """
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    v = matcore.as_vector(v)
    dec = matcore.eig_hermitian(a + b)
    weights = np.abs(dec.eigenvectors.conj().T @ v) ** 2
    return SpectralMeasure(locations=dec.eigenvalues.copy(), weights=weights)


def sandwich(sv: SchurData, sw: SchurData, c) -> complex:
    """Matrix element ``<vhat, C what>`` between two perturbed eigenvectors.

    Both fixed-point eigenvalues are computed internally; the element is
    ``<vtilde(lhat), C wtilde(muhat)> / (||vtilde|| ||wtilde||)``, equal to
    the exact matrix element up to a unit phase.
    """
    c = matcore.as_matrix(c, square=True)
    lhat = fixed_point_eigenvalue(sv)
    muhat = fixed_point_eigenvalue(sw)
    vt = eigenvector_tilde(sv, lhat)
    wt = eigenvector_tilde(sw, muhat)
    return complex(np.vdot(vt, c @ wt) / (np.linalg.norm(vt) * np.linalg.norm(wt)))


# ---------------------------------------------------------------------------
# order-by-order unit eigenvector and the normalization cancellations


def _poly_scalar_mul(p, q, order):
    out = np.zeros(order + 1, dtype=complex)
    for i_, pi in enumerate(p[: order + 1]):
        for j_, qj in enumerate(q[: order + 1 - i_]):
            out[i_ + j_] += pi * qj
    return out


def unit_eigenvector_expansion(s: SchurData, lambda_series: EigenPerturbationSeries, order: int) -> list:
    """Coefficients ``vhat^{(l)}`` of the unit perturbed eigenvector in eps.

    Expands ``vtilde(lhat(eps))`` of the perturbation ``eps B`` around the
    split's eigenvector, then normalizes the power series so that
    ``||vhat(eps)||^2 = 1`` order by order.  The gauge ``<v, vhat> > 0`` is
    automatic because the tilde representative has unit overlap with ``v``.
    """
    lam = np.asarray(lambda_series.coefficients, dtype=float)
    if lam.size < order + 1:
        raise ArgumentError("eigenvalue series too short for the requested order")
    n_perp = s.b.size
    eye = np.eye(n_perp, dtype=complex)
    m0 = lam[0] * eye - s.a_perp
    m0_inv = matcore.inverse(m0)

    # X(eps) = M0^{-1} (Delta(eps) I - eps B_perp), zero constant term
    x_coeffs = [np.zeros((n_perp, n_perp), dtype=complex)]
    for k in range(1, order + 1):
        term = lam[k] * eye
        if k == 1:
            term = term - s.b_perp
        x_coeffs.append(m0_inv @ term)

    # R(eps) = (I + X)^{-1} M0^{-1} = sum_m (-X)^m M0^{-1}
    r_coeffs = [np.zeros((n_perp, n_perp), dtype=complex) for _ in range(order + 1)]
    r_coeffs[0] = eye.copy()
    power = [c.copy() for c in x_coeffs]  # X^1
    sign = -1.0
    for m in range(1, order + 1):
        for k in range(order + 1):
            r_coeffs[k] = r_coeffs[k] + sign * power[k]
        # next power X^{m+1}, truncated
        if m < order:
            nxt = [np.zeros((n_perp, n_perp), dtype=complex) for _ in range(order + 1)]
            for i_ in range(order + 1):
                for j_ in range(order + 1 - i_):
                    if i_ + j_ <= order:
                        nxt[i_ + j_] += power[i_] @ x_coeffs[j_]
            power = nxt
        sign = -sign
    r_coeffs = [rc @ m0_inv for rc in r_coeffs]

    # vtilde(eps) = v + Q R(eps) (eps b)
    tilde = [np.zeros(s.v.size, dtype=complex) for _ in range(order + 1)]
    tilde[0] = s.v.astype(complex).copy()
    for k in range(1, order + 1):
        tilde[k] = s.basis @ (r_coeffs[k - 1] @ s.b)

    # normalize: p(eps) = ||vtilde||^2, vhat = vtilde / sqrt(p)
    p = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        p[k] = sum(np.vdot(tilde[a_], tilde[k - a_]) for a_ in range(k + 1))
    r = p.copy()
    r[0] = 0.0  # p = 1 + r
    inv_sqrt = np.zeros(order + 1, dtype=complex)
    r_pow = np.zeros(order + 1, dtype=complex)
    r_pow[0] = 1.0
    coef = 1.0
    for m in range(order + 1):
        inv_sqrt += coef * r_pow
        coef *= -(0.5 + m) / (m + 1)  # binomial(-1/2, m+1) recursion
        r_pow = _poly_scalar_mul(r_pow, r, order)

    vhat = [np.zeros(s.v.size, dtype=complex) for _ in range(order + 1)]
    for k in range(order + 1):
        for a_ in range(k + 1):
            vhat[k] += tilde[a_] * inv_sqrt[k - a_]
    return vhat


def cancellation_check(s: SchurData, lambda_series: EigenPerturbationSeries, order: int) -> list:
    """Order-by-order normalization sums ``sigma_k = sum_l <vhat^(l), vhat^(k-l)>``.

    Every ``sigma_k`` with ``k >= 1`` must vanish because the unit norm of
    the perturbed eigenvector holds identically in eps.  Returns
    ``[sigma_1, ..., sigma_order]`` as reals.
    """
    vhat = unit_eigenvector_expansion(s, lambda_series, order)
    sigmas = []
    for k in range(1, order + 1):
        sig = sum(np.vdot(vhat[a_], vhat[k - a_]) for a_ in range(k + 1))
        sigmas.append(float(sig.real))
    return sigmas


def match_eigenpair(dec: SpectralDecomposition, v_ref) -> tuple:
    """Eigenpair of ``dec`` with maximal overlap against ``v_ref``.

    The returned eigenvector is re-phased so ``<v_ref, vhat>`` is real and
    nonnegative.  Returns ``(index, eigenvalue, eigenvector)``.
    """
    v_ref = matcore.as_vector(v_ref)
    overlaps = dec.eigenvectors.conj().T @ v_ref
    idx = int(np.argmax(np.abs(overlaps)))
    vec = dec.eigenvectors[:, idx].copy()
    ov = np.vdot(v_ref, vec)
    if abs(ov) > 0:
        vec = vec * (ov.conjugate() / abs(ov))
    return idx, float(dec.eigenvalues[idx]), vec


# ---------------------------------------------------------------------------
# quartic-oscillator discretization demo


def harmonic_oscillator_operators(grid_size: int, box: float = 10.0, eta: float = 0.0):
    """Finite-difference quartic-oscillator split on ``[-box, box]``.

    Dirichlet 3-point Laplacian on ``grid_size`` interior nodes; returns
    ``(a, x2, x4, x)`` with ``a = -Lap + (1+eta) X^2`` and the diagonal
    quadratic/quartic multiplication operators.
    """
    n = int(grid_size)
    if n < 8:
        raise ArgumentError("grid too small")
    h = 2.0 * box / (n + 1)
    x = -box + h * np.arange(1, n + 1)
    lap = (
        np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    ) / h**2
    a = lap.astype(complex) + np.diag((1.0 + eta) * x**2).astype(complex)
    return a, np.diag(x**2).astype(complex), np.diag(x**4).astype(complex), x


def harmonic_oscillator_demo(grid_size: int, epsilon: float, eta: float = 0.0, contour_points: int = 256) -> dict:
    """First-order response of the discretized oscillator to a quartic term.

    Runs the contour series for the ground state under the split
    ``A' = -Lap + (1+eta) X^2``, ``B' = eps X^4 - eta X^2`` and reports the
    pure-quartic first-order coefficient against the Gaussian-moment value
    3/4 (exact for the continuum ground state).
    """
    a, x2, x4, _ = harmonic_oscillator_operators(grid_size, eta=eta)
    dec = matcore.eig_hermitian(a)
    contour = default_contour(dec.eigenvalues, 0, num_points=contour_points)
    series_x4 = eigenvalue_coefficients(dec, x4, 0, 1, contour=contour)
    b_split = epsilon * x4 - eta * x2
    series_split = eigenvalue_coefficients(dec, b_split, 0, 1, contour=contour)
    moment = series_x4.coefficients[1]
    return {
        "grid_size": grid_size,
        "epsilon": epsilon,
        "eta": eta,
        "ground_energy": series_x4.coefficients[0],
        "quartic_first_order": moment,
        "gaussian_moment": 0.75,
        "relative_error": abs(moment - 0.75) / 0.75,
        "split_first_order": series_split.coefficients[1],
    }

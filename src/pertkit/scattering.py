"""Scattering-matrix entries at finite regularization and their series.

With ``lambda_tau = (lambda_i + lambda_j)/2 - i*tau`` the regularized entry
of Hermitian ``A + B`` is

    ``S_ij(tau) = i*tau * <v_i, (A + B - lambda_tau)^{-1} v_j>``

and its perturbation series has terms

    ``S^(k)_ij(tau) = i*tau * <v_i, (A - lambda_tau)^{-1}
                       [B (lambda_tau - A)^{-1}]^k v_j>``,

which sum exactly to the direct entry when the spectral ratio
``||(A - lambda_tau)^{-1} B||`` is below one.  The Abel (Cesaro) time
average of ``<v_i, e^{-itA} e^{2it(A+B)} e^{-itA} v_j>`` recovers the same
entry up to an ``exp(-2*tau*t_max)`` truncation tail.

For exactly diagonal ``A`` the reference eigenbasis is the standard basis
(indices are matrix indices); otherwise eigenpairs come from the ascending
Hermitian eigendecomposition: :func:`reference_basis`, which stands in for
``A`` in every function here, so that a caller decomposes ``A`` once.

A single entry is one solve of the shifted system.  The unitarity defect
decomposes ``A + B`` once and scales by ``1/(mu_k - lambda_tau)`` for every
entry, ``O(n^3)`` in all; the shift is never singular, since
``|mu_k - lambda_tau| >= tau``.  The series scales in the eigenbasis of ``A``.
A non-Hermitian ``A + B`` raises :class:`NotHermitianError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ArgumentError, EnumerationLimitError, SingularMatrixError
from .resolvent import PATH_ENUMERATION_CAP, index_paths


@dataclass(frozen=True)
class ScatteringQuery:
    """Entry selector: in/out eigenvector indices and the regularization."""

    i: int
    j: int
    tau: float

    def __post_init__(self):
        matcore.check_positive(self.tau, "tau")

    def check_indices(self, n: int) -> None:
        """Raise :class:`ArgumentError` unless ``i`` and ``j`` are integers that index ``n`` levels."""
        try:
            matcore.check_index(self.i, n)
            matcore.check_index(self.j, n)
        except ArgumentError:
            raise ArgumentError(f"entry ({self.i}, {self.j}) out of range for n = {n}") from None


def reference_basis(a) -> matcore.SpectralDecomposition:
    """The eigenbasis that indexes the entries; for exactly diagonal ``A`` the
    standard basis and the unsorted diagonal, so indices are matrix indices."""
    a = matcore.require_hermitian(a, what="A")
    if matcore.is_diagonal(a):
        return matcore.SpectralDecomposition(np.real(np.diagonal(a)).copy(), np.eye(a.shape[0], dtype=complex), a)
    return matcore.eig_hermitian(a)


def _operands(a, b):
    """``A``'s reference eigenvalues and eigenvectors, ``A`` and ``B``; ``a`` is ``A`` or its basis."""
    dec = a if isinstance(a, matcore.SpectralDecomposition) else None
    a, b = matcore.as_pair(a if dec is None else dec.matrix, b)
    dec = reference_basis(a) if dec is None else dec
    return dec.eigenvalues, dec.eigenvectors, a, b


def lambda_shift(lam_i: float, lam_j: float, tau: float) -> complex:
    """Complex energy shift ``(lambda_i + lambda_j)/2 - i*tau``."""
    matcore.check_positive(tau, "tau")
    return (lam_i + lam_j) / 2.0 - 1j * tau


def term_prefactor(lam_i: float, lam_j: float, tau: float, ell: int) -> complex:
    """Overall factor ``(-1)^(ell+1) i tau / ((lambda_i - lambda_j)^2/4 + tau^2)``
    of the order-``ell`` entry, for the energies of its two end states."""
    matcore.check_positive(tau, "tau")
    return (-1) ** (ell + 1) * 1j * tau / ((lam_i - lam_j) ** 2 / 4.0 + tau**2)


def s_entry_resolvent(a, b, q: ScatteringQuery) -> complex:
    """Scattering entry ``i*tau <v_i, (A+B-lambda_tau)^{-1} v_j>``.

    One solve of the shifted system, singular values at least ``tau``: cheaper
    than an eigendecomposition for one entry, and accurate to the entry's own
    size rather than to ``eps ||A+B|| / tau``.  Raises
    :class:`SingularMatrixError` when ``tau <= 1e-13 ||A+B||_F``.
    """
    lam, vecs, a, b = _operands(a, b)
    m = matcore.require_hermitian(a + b, what="A+B")
    q.check_indices(lam.size)
    if q.tau <= matcore.SINGULARITY_RTOL * np.linalg.norm(m):
        raise SingularMatrixError(f"tau = {q.tau:.3e} is not above {matcore.SINGULARITY_RTOL:g} ||A+B||_F")
    lt = lambda_shift(lam[q.i], lam[q.j], q.tau)
    x = np.linalg.solve(m - lt * np.eye(lam.size, dtype=complex), vecs[:, q.j])
    return complex(1j * q.tau * np.vdot(vecs[:, q.i], x))


def s_entry_time_average(a, b, q: ScatteringQuery, t_max: float, g=4000) -> complex:
    """Abel-averaged time series of the scattering entry.

    Evaluates ``2 tau * integral_0^{t_max} e^{-2 tau t}
    <v_i, e^{-itA} e^{2it(A+B)} e^{-itA} v_j> dt`` by Simpson quadrature;
    the damping rate matches the ``-i tau`` shift of the resolvent form, so
    the result agrees with :func:`s_entry_resolvent` within
    ``2 exp(-tau t_max)`` plus quadrature error.  ``g`` is a step count or
    any object with a ``steps`` attribute (e.g. a TimeGrid).
    """
    matcore.check_positive(t_max, "t_max")
    lam, vecs, a, b = _operands(a, b)
    m = matcore.require_hermitian(a + b, what="A+B")
    q.check_indices(lam.size)
    dec = matcore.eig_hermitian(m)
    mu, w = dec.eigenvalues, dec.eigenvectors
    amp = (w.conj().T @ vecs[:, q.i]).conj() * (w.conj().T @ vecs[:, q.j])
    freq = 2.0 * mu - lam[q.i] - lam[q.j]

    steps = int(getattr(g, "steps", g))
    steps = steps + (steps % 2)
    h = t_max / steps
    ts = h * np.arange(steps + 1)
    weights = matcore.simpson_weights(steps, h)
    phases = np.exp((1j * freq[None, :] - 2.0 * q.tau) * ts[:, None])
    integral = complex(np.sum(weights[:, None] * phases * amp[None, :]))
    return 2.0 * q.tau * integral


def s_series(a, b, q: ScatteringQuery, order: int) -> matcore.Series:
    """Perturbation series of the scattering entry through ``order``.

    ``ratio`` is the spectral ratio ``||(A - lambda_tau)^{-1} B||``; term 0
    is ``1_{i=j}`` and term 1 reduces, for diagonal ``A``, to
    ``i*tau / ((lambda_i-lambda_j)^2/4 + tau^2) * <v_i, B v_j>``.
    ``(A - lambda_tau)^{-1}`` is a diagonal scaling in the eigenbasis of
    ``A``.
    """
    matcore.check_order(order, "order")
    lam, vecs, _, b = _operands(a, b)
    q.check_indices(lam.size)
    b_eig = vecs.conj().T @ b @ vecs
    d = 1.0 / (lam - lambda_shift(lam[q.i], lam[q.j], q.tau))
    ratio = matcore.op_norm(d[:, None] * b_eig)

    terms = np.zeros(order + 1, dtype=complex)
    # right-to-left in A's eigenbasis: x_k = [B (lambda_tau - A)^{-1}]^k e_j
    x = np.zeros(lam.size, dtype=complex)
    x[q.j] = 1.0
    for k in range(order + 1):
        y = d * x
        terms[k] = 1j * q.tau * y[q.i]
        x = -(b_eig @ y)
    return matcore.Series(terms, float(ratio))


def s_term_index_sum(a_diag, b, q: ScatteringQuery, ell: int) -> complex:
    """Order-``ell`` series term as an explicit multi-index sum (diagonal A).

    ``(-1)^{ell+1} * i*tau / ((lambda_i - lambda_j)^2/4 + tau^2) *
    sum over k_1..k_{ell-1} of B_{i k_1} ... B_{k_{ell-1} j} /
    prod_a (lambda_{k_a} - lambda_tau)``.

    Enumerates the nonzero-weight paths exhaustively; the matrix-product route in
    :func:`s_series` is the independent cross-check.
    """
    if ell < 2:
        raise ArgumentError("the multi-index sum is defined for ell >= 2")
    a, b = matcore.as_pair(a_diag, b)
    lam = matcore.diagonal_of(a)
    n = lam.size
    q.check_indices(n)
    if n ** (ell - 1) > PATH_ENUMERATION_CAP:
        raise EnumerationLimitError(f"{n}^{ell - 1} paths exceed cap {PATH_ENUMERATION_CAP}")
    lt = lambda_shift(lam[q.i], lam[q.j], q.tau)

    nz = [np.flatnonzero(row).tolist() for row in b]
    total = 0.0 + 0.0j
    for path in index_paths(nz.__getitem__, q.i, q.j, ell):
        w = math.prod((b[r, c] for r, c in zip(path, path[1:])), start=1.0 + 0.0j)
        total += w / math.prod(lam[k] - lt for k in path[1:-1])
    return complex(term_prefactor(lam[q.i], lam[q.j], q.tau, ell) * total)


def s_matrix_unitarity_defect(a, b, tau: float) -> float:
    """Diagnostic ``||M(tau)* M(tau) - I||`` of the full entry matrix.

    The finite-dimensional limit need not exist, so this carries no hard
    tolerance; it should shrink for small ``||B||`` and well-separated
    spectra as tau decreases.
    """
    matcore.check_positive(tau, "tau")
    lam, vecs, a, b = _operands(a, b)
    dec = matcore.eig_hermitian(matcore.require_hermitian(a + b, what="A+B"))
    mu, e = dec.eigenvalues, vecs.conj().T @ dec.eigenvectors  # e: eigenvectors of A + B in A's basis
    n = lam.size
    # row i: i tau sum_k e_ik conj(e_jk) / (mu_k - lambda_tau(i, j)), O(n^2) each
    m = np.array([1j * tau * np.sum(e[i] * e.conj() / (mu - lambda_shift(lam[i], lam[:, None], tau)), axis=1)
                  for i in range(n)])
    return matcore.op_norm(m.conj().T @ m - np.eye(n))


# ---------------------------------------------------------------------------
# demos


def born_demo(num_sites: int, dispersion, potential, p: int, q: int, tau: float):
    """First-order entry on the 1-D discrete torus, two ways.

    ``A = F(P)`` is diagonal in the plane-wave basis with momenta
    ``2*pi*k/num_sites``; ``B = V(X)`` is diagonal in position.  Returns the
    pair (series order-1 term, closed form via the discrete Fourier
    coefficient ``Vhat(q - p)/num_sites``), which agree to rounding because
    ``<p|V|q> = Vhat(q - p)/num_sites`` exactly on the torus
    (``Vhat(m) = sum_x V(x) e^{imx}``).

    ``p``/``q`` are integer mode numbers in ``[-num_sites//2,
    num_sites - num_sites//2)``.
    """
    if num_sites < 4:
        raise ArgumentError("need at least 4 sites")
    ks = np.arange(num_sites) - num_sites // 2
    momenta = 2.0 * np.pi * ks / num_sites
    xs = np.arange(num_sites)

    if p not in ks or q not in ks:
        raise ArgumentError("mode numbers out of range")
    i = int(np.flatnonzero(ks == p)[0])
    j = int(np.flatnonzero(ks == q)[0])

    f_vals = np.array([dispersion(pk) for pk in momenta], dtype=float)
    v_vals = np.array([potential(x) for x in xs], dtype=float)

    waves = np.exp(1j * np.outer(xs, momenta)) / math.sqrt(num_sites)  # (x, k)
    b_momentum = waves.conj().T @ (v_vals[:, None] * waves)
    a = np.diag(f_vals).astype(complex)

    series = s_series(a, b_momentum, ScatteringQuery(i=i, j=j, tau=tau), 1)
    s1 = complex(series.terms[1])

    vhat = complex(np.sum(v_vals * np.exp(1j * (momenta[j] - momenta[i]) * xs)))
    denom = (f_vals[i] - f_vals[j]) ** 2 / 4.0 + tau**2
    closed = 1j * tau / denom * vhat / num_sites
    return s1, closed


def rutherford_demo(grid_radius: int, charge: float, p0, q0, eps_shell: float, tau: float) -> float:
    """Shell-summed first-order intensity for the Coulomb kernel.

    On the integer momentum grid ``{-Q..Q}^3`` sums ``|S^(1)_{p0,q}|^2``
    over ``|q - q0| <= eps_shell`` with ``Vhat(p) = Z/p^2`` and the
    dispersion ``F(p) = |p|`` (overall volume factors dropped; only the
    proportionality laws are meaningful).  The output scales exactly like
    ``Z^2``, and like ``1/tau`` on a resonant shell ``F(q0) = F(p0)`` once
    the lattice resolves the Lorentzian width.
    """
    matcore.check_positive(tau, "tau")
    if grid_radius < 1 or 2 * grid_radius + 1 > 17:
        raise ArgumentError("grid radius must keep the grid within 17^3 modes")
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    f_p0 = float(np.linalg.norm(p0))

    rng = range(-grid_radius, grid_radius + 1)
    total = 0.0
    found = 0
    for qx in rng:
        for qy in rng:
            for qz in rng:
                qvec = np.array([qx, qy, qz], dtype=float)
                if np.linalg.norm(qvec - q0) > eps_shell:
                    continue
                found += 1
                dp2 = float(np.sum((p0 - qvec) ** 2))
                if dp2 == 0.0:
                    raise ArgumentError("Coulomb kernel pole: p0 lies on the shell")
                denom = (f_p0 - float(np.linalg.norm(qvec))) ** 2 / 4.0 + tau**2
                amp = tau / denom * charge / dp2
                total += amp * amp
    if found == 0:
        raise ArgumentError("no grid modes on the requested shell")
    return total

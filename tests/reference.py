"""Independent oracles and reference implementations used across the suite.

The oracles deliberately avoid the code paths they check: eigenvalue/eigenvector
perturbation coefficients come from polynomial fits of exact
eigendecompositions on a Chebyshev grid in the perturbation strength, or from
Rayleigh-Schrodinger residue sums, never from contour quadrature or resolvent
expansions.  The reference implementations are the earlier, slower forms of
library paths, kept so the tests can compare the two.
"""

import math
from collections import defaultdict

import numpy as np
import scipy.linalg

from pertkit import matcore, spectral, symdiag, tensor
from pertkit.errors import ConvergenceError, EnumerationLimitError, GapCollapseError, StepSizeError


def cheb_nodes(eps_max: float, count: int) -> np.ndarray:
    k = np.arange(1, count + 1)
    return eps_max * np.cos(np.pi * (2 * k - 1) / (2 * count))


def eigenvalue_fit(a, b, i, order, eps_max=0.05, nodes=41, extra_degree=2):
    """Taylor coefficients of the tracked eigenvalue by polynomial fit.

    The perturbed eigenvalue is matched by maximal eigenvector overlap on
    every grid node, fitted in the scaled variable eps/eps_max, and the
    coefficients are rescaled back.
    """
    v_ref = matcore.eig_hermitian(a).eigenvectors[:, i]
    grid = cheb_nodes(eps_max, nodes)
    vals = np.empty(nodes)
    for k, eps in enumerate(grid):
        dec = matcore.eig_hermitian(np.asarray(a, dtype=complex) + eps * np.asarray(b, dtype=complex))
        _, vals[k], _ = spectral.match_eigenpair(dec, v_ref)
    coef = np.polynomial.polynomial.polyfit(grid / eps_max, vals, order + extra_degree)
    return coef[: order + 1] / (eps_max ** np.arange(order + 1))


def eigenvector_fit(a, b, i, order, eps_max=0.04, nodes=41, extra_degree=2):
    """Componentwise Taylor coefficients of the phase-fixed unit eigenvector."""
    v_ref = matcore.eig_hermitian(a).eigenvectors[:, i]
    grid = cheb_nodes(eps_max, nodes)
    n = v_ref.size
    samples = np.empty((nodes, n), dtype=complex)
    for k, eps in enumerate(grid):
        dec = matcore.eig_hermitian(np.asarray(a, dtype=complex) + eps * np.asarray(b, dtype=complex))
        _, _, vec = spectral.match_eigenpair(dec, v_ref)
        samples[k] = vec
    coef = np.polynomial.polynomial.polyfit(grid / eps_max, samples, order + extra_degree)
    return [coef[k] / eps_max**k for k in range(order + 1)]


def exact_two_level_eigenvalue_series(order: int):
    """Taylor coefficients of ``(1 - sqrt(1 + 4 eps^2))/2`` by fitting the
    closed form; the lower eigenvalue of ``diag(0,1) + eps*offdiag``.

    The function has convergence radius 1/2, so a generous fit degree keeps
    tail aliasing below 1e-7 on the coefficients of interest.
    """
    grid = cheb_nodes(0.05, 41)
    vals = (1.0 - np.sqrt(1.0 + 4.0 * grid**2)) / 2.0
    coef = np.polynomial.polynomial.polyfit(grid / 0.05, vals, order + 6)
    return coef[: order + 1] / (0.05 ** np.arange(order + 1))


# ---------------------------------------------------------------------------
# Cascade oracle: the exponential and Dyson terms from one scipy exponential
# of the materialized block matrix.


def van_loan_terms(a, b, t, m_max):
    """Blocks ``Y_0..Y_{m_max}`` of the first block column of ``e^{tL}``, ``L``
    block lower-bidiagonal with ``A`` on the diagonal and ``B`` below it, from
    one ``scipy.linalg.expm`` of the ``(m_max+1) n`` square ``L``.

    ``Y_m`` is homogeneous of degree ``m`` in ``B``, so ``B`` is scaled by the
    power of two ``c`` that brings ``t ||cB||_F`` nearest ``m_max`` and block m
    is divided by ``c^m``.  That keeps the blocks of one size, so the normwise
    accuracy of ``expm`` holds for every block, the small ones included.
    """
    n = a.shape[0]
    tb = t * np.linalg.norm(b)
    c = 2.0 ** round(math.log2(max(m_max, 1) / tb)) if tb > 0 else 1.0
    big = np.kron(np.eye(m_max + 1), a) + np.kron(np.eye(m_max + 1, k=-1), c * b)
    col = scipy.linalg.expm(t * big)[:, :n]
    return [col[m * n:(m + 1) * n] / c**m for m in range(m_max + 1)]


def van_loan_dyson_terms(a, b, t, m_max):
    """``I`` and ``e^{itA} Y_m(-iA, -iB)`` for ``m >= 1``, from :func:`van_loan_terms`."""
    free = scipy.linalg.expm(1j * t * a)
    ys = van_loan_terms(-1j * a, -1j * b, t, m_max)
    return [np.eye(a.shape[0], dtype=complex)] + [free @ y for y in ys[1:]]


# ---------------------------------------------------------------------------
# Reference time steppers: the list-state RK4 and the per-node adiabatic core
# that the array-state stepper and block-batched core in `evolution` replace.
# The evolution tests require the same bits and the same errors from both;
# the cascade tests use the list-state RK4 as a second, independent oracle.


def rk4_list(deriv, state, t0, t1, steps):
    """Classical RK4 on a list of arrays; returns the final state list."""
    h = (t1 - t0) / steps
    y = [s.copy() for s in state]
    for k in range(steps):
        t = t0 + k * h
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, [yi + (h / 2) * ki for yi, ki in zip(y, k1)])
        k3 = deriv(t + h / 2, [yi + (h / 2) * ki for yi, ki in zip(y, k2)])
        k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
        y = [
            yi + (h / 6) * (a_ + 2 * b_ + 2 * c_ + d_)
            for yi, a_, b_, c_, d_ in zip(y, k1, k2, k3, k4)
        ]
    return y


def _cascade_start(n, m_max):
    eye = np.eye(n, dtype=complex)
    return [eye] + [np.zeros_like(eye) for _ in range(m_max)]


def exp_series_terms_ref(a, b, t, m_max, steps):
    def deriv(_t, ys):
        out = [a @ ys[0]]
        for m in range(1, len(ys)):
            out.append(a @ ys[m] + b @ ys[m - 1])
        return out

    return rk4_list(deriv, _cascade_start(a.shape[0], m_max), 0.0, t, steps)


def dyson_terms_ref(a, b, t, m_max, steps):
    if matcore.is_hermitian(a):
        dec = matcore.eig_hermitian(a)
        lam, v = dec.eigenvalues, dec.eigenvectors
        b_eig = v.conj().T @ b @ v

        def btilde(s):
            ph = np.exp(1j * s * lam)
            return (v * ph) @ b_eig @ (v.conj() * ph.conj()).T
    else:
        def btilde(s):
            return matcore.expm(1j * s * a) @ b @ matcore.expm(-1j * s * a)

    def deriv(s, ys):
        w = btilde(s)
        out = [np.zeros_like(ys[0])]
        for m in range(1, len(ys)):
            out.append(-1j * (w @ ys[m - 1]))
        return out

    return rk4_list(deriv, _cascade_start(a.shape[0], m_max), 0.0, t, steps)


def propagator_ref(a, b_of_t, s, t, steps):
    def deriv(tt, ys):
        h = a + np.asarray(b_of_t(tt), dtype=complex)
        return [-1j * (h @ ys[0])]

    (u,) = rk4_list(deriv, [np.eye(a.shape[0], dtype=complex)], s, t, steps)
    return u


def adiabatic_eigvec_ref(a, b, f, i, eta, m_max, steps):
    """Normalized eigenvector estimate of ``adiabatic_eigvec_series``."""
    dec = matcore.eig_hermitian(a)
    lam, v = dec.eigenvalues, dec.eigenvectors
    b_eig = v.conj().T @ b @ v
    dlam = lam[:, None] - lam[None, :]
    e_i = np.zeros(lam.size, dtype=complex)
    e_i[i] = 1.0

    def deriv(t, ys):
        w = b_eig * np.exp(1j * eta * t * dlam)
        out = [np.zeros_like(e_i)]
        coeff = -1j * eta * f(t)
        for m in range(1, len(ys)):
            out.append(coeff * (w @ ys[m - 1]))
        return out

    final = rk4_list(deriv, [e_i] + [np.zeros_like(e_i) for _ in range(m_max)], 0.0, 1.0, steps)
    vec = v @ (np.exp(-1j * eta * lam) * sum(final))
    return vec / np.linalg.norm(vec)


def integrate_schedule_ref(sched, eta, i, steps, min_gap=1e-3):
    """One RK4 step and one guarded ``eig_hermitian`` per node, with ``H``
    cached by half-step index; returns nodes, states, eigenvector and
    eigenvalue paths, like ``evolution._integrate_schedule``."""
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)
    h_mats = {}

    def h_at(t):
        key = round(t / (h / 2))
        if key not in h_mats:
            if len(h_mats) > 4:
                h_mats.clear()
            h_mats[key] = np.asarray(sched.evaluator(t), dtype=complex)
        return h_mats[key]

    dec0 = matcore.eig_hermitian(sched.matrix(0.0))
    n = dec0.eigenvalues.size
    e_path = np.empty((steps + 1, n), dtype=complex)
    lam_path = np.empty(steps + 1)
    e_prev = dec0.eigenvectors[:, i].copy()
    e_path[0] = e_prev
    lam_path[0] = dec0.eigenvalues[i]
    gaps = np.abs(np.delete(dec0.eigenvalues, i) - dec0.eigenvalues[i])
    if gaps.size and gaps.min() < min_gap:
        raise GapCollapseError(f"spectral gap {gaps.min():.2e} below {min_gap:g} at t=0")
    u = e_prev.copy()
    us = np.empty((steps + 1, n), dtype=complex)
    us[0] = u
    for k in range(steps):
        t = nodes[k]

        def deriv(tt, ys):
            return [-1j * eta * (h_at(tt) @ ys[0])]

        (u,) = rk4_list(deriv, [u], t, t + h, 1)
        norm = np.linalg.norm(u)
        if abs(norm - 1.0) > 1e-6:
            raise StepSizeError(f"unitarity drift {abs(norm - 1.0):.2e} per step; refine grid")
        u = u / norm
        us[k + 1] = u
        dec = matcore.eig_hermitian(h_at(nodes[k + 1]))
        overlaps = np.abs(dec.eigenvectors.conj().T @ e_prev)
        idx = int(np.argmax(overlaps))
        gaps = np.abs(np.delete(dec.eigenvalues, idx) - dec.eigenvalues[idx])
        if gaps.size and gaps.min() < min_gap:
            raise GapCollapseError(
                f"spectral gap {gaps.min():.2e} below {min_gap:g} at t={nodes[k + 1]:g}"
            )
        e_new = dec.eigenvectors[:, idx].copy()
        ov = np.vdot(e_prev, e_new)
        if abs(ov) > 0:
            e_new *= ov.conjugate() / abs(ov)
        e_prev = e_new
        e_path[k + 1] = e_new
        lam_path[k + 1] = dec.eigenvalues[idx]
    return nodes, us, e_path, lam_path


# ---------------------------------------------------------------------------
# Reference resolvent paths: one contour quadrature per order, one solve per
# scattering entry and series order, the einsum line convolution and one
# inverse per exact remainder, as the factor-once paths replaced them.  The
# tests require agreement to 1e-12 relative.


def eigenvalue_coefficients_ref(a, b, i, order, c):
    dec = matcore.eig_hermitian(a)
    lam, v = dec.eigenvalues, dec.eigenvectors
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
                m = b_eig / (z - lam)[:, None]
                p = m
                for _ in range(_k - 1):
                    p = p @ m
                return np.trace(p)

        coeffs[k] = (matcore.contour_integrate(integrand, c) / k).real
    return coeffs


def projection_coefficients_ref(a, b, c, order):
    dec = matcore.eig_hermitian(a)
    lam, v = dec.eigenvalues, dec.eigenvectors
    b_eig = v.conj().T @ b @ v
    out = []
    for k in range(order + 1):
        def integrand(z, _k=k):
            d = 1.0 / (z - lam)
            t = np.diag(d).astype(complex)
            m = b_eig * d[:, None]
            for _ in range(_k):
                t = m @ t
            return t

        out.append(v @ matcore.contour_integrate(integrand, c) @ v.conj().T)
    return out


def _reference_basis(a):
    if matcore.is_diagonal(a):
        return np.real(np.diagonal(a)).copy(), np.eye(a.shape[0], dtype=complex)
    dec = matcore.eig_hermitian(a)
    return dec.eigenvalues, dec.eigenvectors


def s_entry_solve_ref(a, b, i, j, tau):
    lam, vecs = _reference_basis(a)
    lt = (lam[i] + lam[j]) / 2.0 - 1j * tau
    x = np.linalg.solve(a + b - lt * np.eye(lam.size), vecs[:, j])
    return complex(1j * tau * np.vdot(vecs[:, i], x))


def unitarity_defect_ref(a, b, tau):
    """``||M* M - I||`` from ``n^2`` independent solves."""
    n = a.shape[0]
    m = np.array([[s_entry_solve_ref(a, b, i, j, tau) for j in range(n)] for i in range(n)])
    return matcore.op_norm(m.conj().T @ m - np.eye(n))


def s_series_ref(a, b, i, j, tau, order):
    """Series terms and ratio with two LU solves per order."""
    lam, vecs = _reference_basis(a)
    lt = (lam[i] + lam[j]) / 2.0 - 1j * tau
    shifted = a - lt * np.eye(lam.size)
    ratio = matcore.op_norm(np.linalg.solve(shifted, b))
    terms = np.zeros(order + 1, dtype=complex)
    x = vecs[:, j].copy()
    for k in range(order + 1):
        terms[k] = 1j * tau * np.vdot(vecs[:, i], np.linalg.solve(shifted, x))
        x = b @ np.linalg.solve(-shifted, x)
    return terms, ratio


def convolution_diag_ref(lam1, lam2, omega, eps, cutoff, nodes, symmetric=False):
    """The ``(n1, n2)`` line sum by one three-operand ``einsum`` over all nodes,
    scaled like the raw value in the factor eigenbasis."""
    w1 = np.linspace(-cutoff, cutoff, nodes)
    weights = np.full(nodes, w1[1] - w1[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    if symmetric:
        z1, z2 = lam1 + 1j * eps, lam2 + 1j * eps
        g1 = z1[None, :] / (z1[None, :] ** 2 - w1[:, None] ** 2)
        g2 = z2[None, :] / (z2[None, :] ** 2 - (omega - w1)[:, None] ** 2)
        return (1j / np.pi) * np.einsum("k,ki,kj->ij", weights, g1, g2)
    d1 = 1.0 / (lam1[None, :] - w1[:, None] + 1j * eps)
    d2 = 1.0 / (lam2[None, :] - (omega - w1)[:, None] + 1j * eps)
    return -np.einsum("k,ki,kj->ij", weights, d1, d2) / (2j * np.pi)


def symmetric_kernel_reference(k, omega, eps):
    """Exact even-kernel target ``(A + 2ie)/((A + 2ie)^2 - omega^2)``."""
    lam1, lam2, v = tensor._two_factor_eigs(k)
    s = np.add.outer(lam1, lam2).ravel() + 2j * eps
    diag = s / (s**2 - omega**2)
    return (v * diag) @ v.conj().T


def exact_remainder_ref(a, b, k):
    """One inverse of ``A + B`` and one guarded solve per order."""
    full_inv = matcore.inverse(a + b)
    if k == 0:
        return full_inv
    return (-1) ** k * np.linalg.matrix_power(matcore.solve(a, b), k) @ full_inv


def rayleigh_schrodinger(a, b, i):
    """Eigenvalue coefficients of orders 1-3 for a simple eigenvalue of
    Hermitian ``A`` from the Rayleigh-Schrodinger residue sums in the
    eigenbasis of ``A`` (no contour, no resolvent expansion)."""
    lam, v = np.linalg.eigh(a)
    bb = v.conj().T @ b @ v
    others = np.arange(lam.size) != i
    d = lam[i] - lam[others]
    row, col = bb[i, others], bb[others, i]
    e1 = bb[i, i].real
    e2 = np.sum(row * col / d).real
    e3 = (row / d) @ bb[np.ix_(others, others)] @ (col / d) - bb[i, i] * np.sum(row * col / d**2)
    return np.array([e1, e2, e3.real])


# ---------------------------------------------------------------------------
# Reference table-free paths: the six spelled-out vertex channels, the
# two-pass basis closure and the four-loop bracket search that the channel
# table, the one-pass closure and the one-sided bracket helper replace.  The
# tests require the same states, amplitudes, order, entries and bits.


def trilinear_moves_ref(rule, state):
    """``TrilinearVertex.moves`` with each fuse/split channel as its own loop."""
    sa, sb, sc = rule.species
    grid = set(rule.grid)
    by_species = defaultdict(set)
    for sp, p in state.particles:
        by_species[sp].add(p)

    def neg(p):
        return tuple(-c for c in p)

    def add(p, q):
        return tuple(x + y for x, y in zip(p, q))

    def sub(p, q):
        return tuple(x - y for x, y in zip(p, q))

    out = defaultdict(complex)
    # fuse a+b -> c and split c -> a+b
    for qa in by_species[sa]:
        for qb in by_species[sb]:
            qc = add(qa, qb)
            if qc in grid:
                t = state.remove((sa, qa), (sb, qb)).add((sc, qc))
                out[t] += rule._amp(qc)
    for qc in by_species[sc]:
        for qa in rule.grid:
            qb = sub(qc, qa)
            if qb in grid:
                t = state.remove((sc, qc)).add((sa, qa), (sb, qb))
                out[t] += rule._amp(qc)
    # a <-> b+c
    for qa in by_species[sa]:
        for qb in rule.grid:
            qc = sub(qa, qb)
            if qc in grid:
                t = state.remove((sa, qa)).add((sb, qb), (sc, qc))
                out[t] += rule._amp(qc)
    for qb in by_species[sb]:
        for qc in by_species[sc]:
            qa = add(qb, qc)
            if qa in grid:
                t = state.remove((sb, qb), (sc, qc)).add((sa, qa))
                out[t] += rule._amp(qc)
    # b <-> a+c
    for qb in by_species[sb]:
        for qa in rule.grid:
            qc = sub(qb, qa)
            if qc in grid:
                t = state.remove((sb, qb)).add((sa, qa), (sc, qc))
                out[t] += rule._amp(qc)
    for qa in by_species[sa]:
        for qc in by_species[sc]:
            qb = add(qa, qc)
            if qb in grid:
                t = state.remove((sa, qa), (sc, qc)).add((sb, qb))
                out[t] += rule._amp(qc)
    # vacuum <-> a+b+c
    if state.size + 3 <= rule.max_particles:
        for qa in rule.grid:
            for qb in rule.grid:
                qc = neg(add(qa, qb))
                if qc in grid:
                    t = state.add((sa, qa), (sb, qb), (sc, qc))
                    out[t] += rule._amp(qc)
    for qa in by_species[sa]:
        for qb in by_species[sb]:
            qc = neg(add(qa, qb))
            if qc in by_species[sc]:
                t = state.remove((sa, qa), (sb, qb), (sc, qc))
                out[t] += rule._amp(qc)
    return out.items()


def build_interaction_ref(rule, seeds, depth, cap=symdiag.BASIS_CAP):
    """Close the basis first, then take every basis state's moves again."""
    frontier = list(dict.fromkeys(seeds))
    seen = dict.fromkeys(frontier)
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for t, _amp in rule.moves(s):
                if t not in seen:
                    seen[t] = None
                    nxt.append(t)
                    if len(seen) > cap:
                        raise EnumerationLimitError(f"basis closure exceeds cap {cap}")
        frontier = nxt
    basis = list(seen)
    basis_set = set(basis)
    entries = {}
    for s in basis:
        for t, amp in rule.moves(s):
            if t in basis_set and (t, s) not in entries:
                entries[(s, t)] = amp
    return symdiag.SparseInteraction(basis=basis, entries=entries, dispersion=rule.dispersion)


def fixed_point_eigenvalue_ref(s, max_iter=100):
    """``spectral.fixed_point_eigenvalue`` with the four mirrored bracket loops."""
    c = s.lambda0 + s.diag_coupling.real
    mu, w2 = spectral._self_energy_eigform(s)

    def f_and_fp(x):
        d = mu - x
        return c - x - np.sum(w2 / d), -1.0 - np.sum(w2 / d**2)

    if np.sum(w2) == 0.0:
        return float(c)
    x0 = c
    lo = mu[mu < x0 - 1e-14]
    hi = mu[mu > x0 + 1e-14]
    lo_pole = lo[-1] if lo.size else -math.inf
    hi_pole = hi[0] if hi.size else math.inf
    scale = max(1.0, abs(c), float(np.max(np.abs(mu))) if mu.size else 0.0)

    if math.isfinite(lo_pole):
        step = max(hi_pole - lo_pole if math.isfinite(hi_pole) else 1.0, 1e-12) * 1e-3
        blo = lo_pole + step
        for _ in range(60):
            if f_and_fp(blo)[0] > 0:
                break
            step *= 0.25
            blo = lo_pole + step
        else:
            raise ConvergenceError("no sign change near the lower pole")
    else:
        blo, step = x0, 1.0
        for _ in range(60):
            if f_and_fp(blo)[0] > 0:
                break
            blo -= step
            step *= 2.0
        else:
            raise ConvergenceError("no sign change toward -infinity")
    if math.isfinite(hi_pole):
        step = max(hi_pole - lo_pole if math.isfinite(lo_pole) else 1.0, 1e-12) * 1e-3
        bhi = hi_pole - step
        for _ in range(60):
            if f_and_fp(bhi)[0] < 0:
                break
            step *= 0.25
            bhi = hi_pole - step
        else:
            raise ConvergenceError("no sign change near the upper pole")
    else:
        bhi, step = x0, 1.0
        for _ in range(60):
            if f_and_fp(bhi)[0] < 0:
                break
            bhi += step
            step *= 2.0
        else:
            raise ConvergenceError("no sign change toward +infinity")

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

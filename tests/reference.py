"""Independent oracles and reference implementations used across the suite.

The oracles deliberately avoid the code paths they check: eigenvalue/eigenvector
perturbation coefficients come from polynomial fits of exact
eigendecompositions on a Chebyshev grid in the perturbation strength, or from
Rayleigh-Schrodinger residue sums, never from contour quadrature or resolvent
expansions.  The reference implementations are the earlier, slower forms of
library paths, kept so the tests can compare the two.
"""

import itertools
import math
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

from pertkit import evolution, matcore, resolvent, scattering, spectral, symdiag
from pertkit.errors import ArgumentError, ConvergenceError, EnumerationLimitError, GapCollapseError, StepSizeError


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
# Reference time steppers: the list-state RK4, the second oracle of the exact
# cascades and the independent oracle of the Magnus stepper at refined grids
# and of its step-doubling estimate, and the per-node Magnus adiabatic core
# that the block-batched core in `evolution` must match error for error.


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


def schrodinger_rk4(h_of_t, y0, t0, t1, steps):
    """RK4 solution at ``t1`` of ``i y' = H(t) y`` from ``y(t0) = y0``."""
    (y,) = rk4_list(lambda t, ys: [-1j * (np.asarray(h_of_t(t), dtype=complex) @ ys[0])], [y0], t0, t1, steps)
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


def _node_matrix(sched, t):
    """``H(t) = A + f(t) B`` at a Python float ``t``, guarded as the block core
    guards it."""
    return matcore.require_hermitian(sched.a + evolution.RAMPS[sched.ramp](t) * sched.b, what=f"H(t={t:g})")


def _magnus_generator(h_start, h_mid, h_end, c):
    """The generator of one Magnus step; one that overflows is not finite, and
    :func:`_expm_step` makes its step NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = (h_start + 4.0 * h_mid + h_end) / 6.0
        d = h_end - h_start
        return c * s + 1j * c**2 / 12.0 * (s @ d - d @ s)


def _expm_step(gen):
    """``expm(-i gen)``, NaN for a generator that is not finite."""
    return scipy.linalg.expm(-1j * gen) if np.isfinite(gen).all() else np.full(gen.shape, np.nan)


def integrate_schedule_ref(sched, eta, i, steps, min_gap=1e-3):
    """One fourth-order Magnus step by ``scipy.linalg.expm`` and one guarded
    ``eig_hermitian`` per node, checked in the order midpoint, end node, gap,
    step estimate.  The estimate is taken at every odd step and at the last
    one: ``||U_2h - U_k U_{k-1}||_F / 15``, ``U_2h`` one step over both with
    ``H(t_{k-1})`` as its midpoint.  Returns nodes, and the states, eigenvector
    and eigenvalue paths at every node, where ``evolution._integrate_schedule``
    keeps only the eigenvalue path and the final state and eigenvector; and
    the final state of the chain of the pairs' coarse steps (an odd last step
    its own)."""
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)
    h0 = sched.a + evolution.RAMPS[sched.ramp](0.0) * sched.b
    dec0 = matcore.eig_hermitian(h0, what="H(0)")
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
    coarse = u.copy()
    us = np.empty((steps + 1, n), dtype=complex)
    us[0] = u
    h_nodes = [h0]
    widths, step_list = [], []
    for k in range(steps):
        t = nodes[k]
        hk = (t + h) - t
        h_mid = _node_matrix(sched, t + hk / 2)
        h_end = _node_matrix(sched, t + hk)
        dec = matcore.eig_hermitian(h_end)
        overlaps = np.abs(dec.eigenvectors.conj().T @ e_prev)
        idx = int(np.argmax(overlaps))
        gaps = np.abs(np.delete(dec.eigenvalues, idx) - dec.eigenvalues[idx])
        if gaps.size and gaps.min() < min_gap:
            raise GapCollapseError(
                f"spectral gap {gaps.min():.2e} below {min_gap:g} at t={nodes[k + 1]:g}"
            )
        step = _expm_step(_magnus_generator(h_nodes[-1], h_mid, h_end, eta * hk))
        h_nodes.append(h_end)
        widths.append(eta * hk)
        step_list.append(step)
        if k % 2 or k == steps - 1:
            doubled = _expm_step(_magnus_generator(h_nodes[k - 1], h_nodes[k], h_end, widths[k - 1] + widths[k]))
            est = np.linalg.norm(doubled - step @ step_list[k - 1]) / 15.0
            if not est <= 1e-4:
                raise StepSizeError(f"step estimate {est:.2e} at t={nodes[k + 1]:g}; refine the grid")
            coarse = (doubled if k % 2 else step) @ coarse
        u = step @ u
        us[k + 1] = u
        e_new = dec.eigenvectors[:, idx].copy()
        ov = np.vdot(e_prev, e_new)
        if abs(ov) > 0:
            e_new *= ov.conjugate() / abs(ov)
        e_prev = e_new
        e_path[k + 1] = e_new
        lam_path[k + 1] = dec.eigenvalues[idx]
    return nodes, us, e_path, lam_path, coarse


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


def simpson_grid_ref(steps, t_max):
    """The inline Simpson prologue of the time averages: an odd step count
    rounded up to even, its nodes and composite Simpson weights."""
    steps = steps + (steps % 2)
    h = t_max / steps
    ts = h * np.arange(steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return ts, weights * (h / 3.0)


def laplace_bridge_ref(a, b, tau, t_max, steps):
    """``-i integral_0^t_max e^{it(A+B) - tau t} dt`` for Hermitian ``A + B``
    on :func:`simpson_grid_ref`, per eigenvalue of ``A + B``."""
    m = np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)
    ts, weights = simpson_grid_ref(steps, t_max)
    dec = matcore.eig_hermitian(m)
    phases = np.exp((1j * dec.eigenvalues[None, :] - tau) * ts[:, None])
    diag = -1j * (weights[:, None] * phases).sum(axis=0)
    return (dec.eigenvectors * diag) @ dec.eigenvectors.conj().T


def laplace_bridge_per_node_ref(a, b, tau, t_max, steps):
    """``-i integral_0^t_max e^{it(A+B) - tau t} dt`` on :func:`simpson_grid_ref`
    for any ``A + B``, with one Pade ``expm`` per node.

    Returns the integral and its scale ``sum_k w_k e^{-tau t_k} ||e^{i t_k (A+B)}||_2``.
    """
    m = np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)
    ts, weights = simpson_grid_ref(steps, t_max)
    total = np.zeros_like(m)
    scale = 0.0
    for w_k, t_k in zip(weights, ts):
        term = w_k * math.exp(-tau * t_k) * scipy.linalg.expm(1j * t_k * m)
        total = total + term
        scale += np.linalg.norm(term, 2)
    return -1j * total, scale


def s_entry_time_average_ref(a, b, i, j, tau, t_max, steps):
    """The Abel time average of the scattering entry on :func:`simpson_grid_ref`."""
    lam, vecs = _reference_basis(np.asarray(a, dtype=complex))
    dec = matcore.eig_hermitian(np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex))
    w = dec.eigenvectors
    amp = (w.conj().T @ vecs[:, i]).conj() * (w.conj().T @ vecs[:, j])
    freq = 2.0 * dec.eigenvalues - lam[i] - lam[j]
    ts, weights = simpson_grid_ref(steps, t_max)
    phases = np.exp((1j * freq[None, :] - 2.0 * tau) * ts[:, None])
    return 2.0 * tau * complex(np.sum(weights[:, None] * phases * amp[None, :]))


def integral_on_nodes_ref(values, h):
    """Simpson on an even count of intervals, else the trapezoid rule, with
    the weights built inline."""
    n = values.size - 1
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w = w * (h / 3.0)
    else:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2
    return float(np.sum(w * values))


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


def convolution_diag_ref(lam1, lam2, omega, eps, cutoff, nodes):
    """The ``(n1, n2)`` line sum by one three-operand ``einsum`` over all nodes,
    scaled like the raw value in the factor eigenbasis."""
    w1 = np.linspace(-cutoff, cutoff, nodes)
    weights = np.full(nodes, w1[1] - w1[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    d1 = 1.0 / (lam1[None, :] - w1[:, None] + 1j * eps)
    d2 = 1.0 / (lam2[None, :] - (omega - w1)[:, None] + 1j * eps)
    return -np.einsum("k,ki,kj->ij", weights, d1, d2) / (2j * np.pi)


def exact_remainder_ref(a, b, k):
    """One inverse of ``A + B`` and one guarded solve per order."""
    full_inv = matcore.inverse(a + b)
    if k == 0:
        return full_inv
    return (-1) ** k * np.linalg.matrix_power(matcore.solve(a, b), k) @ full_inv


def simplex_nodes_ref(m, q):
    """The recursive grid of ``resolvent._simplex_nodes``, built one node at
    a time over ``itertools.product``."""
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
            weight *= wu[idx] * remaining
            remaining -= x[axis]
        x[m] = remaining
        xs.append(x)
        ws.append(weight)
    x = np.array(xs)
    w = np.array(ws)
    return x, w / w.sum()


def lattice_nodes_ref(m, q):
    """The lattice rule of ``resolvent._simplex_nodes``, one point at a time: lattice point ``k`` of
    shift ``r`` is ``frac(k a^d / N + shift_rd)`` in axis ``d``, folded by the baker's transform and
    broken onto the simplex by ``v_d = 1 - u_d^(1/(m-d))``, in Python floats."""
    n, gen = resolvent.LATTICE_POINTS, resolvent.LATTICE_GENERATOR
    shifts = np.random.default_rng(q.seed + m).random((q.samples_or_depth, m))
    xs = []
    for shift in shifts.tolist():
        for k in range(n):
            remaining, x = 1.0, []
            for axis in range(m):
                u = ((k * gen**axis) % n / n + shift[axis]) % 1.0
                u = 1.0 - abs(2.0 * u - 1.0)
                x.append(remaining * (1.0 - u ** (1.0 / (m - axis))))
                remaining -= x[-1]
            xs.append(x + [remaining])
    return np.array(xs), np.full(len(xs), 1.0 / len(xs))


def feynman_parameter_entry_ref(a_diag, b, i, j, tau, m_max, q):
    """``resolvent.feynman_parameter_entry`` with the whole (samples, columns)
    integrand formed at once by ``** (m + 1)``, on the library's nodes and
    multiset columns.

    Every index tuple ``(i, k_1, ..., k_{m-1}, j)`` whose links are nonzero
    entries of ``B`` is a path; its weight, the product of those entries, is
    added into the column of its sorted inner levels here, so the columns come
    from no library code.  Returns the entry and, per order, the magnitude
    ``A_m = sum_s w_s sum_c |wts_c| / |z_sc|^(m+1)`` that scales the
    rounding error of any evaluation of that order's integral.  On the lattice
    rule each order's standard error is that of its shift means, from a
    ``(shifts, points)`` reshape of the integrand.
    """
    a, b = matcore.as_pair(a_diag, b)
    lam = matcore.diagonal_of(a).tolist()
    order_values = []
    order_errors = []
    magnitudes = []
    total = 0.0 + 0.0j
    for m in range(m_max + 1):
        sums = {}
        mids = itertools.product(range(len(lam)), repeat=m - 1) if m else ()
        tuples = [(i, *mid, j) for mid in mids] if m else [(i,)] * (i == j)
        for p in tuples:
            if all(b[r, c] != 0 for r, c in zip(p, p[1:])):
                row = (lam[i], *sorted(lam[k] for k in p[1:-1]), lam[j])[:m + 1]
                sums[row] = sums.get(row, 0) + math.prod((b[r, c] for r, c in zip(p, p[1:])), start=1.0 + 0.0j)
        lam_rows, wts = np.array(list(sums), dtype=float), np.array(list(sums.values()), dtype=complex)
        order_errors.append(0.0)
        if not sums:
            order_values.append(0.0 + 0.0j)
            magnitudes.append(0.0)
            continue
        x, w = resolvent._simplex_nodes(m, q, np.empty(q.points(m) * (m + 1)))
        denom = (x @ lam_rows.T) + 1j * tau
        integrand = (wts[None, :] / denom ** (m + 1)).sum(axis=1)
        magnitudes.append(float(np.sum(w * (np.abs(wts)[None, :] / np.abs(denom) ** (m + 1)).sum(axis=1))))
        mean = complex(np.sum(w * integrand))
        term = (-1) ** m * mean
        order_values.append(term)
        total += term
        if q.method == "lattice" and m >= 1:
            shift_means = integrand.reshape(q.samples_or_depth, -1).mean(axis=1)
            order_errors[m] = float(np.std(shift_means, ddof=1)) / math.sqrt(q.samples_or_depth)
    entry = resolvent.FeynmanEntry(value=total, std_error=math.sqrt(sum(e * e for e in order_errors)),
                                   order_values=tuple(order_values), order_std_errors=tuple(order_errors))
    return entry, tuple(magnitudes)


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
# tests require the same states, amplitudes, order, entries and bits.  The
# vertex channels build each neighbour by counting, normalizing and sorting
# the whole multiset again, so they share no state arithmetic with the
# one-edit neighbours of ``symdiag``.


def multiset_of_ref(*particles) -> tuple:
    """The particle tuple of the former ``MultisetState.of``."""
    return tuple(sorted((str(s), tuple(int(c) for c in p)) for s, p in particles))


def multiset_add_ref(particles: tuple, *added) -> tuple:
    """The former ``MultisetState.add`` on a particle tuple."""
    return multiset_of_ref(*(particles + tuple(added)))


def multiset_remove_ref(particles: tuple, *removed) -> tuple:
    """The former ``MultisetState.remove`` on a particle tuple."""
    c = Counter(particles)
    for p in removed:
        key = (str(p[0]), tuple(int(x) for x in p[1]))
        if c[key] <= 0:
            raise ValueError(f"particle {key} not present")
        c[key] -= 1
    return tuple(sorted(c.elements()))


def trilinear_moves_ref(rule, state):
    """``TrilinearVertex.moves`` with each fuse/split channel as its own loop
    and the particle cutoff applied to the targets afterwards."""

    def moved(removed, added):
        particles = multiset_add_ref(multiset_remove_ref(state.particles, *removed), *added)
        return symdiag.MultisetState(particles=particles)

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
                t = moved(((sa, qa), (sb, qb)), ((sc, qc),))
                out[t] += rule._amp(qc)
    for qc in by_species[sc]:
        for qa in rule.grid:
            qb = sub(qc, qa)
            if qb in grid:
                t = moved(((sc, qc),), ((sa, qa), (sb, qb)))
                out[t] += rule._amp(qc)
    # a <-> b+c
    for qa in by_species[sa]:
        for qb in rule.grid:
            qc = sub(qa, qb)
            if qc in grid:
                t = moved(((sa, qa),), ((sb, qb), (sc, qc)))
                out[t] += rule._amp(qc)
    for qb in by_species[sb]:
        for qc in by_species[sc]:
            qa = add(qb, qc)
            if qa in grid:
                t = moved(((sb, qb), (sc, qc)), ((sa, qa),))
                out[t] += rule._amp(qc)
    # b <-> a+c
    for qb in by_species[sb]:
        for qa in rule.grid:
            qc = sub(qb, qa)
            if qc in grid:
                t = moved(((sb, qb),), ((sa, qa), (sc, qc)))
                out[t] += rule._amp(qc)
    for qa in by_species[sa]:
        for qc in by_species[sc]:
            qb = add(qa, qc)
            if qb in grid:
                t = moved(((sa, qa), (sc, qc)), ((sb, qb),))
                out[t] += rule._amp(qc)
    # vacuum <-> a+b+c
    for qa in rule.grid:
        for qb in rule.grid:
            qc = neg(add(qa, qb))
            if qc in grid:
                t = moved((), ((sa, qa), (sb, qb), (sc, qc)))
                out[t] += rule._amp(qc)
    for qa in by_species[sa]:
        for qb in by_species[sb]:
            qc = neg(add(qa, qb))
            if qc in by_species[sc]:
                t = moved(((sa, qa), (sb, qb), (sc, qc)), ())
                out[t] += rule._amp(qc)
    # the Fock cutoff: no state above max_particles
    return [(t, amp) for t, amp in out.items() if t.size <= rule.max_particles]


def build_interaction_ref(rule, seeds, depth, cap=symdiag.BASIS_CAP):
    """Close the basis first, then take every basis state's ``rule.moves`` again.

    A rule whose ``moves`` are :func:`trilinear_moves_ref` gives the reference
    channels, so the whole closure shares no state arithmetic with ``symdiag``.
    """
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


def diagram_of_ref(seq):
    """The former ``symdiag.diagram_of``: per value and level, the indices of
    the states holding it at least that often, split into runs of consecutive
    indices, each run one line."""
    seq = list(seq)
    length = len(seq)
    lines = []
    for value in sorted({p for s in seq for p in s.particles}):
        profile = [s.particles.count(value) for s in seq]
        for level in range(1, max(profile) + 1):
            present = [k for k, m in enumerate(profile) if m >= level]
            run_start = prev = present[0]
            runs = []
            for k in present[1:]:
                if k == prev + 1:
                    prev = k
                else:
                    runs.append((run_start, prev))
                    run_start = prev = k
            runs.append((run_start, prev))
            for a, b_ in runs:
                start = symdiag.EXT_IN if a == 0 else a  # dot index = transition position
                end = length if b_ == length - 1 else b_ + 1
                lines.append((value[0], start, end))
    return symdiag.Diagram.of(num_dots=length - 1, lines=lines)


def three_particle_paths_ref(grid_spec, m_a, m_b, m_c, i_state, j_state, tau):
    """The former ``three_particle_demo`` table: the order-2 paths of the
    depth-1 closure of the two end states, walked by ``index_paths``, as
    ``(state, product, denominator)`` rows in the demo's row order, with the
    demo's refusals."""
    matcore.check_positive(tau, "tau")
    rule = symdiag.TrilinearVertex(masses={"a": m_a, "b": m_b, "c": m_c}, grid=symdiag.box_grid(*grid_spec))

    def one_of(state, species):
        ps = [p for sp, p in state.particles if sp == species]
        if len(ps) != 1:
            raise ArgumentError(f"state {state} must contain exactly one {species!r} particle")
        return ps[0]

    p1, p2, p3, p4 = one_of(i_state, "a"), one_of(i_state, "b"), one_of(j_state, "a"), one_of(j_state, "b")
    if not i_state.same_momentum(j_state):
        raise ArgumentError("states must carry the same total momentum")
    lam_i = rule.dispersion("a", p1) + rule.dispersion("b", p2)
    lam_j = rule.dispersion("a", p3) + rule.dispersion("b", p4)
    if abs(lam_i - lam_j) > 1e-12 * max(1.0, lam_i):
        raise ArgumentError("states must be on the same energy shell")
    bop = symdiag.build_interaction(rule, [i_state, j_state], depth=1)
    shift = scattering.lambda_shift(lam_i, lam_j, tau)
    paths = list(resolvent.index_paths(bop.neighbors, i_state, j_state, 2))
    if len(paths) != 4:
        raise ArgumentError(
            f"expected the 4 canonical intermediate states, found {len(paths)}; "
            "choose generic on-shell momenta inside the grid"
        )
    labels = {("c",): "a", ("b", "b", "c"): "c", ("a", "a", "c"): "d"}

    def label(k):
        return "b" if k.size == 5 else labels.get(tuple(sp for sp, _ in k.particles), "?")

    rows = sorted(((label(k), k, weight, bop.free_energy(k) - shift) for (_, k, _), weight in paths),
                  key=lambda r: r[0])
    if [r[0] for r in rows] != ["a", "b", "c", "d"]:
        raise ArgumentError("intermediate states do not match the canonical four-row table")
    return [r[1:] for r in rows]


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


# ---------------------------------------------------------------------------
# Reference unit-eigenvector expansion: the resolvent ``R(eps)`` as a sum of
# truncated matrix-polynomial powers and ``p^{-1/2}`` as a binomial series of
# polynomial powers, as the vector recursion replaced them.  The tests require
# every coefficient within 1e-12 of the largest coefficient norm.


def _poly_scalar_mul(p, q, order):
    out = np.zeros(order + 1, dtype=complex)
    for i_, pi in enumerate(p[: order + 1]):
        for j_, qj in enumerate(q[: order + 1 - i_]):
            out[i_ + j_] += pi * qj
    return out


def unit_eigenvector_expansion_ref(s, lambda_series, order):
    """``spectral.unit_eigenvector_expansion`` by products of truncated matrix polynomials."""
    lam = np.asarray(lambda_series.coefficients, dtype=float)
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

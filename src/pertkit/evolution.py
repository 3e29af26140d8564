"""Time-domain series and propagators.

The simplex integrals of the exponential and Dyson expansions are the terms
of the cascade ``Y_m' = A Y_m + B Y_{m-1}``, ``Y(0) = [I, 0, ..., 0]``: the
first block column of ``e^{tL}``, ``L`` block lower-bidiagonal with ``A`` on
the diagonal and ``B`` below it (Van Loan, 1978), computed exactly as one
``(m_max + 1, n, n)`` array:

* exponential series: ``T_m = Y_m(A, B)``; ``sum_m T_m(t)`` approximates
  ``e^{t(A+B)}``;
* Dyson series: ``G_0 = I``, ``G_m = e^{itA} Y_m(-iA, -iB)``, which solve
  ``G_m' = -i Btilde(t) G_{m-1}`` for ``Btilde(s) = e^{isA} B e^{-isA}``;
  ``sum_m G_m(t)`` approximates ``e^{itA} e^{-it(A+B)}``.

Also here: time-dependent propagators, the Laplace-transform bridge from
time evolution to the shifted inverse, holomorphic functional calculus, and
adiabatic evolution with its eigenvalue/eigenvector estimators.  The
adiabatic path is decomposed block by block (one batched ``eigh`` per block
of steps); only the O(n^2) RK4 update and the eigenvector continuation run
step by step, and each error is raised at the step it belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .errors import (
    ContourEnclosureError,
    ConvergenceError,
    GapCollapseError,
    ShapeError,
    StepSizeError,
    TrackingLossError,
)
from .matcore import ContourSpec


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: ``steps`` intervals up to ``t_end``."""

    t_end: float
    steps: int

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.steps < 8:
            raise ValueError("need at least 8 steps")


RAMPS: dict[str, Callable[[float], float]] = {
    "linear": lambda t: t,
    "smoothstep": lambda t: t * t * (3.0 - 2.0 * t),
    "smootherstep": lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
}


@dataclass
class Schedule:
    """Hermitian-valued map ``t in [0,1] -> H(t)``; caller asserts C^1."""

    evaluator: Callable[[float], np.ndarray]

    def matrix(self, t: float) -> np.ndarray:
        return matcore.require_hermitian(self.evaluator(t), what=f"H({t:g})")


def ramped_schedule(a, b, ramp: str | Callable[[float], float] = "linear") -> Schedule:
    """Schedule ``H(t) = A + f(t) B`` for a named or callable ramp."""
    a = matcore.require_hermitian(a, what="A")
    b = matcore.require_hermitian(b, what="B")
    f = RAMPS[ramp] if isinstance(ramp, str) else ramp
    return Schedule(evaluator=lambda t: a + f(t) * b)


def _rk4_system(deriv, y: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical RK4 on an array state; returns the final state."""
    h = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * h
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, y + (h / 2) * k1)
        k3 = deriv(t + h / 2, y + (h / 2) * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def remainder_bound(t: float, norm_a: float, norm_b: float, k: int) -> float:
    """Tail bound ``(t^k / k!) ||B||^k e^{t(||A|| + ||B||)}`` of the cascade."""
    if t < 0 or norm_a < 0 or norm_b < 0 or k < 0:
        raise ValueError("all arguments must be nonnegative")
    return t**k / math.factorial(k) * norm_b**k * math.exp(t * (norm_a + norm_b))


def _cascade(a, b, t: float, m_max: int) -> np.ndarray:
    """First block column ``[Y_0, ..., Y_{m_max}]`` of ``e^{tL}``.  Powers of
    ``L`` are block lower-triangular Toeplitz, so a column determines its
    matrix and a squaring is the block convolution ``sum_k E_{m-k} E_k``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ShapeError("A and B must have the same shape")
    # ||hL||_2 <= ||hA||_2 + ||hB||_2 <= h (||A||_F + ||B||_F) <= 1/2
    s = max(0, math.frexp(2.0 * t * (np.linalg.norm(a) + np.linalg.norm(b)))[1])
    h = t / 2.0**s
    one = np.zeros((m_max + 1,) + a.shape, dtype=complex)
    one[0] = np.eye(a.shape[0])
    # Taylor polynomial by Horner.  Block m carries m factors of hB, so degree
    # 16 + m_max leaves each block a remainder within theta^17 e^theta / 17!
    # (below 3.6e-20 at theta = 1/2, under 2^-53) of (h ||B||_2)^m / m!
    e = one
    for k in range(16 + m_max, 0, -1):
        le = a @ e
        le[1:] += b @ e[:-1]
        e = one + (h / k) * le
    for _ in range(s):
        e = np.stack([np.matmul(e[m::-1], e[: m + 1]).sum(axis=0) for m in range(m_max + 1)])
    return e


def exp_series_terms(a, b, t: float, m_max: int) -> list:
    """Cascade terms whose sum approximates ``e^{t(A+B)}``.

    ``T_m(t)``, the m-fold simplex integral, solves ``T_m' = A T_m + B T_{m-1}``
    with ``T_0 = e^{tA}`` exactly; the defect of ``sum_{m<=m_max} T_m(t)`` is
    bounded by ``remainder_bound(m_max+1)``.
    """
    return list(_cascade(a, b, t, m_max))


def dyson_terms(a, b, t: float, m_max: int) -> list:
    """Interaction-picture cascade whose sum approximates ``e^{itA} e^{-it(A+B)}``.

    ``G_m = e^{itA} Y_m(-iA, -iB)`` for ``m >= 1`` and ``G_0 = I`` exactly.  In
    the commuting case the order-m term reduces to ``(-itB)^m / m!``.
    """
    a = np.asarray(a, dtype=complex)
    y = _cascade(-1j * a, -1j * np.asarray(b, dtype=complex), t, m_max)
    return [np.eye(a.shape[0], dtype=complex)] + list(matcore.expm(1j * t * a) @ y[1:])


def propagator_time_dependent(a, b_of_t, s: float, t: float, g: TimeGrid) -> np.ndarray:
    """Unitary propagator ``U(s,t)`` of ``i dU/dt = (A + B(t)) U``, ``U(s,s)=I``.

    Fixed-step RK4; raises :class:`StepSizeError` when the unitarity defect
    of the result exceeds 1e-7.
    """
    if s > t:
        raise ValueError("require s <= t")
    a = matcore.require_hermitian(a, what="A")
    eye = np.eye(a.shape[0], dtype=complex)
    if s == t:
        return eye

    def deriv(tt, y):
        h = a + np.asarray(b_of_t(tt), dtype=complex)
        return -1j * (h @ y)

    u = _rk4_system(deriv, eye, s, t, g.steps)
    defect = matcore.op_norm(u.conj().T @ u - eye)
    if defect > 1e-7:
        raise StepSizeError(f"unitarity defect {defect:.2e}; refine the time grid")
    return u


def laplace_resolvent_bridge(a, b, tau: float, t_max: float, g: TimeGrid) -> np.ndarray:
    """Damped time integral ``-i * integral_0^{t_max} e^{it(A+B) - tau t} dt``.

    Converges to ``(A + B + i tau)^{-1}`` with truncation error bounded by
    ``e^{-tau t_max}/tau`` plus quadrature error; Simpson rule on the grid.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    m = a + b
    steps = g.steps + (g.steps % 2)
    h = t_max / steps
    ts = h * np.arange(steps + 1)
    weights = matcore.simpson_weights(steps, h)

    if matcore.is_hermitian(m):
        dec = matcore.eig_hermitian(m)
        lam, v = dec.eigenvalues, dec.eigenvectors
        # diagonal quadrature per eigenvalue
        phases = np.exp((1j * lam[None, :] - tau) * ts[:, None])  # (T, n)
        diag = -1j * (weights[:, None] * phases).sum(axis=0)
        return (v * diag) @ v.conj().T
    total = np.zeros_like(m)
    for w_k, t_k in zip(weights, ts):
        total = total + w_k * math.exp(-tau * t_k) * matcore.expm(1j * t_k * m)
    return -1j * total


def holomorphic_calculus(a, b, f, c: ContourSpec) -> np.ndarray:
    """Cauchy functional calculus ``f(A+B)`` by contour quadrature.

    The counterclockwise circle must enclose the whole spectrum of ``A+B``;
    nodes evaluate ``f(z) (z - (A+B))^{-1}`` through the guarded
    :func:`matcore.inverse`, so a node next to an eigenvalue raises
    :class:`SingularMatrixError`.
    """
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    m = a + b
    eigs = np.linalg.eigvals(m)
    if np.any(np.abs(eigs - c.center) >= c.radius):
        raise ContourEnclosureError("contour must enclose the whole spectrum")
    eye = np.eye(m.shape[0], dtype=complex)

    def integrand(z):
        return f(z) * matcore.inverse(z * eye - m)

    return matcore.contour_integrate(integrand, c)


# ---------------------------------------------------------------------------
# adiabatic evolution


@dataclass
class AdiabaticResult:
    """Final state, accumulated eigenvalue phase, and eigenpath error."""

    final_state: np.ndarray
    tracked_phase: float
    error_vs_eigenpath: float
    eigenvalue_path: np.ndarray
    final_eigenvector: np.ndarray


#: Steps per batched eigendecomposition; a bounded block keeps memory flat.
_BLOCK = 32


def _nearest_gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each ascending eigenvalue to its nearest neighbour
    (``inf`` for a single level); bit-equal to the minimum over all others."""
    d = np.diff(w, axis=-1, prepend=-np.inf, append=np.inf)
    return np.minimum(d[..., :-1], d[..., 1:])


def _require_gap(gap: float, min_gap: float, t: float) -> None:
    if gap < min_gap:
        raise GapCollapseError(f"spectral gap {gap:.2e} below {min_gap:g} at t={t:g}")


def _schedule_block(evaluator, ts: np.ndarray, h: float, n: int):
    """Step widths, ``H`` at the midpoints of the steps starting at ``ts``
    with a mask that is False where a midpoint is a non-finite ``(n, n)``
    array, and ``H`` at their ends with one batched ``eigh`` (eigenvalues,
    adjoint eigenvectors, eigenvectors, nearest gaps) and a mask of the
    finite Hermitian ``(n, n)`` ones.  An evaluation that raises ends the
    block and takes the place of its matrix, to be raised in time order."""
    hks = (ts + h) - ts  # the width of a one-step RK4 on [t, t + h]
    mats = []
    for tt in np.column_stack([ts + hks / 2, ts + hks]).ravel():
        try:
            mats.append(np.asarray(evaluator(tt), dtype=complex))
        except Exception as exc:
            mats += [exc] * (2 - len(mats) % 2)
            break
    regular = np.array([isinstance(e, np.ndarray) and e.shape == (n, n) for e in mats])
    stack = np.array([e if r else np.zeros((n, n)) for e, r in zip(mats, regular)], dtype=complex)
    ok = regular & np.isfinite(stack).all(axis=(1, 2))
    mid_ok = ~regular[0::2] | ok[0::2]  # an irregular midpoint fails where it is used
    mids, ends, stack, ok = mats[0::2], mats[1::2], stack[1::2], ok[1::2]
    stack[~ok] = 0.0
    ok &= matcore.is_hermitian(stack)
    w, v = np.linalg.eigh((stack + stack.conj().swapaxes(1, 2)) / 2.0)
    return (hks.tolist(), mids, mid_ok.tolist(), ends, ok.tolist(), w, v.conj().swapaxes(1, 2), v,
            _nearest_gaps(w))


def _integrate_schedule(sched: Schedule, eta: float, i: int, g: TimeGrid, min_gap: float = 1e-3):
    """Shared core: integrate ``i u' = eta H(t) u`` from ``u(0) = e_i(0)``.

    Returns nodes, the state history at nodes, the continued eigenvector
    path (positive-overlap gauge) and eigenvalue path.  Raises on gap
    collapse, on a non-finite ``H`` at a node or step midpoint, or on
    unitarity drift beyond 1e-6 (a NaN drift included).
    """
    steps = g.steps
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)
    h_end = sched.matrix(0.0)
    dec0 = matcore.eig_hermitian(h_end)
    n = dec0.eigenvalues.size
    if not (0 <= i < n):
        raise ValueError("eigenvalue index out of range")
    _require_gap(_nearest_gaps(dec0.eigenvalues)[i], min_gap, 0.0)
    us = np.empty((steps + 1, n), dtype=complex)
    e_path = np.empty_like(us)
    lam_path = np.empty(steps + 1)
    us[0] = e_path[0] = u = e_prev = dec0.eigenvectors[:, i].copy()
    lam_path[0] = dec0.eigenvalues[i]
    c = -1j * eta

    for k0 in range(0, steps, _BLOCK):
        block = _schedule_block(sched.evaluator, nodes[k0:min(k0 + _BLOCK, steps)], h, n)
        for k, (hk, h_mid, mid_ok, h_next, ok, lam, vec_h, vec, gaps) in enumerate(zip(*block), start=k0):
            k1 = c * (h_end @ u)
            if isinstance(h_mid, Exception):
                raise h_mid
            if not mid_ok:
                matcore.as_matrix(h_mid)  # raises this midpoint's non-finite error
            k2 = c * (h_mid @ (u + (hk / 2) * k1))
            k3 = c * (h_mid @ (u + (hk / 2) * k2))
            if isinstance(h_next, Exception):
                raise h_next
            k4 = c * (h_next @ (u + hk * k3))
            u = u + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            norm = np.linalg.norm(u)
            # per-step norm drift measures the local integrator error; the state
            # itself is re-projected onto the unit sphere every step
            if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
                raise StepSizeError(f"unitarity drift {abs(norm - 1.0):.2e} per step; refine grid")
            u = u / norm
            us[k + 1] = u
            h_end = h_next

            if not ok:  # the single-matrix path raises this node's guard error
                dec = matcore.eig_hermitian(h_next)
                lam, vec = dec.eigenvalues, dec.eigenvectors
                vec_h, gaps = vec.conj().T, _nearest_gaps(lam)
            idx = int(np.abs(vec_h @ e_prev).argmax())
            _require_gap(gaps[idx], min_gap, nodes[k + 1])
            e_new = vec[:, idx].copy()
            ov = np.vdot(e_prev, e_new)
            if abs(ov) > 0:
                e_new *= ov.conjugate() / abs(ov)  # positive-overlap gauge
            e_path[k + 1] = e_prev = e_new
            lam_path[k + 1] = lam[idx]

    return nodes, us, e_path, lam_path


def _integral_on_nodes(values: np.ndarray, h: float) -> float:
    n = values.size - 1
    if n % 2 == 0:
        w = matcore.simpson_weights(n, h)
    else:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2
    return float(np.sum(w * values))


def adiabatic_evolve(sched: Schedule, eta: float, i: int, g: TimeGrid) -> AdiabaticResult:
    """Solve ``i u' = eta H(t) u`` on [0,1] and compare with the eigenpath.

    The tracked eigenvector ``e_i(t)`` is continued by maximal overlap with
    positive-overlap gauge, the phase is ``phi_i(1) = integral of
    lambda_i``, and the reported error is
    ``||u(1) - e_i(1) e^{-i eta phi_i(1)}||``, which decays like 1/eta for a
    C^1 schedule with a uniform spectral gap.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    nodes, us, e_path, lam_path = _integrate_schedule(sched, eta, i, g)
    phi = _integral_on_nodes(lam_path, nodes[1] - nodes[0])
    u_final = us[-1]
    reference = e_path[-1] * np.exp(-1j * eta * phi)
    err = float(np.linalg.norm(u_final - reference))
    return AdiabaticResult(
        final_state=u_final,
        tracked_phase=phi,
        error_vs_eigenpath=err,
        eigenvalue_path=lam_path,
        final_eigenvector=e_path[-1],
    )


def adiabatic_eigenvalue_track(sched: Schedule, eta: float, i: int, g: TimeGrid) -> np.ndarray:
    """Eigenvalue-shift estimator ``lambda_i(t) - lambda_i(0)`` from the state.

    Evaluates the logarithmic-derivative estimator
    ``(1/eta) i d/dt log <e^{-i eta t lambda_i(0)} e_i(0), u(t)>``, which
    simplifies to ``<e_i(0), H(t) u(t)> / <e_i(0), u(t)> - lambda_i(0)``;
    returns its real part on the grid nodes.  Raises
    :class:`TrackingLossError` when the overlap magnitude drops below 1e-6.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    nodes, us, e_path, lam_path = _integrate_schedule(sched, eta, i, g)
    e0 = e_path[0]
    lam0 = lam_path[0]
    out = np.empty(nodes.size)
    for k, t in enumerate(nodes):
        u = us[k]
        ov = np.vdot(e0, u)
        if abs(ov) < 1e-6:
            raise TrackingLossError(f"reference overlap {abs(ov):.2e} lost at t={t:g}")
        h_mat = np.asarray(sched.evaluator(t), dtype=complex)
        out[k] = (np.vdot(e0, h_mat @ u) / ov).real - lam0
    return out


@dataclass
class AdiabaticSeriesResult:
    """Eigenvector direction from the ramped Dyson series, with error budget."""

    vector: np.ndarray
    budget: float


def adiabatic_eigvec_series(a, b, f, i: int, eta: float, m_max: int, g: TimeGrid) -> AdiabaticSeriesResult:
    """Eigenvector of ``A + B`` from the time-ordered ramped series.

    Integrates the interaction-picture cascade with kernel
    ``eta f(t) Btilde(eta t)`` on [0,1] starting from the unperturbed
    eigenvector, undoes the free phase, and normalizes the result.  The
    claimed error budget ``1/eta + (||B|| eta)^{m_max} / m_max!`` is
    reported; the call refuses (with a diagnostic) when it reaches one.
    """
    a = matcore.require_hermitian(a, what="A")
    b = matcore.require_hermitian(b, what="B")
    if isinstance(f, str):
        f = RAMPS[f]
    norm_b = matcore.op_norm(b)
    budget = 1.0 / eta + (norm_b * eta) ** m_max / math.factorial(m_max)
    if budget >= 1.0:
        raise ConvergenceError(
            f"error budget {budget:.3g} >= 1 (eta*||B|| = {eta * norm_b:.3g}, "
            f"m_max = {m_max}); raise m_max or lower eta*||B||"
        )
    dec = matcore.eig_hermitian(a)
    lam, v = dec.eigenvalues, dec.eigenvectors
    if norm_b > _nearest_gaps(lam)[i]:
        raise ValueError("||B|| exceeds the unperturbed spectral gap")
    b_eig = v.conj().T @ b @ v
    dlam = lam[:, None] - lam[None, :]

    def deriv(t, ys):
        w = b_eig * np.exp(1j * eta * t * dlam)
        out = np.zeros_like(ys)
        # matrix times a stack of column vectors: the same gemv per order
        out[1:] = -1j * eta * f(t) * np.matmul(w, ys[:-1, :, None])[..., 0]
        return out

    state = np.zeros((m_max + 1, lam.size), dtype=complex)
    state[0, i] = 1.0
    final = _rk4_system(deriv, state, 0.0, 1.0, g.steps)
    vec = v @ (np.exp(-1j * eta * lam) * sum(final))
    nv = np.linalg.norm(vec)
    if nv == 0:
        raise ConvergenceError("series produced a null vector")
    return AdiabaticSeriesResult(vector=vec / nv, budget=float(budget))

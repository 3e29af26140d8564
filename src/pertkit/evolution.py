"""Time-domain series and propagators.

The simplex integrals of the exponential and Dyson expansions are realized
as ODE cascades (exact variation-of-constants recursions) integrated with
classical fixed-step RK4:

* exponential series: ``T_0(t) = e^{tA}``, ``T_m' = A T_m + B T_{m-1}``,
  and ``sum_m T_m(t)`` approximates ``e^{t(A+B)}``;
* Dyson series in the interaction picture ``Btilde(s) = e^{isA} B e^{-isA}``:
  ``G_0 = I``, ``G_m' = -i Btilde(t) G_{m-1}``, and ``sum_m G_m(t)``
  approximates ``e^{itA} e^{-it(A+B)}``.

Also here: time-dependent propagators, the Laplace-transform bridge from
time evolution to the shifted inverse, holomorphic functional calculus, and
adiabatic evolution with its eigenvalue/eigenvector estimators.
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


def _rk4_system(deriv, state, t0: float, t1: float, steps: int):
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


def remainder_bound(t: float, norm_a: float, norm_b: float, k: int) -> float:
    """Tail bound ``(t^k / k!) ||B||^k e^{t(||A|| + ||B||)}`` of the cascade."""
    if t < 0 or norm_a < 0 or norm_b < 0 or k < 0:
        raise ValueError("all arguments must be nonnegative")
    return t**k / math.factorial(k) * norm_b**k * math.exp(t * (norm_a + norm_b))


def exp_series_terms(a, b, t: float, m_max: int, g: TimeGrid) -> list:
    """Cascade terms whose sum approximates ``e^{t(A+B)}``.

    ``T_m(t)`` realizes the m-fold simplex integral exactly through the
    recursion ``T_m' = A T_m + B T_{m-1}`` with ``T_0 = e^{tA}``; the defect
    of ``sum_{m<=m_max} T_m(t)`` is bounded by ``remainder_bound(m_max+1)``
    plus the O(step^4) integrator error.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ShapeError("A and B must have the same shape")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    if t == 0:
        return [eye] + [np.zeros_like(eye) for _ in range(m_max)]

    def deriv(_t, ys):
        out = [a @ ys[0]]
        for m in range(1, len(ys)):
            out.append(a @ ys[m] + b @ ys[m - 1])
        return out

    state = [eye] + [np.zeros_like(eye) for _ in range(m_max)]
    return _rk4_system(deriv, state, 0.0, t, g.steps)


def _interaction_picture(a: np.ndarray):
    """Return ``s -> e^{isA} B e^{-isA}`` applier built from A's structure."""
    if matcore.is_hermitian(a):
        dec = matcore.eig_hermitian(a)
        lam, v = dec.eigenvalues, dec.eigenvectors

        def btilde(s: float, b_eig: np.ndarray) -> np.ndarray:
            ph = np.exp(1j * s * lam)
            return (v * ph) @ b_eig @ (v.conj() * ph.conj()).T

        return lam, v, btilde
    return None


def dyson_terms(a, b, t: float, m_max: int, g: TimeGrid) -> list:
    """Interaction-picture cascade whose sum approximates ``e^{itA} e^{-it(A+B)}``.

    In the commuting case the order-m term reduces to ``(-itB)^m / m!``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ShapeError("A and B must have the same shape")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    if t == 0:
        return [eye] + [np.zeros_like(eye) for _ in range(m_max)]

    herm = _interaction_picture(a)
    if herm is not None:
        lam, v, applier = herm
        b_eig = v.conj().T @ b @ v

        def btilde(s):
            return applier(s, b_eig)
    else:
        def btilde(s):
            u = matcore.expm(1j * s * a)
            return u @ b @ matcore.expm(-1j * s * a)

    cache: dict[float, np.ndarray] = {}

    def btilde_cached(s):
        if s not in cache:
            cache.clear()
            cache[s] = btilde(s)
        return cache[s]

    def deriv(s, ys):
        out = [np.zeros_like(eye)]
        w = btilde_cached(s)
        for m in range(1, len(ys)):
            out.append(-1j * (w @ ys[m - 1]))
        return out

    state = [eye] + [np.zeros_like(eye) for _ in range(m_max)]
    return _rk4_system(deriv, state, 0.0, t, g.steps)


def propagator_time_dependent(a, b_of_t, s: float, t: float, g: TimeGrid) -> np.ndarray:
    """Unitary propagator ``U(s,t)`` of ``i dU/dt = (A + B(t)) U``, ``U(s,s)=I``.

    Fixed-step RK4; raises :class:`StepSizeError` when the unitarity defect
    of the result exceeds 1e-7.
    """
    if s > t:
        raise ValueError("require s <= t")
    a = matcore.require_hermitian(a, what="A")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    if s == t:
        return eye

    def deriv(tt, ys):
        h = a + np.asarray(b_of_t(tt), dtype=complex)
        return [-1j * (h @ ys[0])]

    (u,) = _rk4_system(deriv, [eye], s, t, g.steps)
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
    nodes evaluate ``f(z) (z - (A+B))^{-1}``.
    """
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    m = a + b
    eigs = np.linalg.eigvals(m)
    if np.any(np.abs(eigs - c.center) >= c.radius):
        raise ContourEnclosureError("contour must enclose the whole spectrum")
    eye = np.eye(m.shape[0], dtype=complex)

    def integrand(z):
        return f(z) * np.linalg.solve(z * eye - m, eye)

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


def _integrate_schedule(sched: Schedule, eta: float, i: int, g: TimeGrid, min_gap: float = 1e-3):
    """Shared core: integrate ``i u' = eta H(t) u`` from ``u(0) = e_i(0)``.

    Returns nodes, the state history at nodes, the continued eigenvector
    path (positive-overlap gauge) and eigenvalue path.  Raises on gap
    collapse or on unitarity drift beyond 1e-6.
    """
    steps = g.steps
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)

    h_mats = {}

    def h_at(t: float) -> np.ndarray:
        key = round(t / (h / 2))
        if key not in h_mats:
            if len(h_mats) > 4:
                h_mats.clear()
            h_mats[key] = np.asarray(sched.evaluator(t), dtype=complex)
        return h_mats[key]

    dec0 = matcore.eig_hermitian(sched.matrix(0.0))
    n = dec0.eigenvalues.size
    if not (0 <= i < n):
        raise ValueError("eigenvalue index out of range")
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

        (u,) = _rk4_system(deriv, [u], t, t + h, 1)
        norm = np.linalg.norm(u)
        # per-step norm drift measures the local integrator error; the state
        # itself is re-projected onto the unit sphere every step
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
            e_new *= ov.conjugate() / abs(ov)  # positive-overlap gauge
        e_prev = e_new
        e_path[k + 1] = e_new
        lam_path[k + 1] = dec.eigenvalues[idx]

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
    others = np.delete(lam, i)
    if others.size and norm_b > np.min(np.abs(others - lam[i])):
        raise ValueError("||B|| exceeds the unperturbed spectral gap")
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

    state = [e_i] + [np.zeros_like(e_i) for _ in range(m_max)]
    final = _rk4_system(deriv, state, 0.0, 1.0, g.steps)
    w_total = sum(final)
    vec_eig = np.exp(-1j * eta * lam) * w_total
    vec = v @ vec_eig
    nv = np.linalg.norm(vec)
    if nv == 0:
        raise ConvergenceError("series produced a null vector")
    return AdiabaticSeriesResult(vector=vec / nv, budget=float(budget))

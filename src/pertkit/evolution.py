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
adiabatic evolution with its eigenvalue/eigenvector estimators.  Both
Hermitian time-dependent paths take exactly unitary fourth-order Magnus
steps (Blanes, Casas, Oteo & Ros, 2009), a stack of them from one batched
``eigh``.  The adiabatic path runs block by block, a ramped schedule's ``H``
as one broadcast ``A + f(t) B``; only the O(n^2) state update and the gauge
of the tracked eigenvector run step by step, and each error is raised at the
step it belongs to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .errors import (
    ArgumentError,
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
    """Uniform integration grid: ``steps`` intervals over the caller's interval."""

    steps: int

    def __post_init__(self):
        if self.steps < 8:
            raise ArgumentError("need at least 8 steps")


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

    def _stack(self, ts: np.ndarray, n: int):
        """``H`` at each of ``ts`` up to the first evaluation that raises or
        has the wrong shape, and that exception (``None`` if there is none)."""
        mats, err = [], None
        for t in ts:
            try:
                m = np.asarray(self.evaluator(t), dtype=complex)
                if m.shape != (n, n):
                    raise ShapeError(f"expected H of shape {(n, n)}, got {m.shape}")
            except Exception as exc:
                err = exc
                break
            mats.append(m)
        return np.array(mats, dtype=complex).reshape(-1, n, n), err


class _RampedSchedule(Schedule):
    """``H(t) = A + f(t) B``; a stack is one broadcast of ``f`` at Python floats."""

    def __init__(self, a: np.ndarray, b: np.ndarray, f: Callable[[float], float]):
        super().__init__(evaluator=lambda t: a + f(t) * b)
        self.a, self.b, self.f = a, b, f

    def _stack(self, ts: np.ndarray, n: int):
        fs, err = [], None
        for t in ts.tolist():
            try:
                fs.append(complex(self.f(t)))
            except Exception as exc:
                err = exc
                break
        return self.a + np.array(fs, dtype=complex)[:, None, None] * self.b, err


def ramped_schedule(a, b, ramp: str | Callable[[float], float] = "linear") -> Schedule:
    """Schedule ``H(t) = A + f(t) B`` for a named or callable ramp."""
    a = matcore.require_hermitian(a, what="A")
    b = matcore.require_hermitian(b, what="B")
    return _RampedSchedule(a, b, RAMPS[ramp] if isinstance(ramp, str) else ramp)


#: Largest accepted step estimate of :func:`_magnus`.
_MAX_STEP_ESTIMATE = 1e-4


def _magnus(h0, hm, h1, c):
    """Magnus steps ``U_k = exp(-i G_k)`` of ``i u' = eta H(t) u`` from
    ``(k, n, n)`` stacks of ``H`` at each step's start, midpoint and end, ``c =
    eta h_k``: ``G = c S + i (c^2/12) [S, H1 - H0]``, ``S = (H0 + 4 Hm +
    H1)/6``.  Also returns the estimates ``||G - c Hm||_F``, each step's
    distance from the exponential-midpoint step (NaN for a non-finite ``G``)."""
    c = np.reshape(c, (-1, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        s = (h0 + 4.0 * hm + h1) / 6.0
        d = h1 - h0
        g = c * s + (1j / 12.0) * c**2 * (s @ d - d @ s)
        est = np.linalg.norm(g - c * hm, axis=(1, 2))
    bad = ~np.isfinite(g).all(axis=(1, 2))
    g[bad] = 0.0
    est[bad] = np.nan
    w, v = np.linalg.eigh(g)
    return (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2), est


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
        raise ArgumentError("all arguments must be nonnegative")
    return t**k / math.factorial(k) * norm_b**k * math.exp(t * (norm_a + norm_b))


def _cascade(a, b, t: float, m_max: int) -> np.ndarray:
    """First block column ``[Y_0, ..., Y_{m_max}]`` of ``e^{tL}``.  Powers of
    ``L`` are block lower-triangular Toeplitz, so a column determines its
    matrix and a squaring is the block convolution ``sum_k E_{m-k} E_k``."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
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

    Magnus steps from ``A + B`` at the grid's nodes and midpoints; raises
    :class:`NotHermitianError` at the first non-Hermitian one, and
    :class:`StepSizeError` when a step estimate exceeds its limit.
    """
    if s > t:
        raise ArgumentError("require s <= t")
    a = matcore.require_hermitian(a, what="A")
    eye = np.eye(a.shape[0], dtype=complex)
    if s == t:
        return eye
    h = (t - s) / g.steps
    ts = s + (h / 2) * np.arange(2 * g.steps + 1)
    hs = np.array([a + np.asarray(b_of_t(tt), dtype=complex) for tt in ts])
    for j in np.flatnonzero(~matcore.is_hermitian(hs))[:1]:
        matcore.require_hermitian(hs[j], what=f"A + B({ts[j]:g})")
    steps, est = _magnus(hs[:-1:2], hs[1::2], hs[2::2], h)
    for j in np.flatnonzero(~(est <= _MAX_STEP_ESTIMATE))[:1]:  # a NaN estimate fails too
        raise StepSizeError(f"step estimate {est[j]:.2e} at t={ts[2 * j + 2]:g}; refine the grid")
    u = eye
    for step in steps:
        u = step @ u
    return u


def laplace_resolvent_bridge(a, b, tau: float, t_max: float, g: TimeGrid) -> np.ndarray:
    """Damped time integral ``-i * integral_0^{t_max} e^{it(A+B) - tau t} dt``.

    Converges to ``(A + B + i tau)^{-1}`` with truncation error bounded by
    ``e^{-tau t_max}/tau`` plus quadrature error; Simpson rule on the grid.
    """
    if tau <= 0:
        raise ArgumentError("tau must be positive")
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
_BLOCK = 64


def _nearest_gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each ascending eigenvalue to its nearest neighbour
    (``inf`` for a single level); bit-equal to the minimum over all others."""
    d = np.diff(w, axis=-1, prepend=-np.inf, append=np.inf)
    return np.minimum(d[..., :-1], d[..., 1:])


def _require_gap(gap: float, min_gap: float, t: float) -> None:
    if gap < min_gap:
        raise GapCollapseError(f"spectral gap {gap:.2e} below {min_gap:g} at t={t:g}")


def _integrate_schedule(sched: Schedule, eta: float, i: int, g: TimeGrid, min_gap: float = 1e-3):
    """Shared core: integrate ``i u' = eta H(t) u`` from ``u(0) = e_i(0)``.

    Each step checks, before its state moves: ``H`` at the midpoint, then
    at the end, then the gap at the end node, then the step estimate.
    Returns nodes, the state history at nodes, ``H u`` at nodes, the
    continued eigenvector path (positive-overlap gauge) and eigenvalue path.
    A block of steps is array work, its checks as masks replayed only at the
    first failing step; per step, only ``u = U_k u`` and the gauge run.
    """
    steps = g.steps
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)
    h_end = sched.matrix(0.0)
    dec0 = matcore.eig_hermitian(h_end)
    n = dec0.eigenvalues.size
    if not (0 <= i < n):
        raise ArgumentError("eigenvalue index out of range")
    _require_gap(_nearest_gaps(dec0.eigenvalues)[i], min_gap, 0.0)
    us = np.empty((steps + 1, n), dtype=complex)
    hus = np.empty_like(us)
    e_path = np.empty_like(us)
    lam_path = np.empty(steps + 1)
    us[0] = e_path[0] = u = e_prev = dec0.eigenvectors[:, i].copy()
    hus[0] = h_end @ u
    lam_path[0] = dec0.eigenvalues[i]
    idxs, vecs = [i], dec0.eigenvectors[None]

    for k0 in range(0, steps, _BLOCK):
        ts = nodes[k0:min(k0 + _BLOCK, steps)]
        hks = (ts + h) - ts  # the width of one step on [t, t + h]
        # H at each step's midpoint and end, through a step whose evaluation
        # raises; non-finite and non-Hermitian ones fail the mask and are zeroed
        raw, err = sched._stack(np.column_stack([ts + hks / 2, ts + hks]).ravel(), n)
        hks = hks[:len(raw) // 2 + (err is not None)]
        stack = np.zeros((2 * hks.size, n, n), dtype=complex)
        stack[:len(raw)] = raw
        ok = np.isfinite(stack).all(axis=(1, 2)) & (np.arange(2 * hks.size) < len(raw))
        stack[~ok] = 0.0
        ok &= matcore.is_hermitian(stack)
        ends, v_prev = stack[1::2], vecs[-1:]
        lams, vecs = np.linalg.eigh((ends + ends.conj().swapaxes(1, 2)) / 2.0)
        step_us, est = _magnus(np.concatenate([h_end[None], ends[:-1]]), stack[0::2], ends, eta * hks)
        # the tracked index, chained through the argmax over r of |<v_r(t_k), v_c(t_{k-1})>|
        table = np.abs(vecs.conj().swapaxes(1, 2) @ np.concatenate([v_prev, vecs[:-1]])).argmax(axis=1)
        idxs = list(itertools.accumulate(table.tolist(), lambda c, row: row[c], initial=idxs[-1]))[1:]
        rows = np.arange(hks.size)
        gaps = _nearest_gaps(lams)[rows, idxs]
        bad = ~(ok[0::2] & ok[1::2]) | (gaps < min_gap) | ~(est <= _MAX_STEP_ESTIMATE)
        for j in np.flatnonzero(bad)[:1]:  # the per-step checks, in order: one raises
            for q in (2 * j, 2 * j + 1):
                if q >= len(raw):
                    raise err
                if not ok[q]:
                    matcore.require_hermitian(raw[q])  # raises: non-finite or non-Hermitian
            _require_gap(gaps[j], min_gap, nodes[k0 + j + 1])
            if not est[j] <= _MAX_STEP_ESTIMATE:  # a NaN estimate fails too
                raise StepSizeError(f"step estimate {est[j]:.2e} at t={nodes[k0 + j + 1]:g}; refine the grid")
        cols = vecs[rows, :, idxs]  # contiguous rows: np.vdot of a strided column rounds differently
        for k, step, e_new in zip(range(k0 + 1, steps + 1), step_us, cols):
            u = np.matmul(step, u, out=us[k])
            ov = np.vdot(e_prev, e_new)
            if abs(ov) > 0:
                e_new *= ov.conjugate() / abs(ov)  # positive-overlap gauge
            e_prev = e_new
        block = slice(k0 + 1, k0 + 1 + hks.size)
        e_path[block], lam_path[block] = cols, lams[rows, idxs]
        hus[block] = np.matmul(ends, us[block, :, None])[..., 0]
        h_end = ends[-1]

    return nodes, us, hus, e_path, lam_path


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
        raise ArgumentError("eta must be positive")
    nodes, us, _, e_path, lam_path = _integrate_schedule(sched, eta, i, g)
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
    simplifies to ``<e_i(0), H(t) u(t)> / <e_i(0), u(t)> - lambda_i(0)``, with
    ``H(t)`` as the integration evaluated it; returns its real part on the grid nodes.  Raises
    :class:`TrackingLossError` when the overlap magnitude drops below 1e-6.
    """
    if eta <= 0:
        raise ArgumentError("eta must be positive")
    nodes, us, hus, e_path, lam_path = _integrate_schedule(sched, eta, i, g)
    e0 = e_path[0]
    ovs = us @ e0.conj()
    for k in np.flatnonzero(np.abs(ovs) < 1e-6)[:1]:
        raise TrackingLossError(f"reference overlap {abs(ovs[k]):.2e} lost at t={nodes[k]:g}")
    return (hus @ e0.conj() / ovs).real - lam_path[0]


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
        raise ArgumentError("||B|| exceeds the unperturbed spectral gap")
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

"""Time-domain series and adiabatic evolution.

The simplex integrals of the exponential and Dyson expansions are the terms
of the cascade ``Y_m' = A Y_m + B Y_{m-1}``, ``Y(0) = [I, 0, ..., 0]``: the
first block column of ``e^{tL}``, ``L`` block lower-bidiagonal with ``A`` on
the diagonal and ``B`` below it (Van Loan, 1978), computed exactly as one
``(m_max + 1, n, n)`` array by :func:`matcore.cascade`, the kernel of every
matrix exponential:

* exponential series: ``T_m = Y_m(A, B)``; ``sum_m T_m(t)`` approximates
  ``e^{t(A+B)}``;
* Dyson series: ``G_0 = I``, ``G_m = e^{itA} Y_m(-iA, -iB)``, which solve
  ``G_m' = -i Btilde(t) G_{m-1}`` for ``Btilde(s) = e^{isA} B e^{-isA}``;
  ``sum_m G_m(t)`` approximates ``e^{itA} e^{-it(A+B)}``.

Also here: the Laplace-transform bridge from time evolution to the shifted
inverse, and adiabatic evolution.  A schedule is ``H(t) = A + f(t) B`` with
Hermitian ``A`` and ``B`` and a ramp ``f`` that :data:`RAMPS` names.  The
adiabatic path takes exactly unitary fourth-order Magnus steps (Blanes,
Casas, Oteo & Ros, 2009), a stack of them from one batched ``eigh``.  It
runs block by block, each block's ``H`` one broadcast ``A + f(t) B``; only
the O(n^2) state update and the gauge of the tracked eigenvector run step by
step, and each error is raised at the step it belongs to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .errors import ArgumentError, GapCollapseError, StepSizeError
from .matcore import TimeGrid


RAMPS: dict[str, Callable[[float], float]] = {
    "linear": lambda t: t,
    "smoothstep": lambda t: t * t * (3.0 - 2.0 * t),
    "smootherstep": lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
}

#: Bound, with room, on the ramp values the stepper takes: at most ``1 + 9 *
#: 2**-52``, from the last end node (``1 + 2**-52`` over 2 to 200,000 steps) and
#: ``smootherstep`` near 1.
_RAMP_MAX = 1.0 + 2.0**-40


@dataclass(frozen=True, eq=False)
class Schedule:
    """``H(t) = A + f(t) B`` on [0, 1] for the ramp ``f = RAMPS[ramp]``, as
    :func:`ramped_schedule` checks and builds it."""

    a: np.ndarray
    b: np.ndarray
    ramp: str

    def at(self, ts) -> np.ndarray:
        """``H`` at each of ``ts``, a ``(len(ts), n, n)`` stack: a named ramp
        is a polynomial, so these are the floats of a per-node evaluation."""
        return self.a + RAMPS[self.ramp](np.asarray(ts, dtype=float))[:, None, None] * self.b


def ramped_schedule(a, b, ramp: str = "linear") -> Schedule:
    """Schedule ``H(t) = A + f(t) B`` for Hermitian ``A``, ``B`` and the ramp
    that :data:`RAMPS` names.  Each ``H(t)`` lies entrywise between ``A`` and
    ``A + f B``, ``0 <= f <= _RAMP_MAX``, so a pair whose ``A + _RAMP_MAX B``
    overflows is refused here, with :class:`ArgumentError` as a ramp that is
    not such a name; no ``H(t)`` of an accepted schedule overflows.  The
    schedule holds read-only copies, so its checks hold for its lifetime."""
    a, b = (np.array(m) for m in matcore.as_pair(a, b))
    a.flags.writeable = b.flags.writeable = False
    a = matcore.require_hermitian(a, what="A")
    b = matcore.require_hermitian(b, what="B")
    if not isinstance(ramp, str) or ramp not in RAMPS:
        raise ArgumentError(f"unknown ramp {ramp!r}; known ramps: {', '.join(RAMPS)}")
    with np.errstate(over="ignore"):
        if not np.isfinite(a + _RAMP_MAX * b).all():
            raise ArgumentError("A + B overflows the float range: H(t) = A + f(t) B is not finite on [0, 1]")
    return Schedule(a, b, ramp)


#: Steps per batched eigendecomposition; a bounded block keeps memory flat.
_BLOCK = 64


def _blocks(steps: int) -> list:
    """``(k0, k1)`` step ranges of :data:`_BLOCK` steps each; a lone last step
    joins the block before it, so that every step gets a doubling estimate."""
    return [(k0, k0 + _BLOCK if steps - k0 > _BLOCK + 1 else steps) for k0 in range(0, steps - 1, _BLOCK)]


#: Largest accepted step-doubling estimate of :func:`_doubled_steps`.
_MAX_STEP_ESTIMATE = 1e-4
_RICHARDSON = 15.0  # 2^4 - 1, the Richardson factor of a fourth-order step
_LOG_MAX = math.log(np.finfo(float).max)


def _magnus(h0, hm, h1, c):
    """Magnus steps ``U_k = exp(-i G_k)`` of ``i u' = eta H(t) u`` from
    ``(k, n, n)`` stacks of ``H`` at each step's start, midpoint and end, ``c =
    eta h_k``: ``G = c S + i (c^2/12) [S, H1 - H0]``, ``S = (H0 + 4 Hm +
    H1)/6``; NaN where ``G`` is not finite."""
    c = np.reshape(c, (-1, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        s = (h0 + 4.0 * hm + h1) / 6.0
        d = h1 - h0
        g = c * s + (1j / 12.0) * c**2 * (s @ d - d @ s)
    bad = ~np.isfinite(g).all(axis=(1, 2))
    g[bad] = 0.0
    w, v = np.linalg.eigh(g)
    return np.where(bad[:, None, None], np.nan, (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2))


def _doubled_steps(hn, mids, c):
    """Magnus steps over ``hn[k] -> hn[k + 1]`` (midpoints ``mids``, ``c = eta
    h_k``), one coarse step over each pair ``(2m, 2m + 1)`` from ``hn[2m:2m + 3]``,
    and the estimates: the pair's local error ``||U_2h - U_2m+1 U_2m||_F / 15``
    (Richardson, fourth order) at its second step, 0 at its first.  An odd last
    step pairs with the step before it."""
    k = len(mids)
    first = np.r_[0:k - 1:2, [k - 2] if k % 2 and k > 1 else []].astype(int)
    u = _magnus(np.concatenate([hn[:-1], hn[first]]), np.concatenate([mids, hn[first + 1]]),
                np.concatenate([hn[1:], hn[first + 2]]), np.concatenate([c, c[first] + c[first + 1]]))
    fine, coarse = u[:k], u[k:]
    est = np.zeros(k)
    est[first + 1] = np.linalg.norm(coarse - fine[first + 1] @ fine[first], axis=(1, 2)) / _RICHARDSON
    return fine, coarse, est


def remainder_bound(t: float, norm_a: float, norm_b: float, k: int) -> float:
    """Tail bound ``(t^k / k!) ||B||^k e^{t(||A|| + ||B||)}`` of the cascade,
    taken in logarithms; :class:`ArgumentError` when it overflows a float."""
    if not all(0 <= x < math.inf for x in (t, norm_a, norm_b)):
        raise ArgumentError("t and the norms must be finite and nonnegative")
    matcore.check_order(k, "k")
    if k and t * norm_b == 0:
        return 0.0
    log_bound = (k and k * math.log(t * norm_b)) - math.lgamma(k + 1) + t * (norm_a + norm_b)
    if log_bound >= _LOG_MAX:
        raise ArgumentError(f"remainder bound overflows: e^{log_bound:.4g} at t={t:g}, order {k}")
    return math.exp(log_bound)


def exp_series_terms(a, b, t: float, m_max: int) -> list:
    """Cascade terms whose sum approximates ``e^{t(A+B)}``.

    ``T_m(t)``, the m-fold simplex integral, solves ``T_m' = A T_m + B T_{m-1}``
    with ``T_0 = e^{tA}`` exactly; the defect of ``sum_{m<=m_max} T_m(t)`` is
    bounded by ``remainder_bound(m_max+1)``.
    """
    return list(matcore.cascade(a, b, t, m_max))


def dyson_terms(a, b, t: float, m_max: int, exp_ita=None) -> list:
    """Interaction-picture cascade whose sum approximates ``e^{itA} e^{-it(A+B)}``.

    ``G_m = e^{itA} Y_m(-iA, -iB)`` for ``m >= 1`` and ``G_0 = I`` exactly.  In
    the commuting case the order-m term reduces to ``(-itB)^m / m!``.  A
    caller that already holds ``e^{itA}`` passes it as ``exp_ita``.
    """
    a, b = matcore.as_pair(a, b)
    y = matcore.cascade(-1j * a, -1j * b, t, m_max)
    exp_ita = matcore.expm(1j * t * a) if exp_ita is None else exp_ita
    return [np.eye(a.shape[0], dtype=complex)] + list(exp_ita @ y[1:])


def laplace_resolvent_bridge(a, b, tau: float, t_max: float, g: TimeGrid) -> np.ndarray:
    """Damped time integral ``-i * integral_0^{t_max} e^{it(A+B) - tau t} dt``.

    Converges to ``(A + B + i tau)^{-1}`` with truncation error bounded by
    ``e^{-tau t_max}/tau`` plus quadrature error; Simpson rule on the grid.
    """
    matcore.check_positive(tau, "tau")
    matcore.check_positive(t_max, "t_max")
    a, b = matcore.as_pair(a, b)
    m = a + b
    try:
        dec = matcore.eig_hermitian(m, what="A+B")
    except matcore.NotHermitianError:
        ts, weights = g.simpson(t_max, m.shape[0])
        # on the uniform grid e^{i t_k M} is the k-th power of U = e^{i h M}: one exponential, one product per node
        u = matcore.expm(1j * ts[1] * m)
        power = np.eye(m.shape[0], dtype=complex)
        total = np.zeros_like(m)
        for w_k, t_k in zip(weights, ts):
            total += w_k * math.exp(-tau * t_k) * power
            power = power @ u
        return -1j * total
    # diagonal quadrature per eigenvalue
    diag = -1j * g.damped(t_max, dec.eigenvalues, tau).sum(axis=0)
    return (dec.eigenvectors * diag) @ dec.eigenvectors.conj().T


# ---------------------------------------------------------------------------
# adiabatic evolution


@dataclass
class AdiabaticResult:
    """Final state, accumulated eigenvalue phase, eigenpath error, and the
    final state's own integration error estimate ``|u_N - u_N/2| / 15``."""

    final_state: np.ndarray
    tracked_phase: float
    error_vs_eigenpath: float
    eigenvalue_path: np.ndarray
    final_eigenvector: np.ndarray
    step_doubling_error: float


def _nearest_gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each ascending eigenvalue to its nearest neighbour
    (``inf`` for a single level); bit-equal to the minimum over all others."""
    d = np.diff(w, axis=-1, prepend=-np.inf, append=np.inf)
    return np.minimum(d[..., :-1], d[..., 1:])


def _require_gap(gap: float, t: float) -> None:
    if gap < 1e-3:
        raise GapCollapseError(f"spectral gap {gap:.2e} below 0.001 at t={t:g}")


def _integrate_schedule(sched: Schedule, eta: float, i: int, g: TimeGrid):
    """Core of :func:`adiabatic_evolve`: integrate ``i u' = eta H(t) u`` from ``u(0) = e_i(0)``.

    Each step checks, before its state moves: that ``H`` is Hermitian at the
    midpoint, then at the end, then the gap at the end node (at least 1e-3),
    then the step estimate (:func:`_doubled_steps`).  Returns nodes, the
    final state, the final continued eigenvector (positive-overlap gauge),
    the eigenvalue path and the end of the coarse chain ``u_N/2`` (an odd
    last step its own).  A block of steps is array work, its checks as masks
    replayed only at the first failing step; per step, only ``u = U_k u``
    and the gauge run.  A lone last step joins the block before it.
    """
    dec0 = matcore.eig_hermitian(sched.at([0.0])[0], what="H(0)")
    h_end = dec0.matrix
    n = dec0.eigenvalues.size
    matcore.check_index(i, n)
    _require_gap(_nearest_gaps(dec0.eigenvalues)[i], 0.0)
    # 3 n + 2 entries a node bounds the run's length, and with it the step work; over
    # the grid the core holds only lam_path and nodes
    g.check_size(3 * n + 2)
    steps = g.steps
    h = 1.0 / steps
    nodes = h * np.arange(steps + 1)
    lam_path = np.empty(steps + 1)
    u = e_prev = coarse = dec0.eigenvectors[:, i].copy()
    lam_path[0] = dec0.eigenvalues[i]
    idxs, vecs = [i], dec0.eigenvectors[None]

    for k0, k1 in _blocks(steps):
        ts = nodes[k0:k1]
        hks = (ts + h) - ts  # the width of one step on [t, t + h]
        times = np.column_stack([ts + hks / 2, ts + hks]).ravel()
        stack = sched.at(times)  # H at each step's midpoint and end
        ok = matcore.is_hermitian(stack)
        ends, v_prev = stack[1::2], vecs[-1:]
        lams, vecs = np.linalg.eigh(0.5 * ends + 0.5 * ends.conj().swapaxes(1, 2))
        step_us, pairs, est = _doubled_steps(np.concatenate([h_end[None], ends]), stack[0::2], eta * hks)
        # the tracked index, chained through the argmax over r of |<v_r(t_k), v_c(t_{k-1})>|
        table = np.abs(vecs.conj().swapaxes(1, 2) @ np.concatenate([v_prev, vecs[:-1]])).argmax(axis=1)
        idxs = list(itertools.accumulate(table.tolist(), lambda c, row: row[c], initial=idxs[-1]))[1:]
        rows = np.arange(hks.size)
        gaps = _nearest_gaps(lams)[rows, idxs]
        bad = ~(ok[0::2] & ok[1::2]) | (gaps < 1e-3) | ~(est <= _MAX_STEP_ESTIMATE)
        for j in np.flatnonzero(bad)[:1]:  # the per-step checks, in order: one raises
            for q in (2 * j, 2 * j + 1):
                if not ok[q]:
                    matcore.require_hermitian(stack[q], what=f"H(t={times[q]:g})")  # raises
            _require_gap(gaps[j], nodes[k0 + j + 1])
            if not est[j] <= _MAX_STEP_ESTIMATE:  # a NaN estimate fails too
                raise StepSizeError(f"step estimate {est[j]:.2e} at t={nodes[k0 + j + 1]:g}; refine the grid")
        for step in [*pairs[:hks.size // 2], *step_us[hks.size // 2 * 2:]]:  # and an odd last step
            coarse = step @ coarse
        cols = vecs[rows, :, idxs]  # contiguous rows: np.vdot of a strided column rounds differently
        for step, e_new in zip(step_us, cols):
            u = step @ u
            ov = np.vdot(e_prev, e_new)
            if abs(ov) > 0:
                e_new *= ov.conjugate() / abs(ov)  # positive-overlap gauge
            e_prev = e_new
        lam_path[k0 + 1:k0 + 1 + hks.size] = lams[rows, idxs]
        h_end = ends[-1]

    return nodes, u, e_prev, lam_path, coarse


def _integral_on_nodes(values: np.ndarray, h: float) -> float:
    return float(np.sum(matcore.node_weights(values.size - 1, h) * values))


def adiabatic_evolve(sched: Schedule, eta: float, i: int, g: TimeGrid) -> AdiabaticResult:
    """Solve ``i u' = eta H(t) u`` on [0,1] and compare with the eigenpath.

    The tracked eigenvector ``e_i(t)`` is continued by maximal overlap with
    positive-overlap gauge, the phase is ``phi_i(1) = integral of
    lambda_i``, and the reported error is
    ``||u(1) - e_i(1) e^{-i eta phi_i(1)}||``, which decays like 1/eta for a
    C^1 schedule with a uniform spectral gap.
    """
    matcore.check_positive(eta, "eta")
    nodes, u_final, e_final, lam_path, coarse = _integrate_schedule(sched, eta, i, g)
    phi = _integral_on_nodes(lam_path, nodes[1] - nodes[0])
    reference = e_final * np.exp(-1j * eta * phi)
    err = float(np.linalg.norm(u_final - reference))
    return AdiabaticResult(
        final_state=u_final,
        tracked_phase=phi,
        error_vs_eigenpath=err,
        eigenvalue_path=lam_path,
        final_eigenvector=e_final,
        step_doubling_error=float(np.linalg.norm(u_final - coarse)) / _RICHARDSON,
    )

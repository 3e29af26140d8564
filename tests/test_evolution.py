import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import reference
from ensembles import random_hermitian
from pertkit import evolution, matcore, scattering
from pertkit.errors import ArgumentError, GapCollapseError, NotHermitianError, StepSizeError


def scaled_pair(n, na, nb, seed):
    a = random_hermitian(n, 1.0, seed)
    a *= na / matcore.op_norm(a)
    b = random_hermitian(n, 1.0, seed + 1000)
    b *= nb / matcore.op_norm(b)
    return a, b


class TestRemainderBound:
    def test_order_zero(self):
        assert evolution.remainder_bound(1.2, 0.7, 0.4, 0) == pytest.approx(math.exp(1.2 * 1.1))

    def test_zero_time(self):
        assert evolution.remainder_bound(0.0, 1.0, 1.0, 3) == 0.0

    def test_explicit_value(self):
        # direct arithmetic: 0.5^4/4! * e^{1.5}
        expected = 0.5**4 / 24.0 * math.exp(1.5)
        assert evolution.remainder_bound(1.0, 1.0, 0.5, 4) == pytest.approx(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            evolution.remainder_bound(-1.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_a_time_that_is_not_finite_and_nonnegative_raises_an_argument_error(self, t):
        a, b = np.diag([0.0, 1.0]), 0.1 * np.ones((2, 2))
        for call in (lambda: evolution.remainder_bound(t, 1.0, 1.0, 2),
                     lambda: evolution.exp_series_terms(a, b, t, 2),
                     lambda: evolution.dyson_terms(a, b, t, 2)):
            with pytest.raises(ArgumentError, match="^t "):
                call()

    def test_a_bound_past_a_float_factorial_is_finite(self):
        # 100^200 and 200! each overflow a float; the bound 100^200 / 200! * e^100, about 3.4e68, does not
        exact = float(Fraction(100**200, math.factorial(200))) * math.exp(100.0)
        assert evolution.remainder_bound(100.0, 0.0, 1.0, 200) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t, norm_a, norm_b, k", [(1.0, 1.0, 0.5, 4), (0.3, 2.0, 0.1, 1), (2.5, 0.7, 1.3, 9),
                                                      (10.0, 3.0, 2.0, 30), (0.01, 0.0, 1e-3, 20)])
    def test_the_logarithmic_form_is_within_rounding_of_the_exact_bound(self, t, norm_a, norm_b, k):
        # (t ||B||)^k / k! in exact rationals; the exponential carries the rounding of the logarithms it sums
        exact = float(Fraction(t * norm_b) ** k / math.factorial(k)) * math.exp(t * (norm_a + norm_b))
        logs = abs(k * math.log(t * norm_b)) + math.lgamma(k + 1) + t * (norm_a + norm_b)
        got = evolution.remainder_bound(t, norm_a, norm_b, k)
        assert abs(got - exact) <= 4 * (1 + logs) * np.finfo(float).eps * exact

    @pytest.mark.parametrize("norms", [(math.nan, 1.0), (1.0, math.inf), (1.0, -1.0)])
    def test_a_norm_that_is_not_finite_and_nonnegative_raises_an_argument_error(self, norms):
        with pytest.raises(ArgumentError, match="^t and the norms must be finite and nonnegative$"):
            evolution.remainder_bound(1.0, *norms, 2)


class TestExpSeries:
    def test_zero_perturbation(self, rng):
        a, _ = scaled_pair(4, 0.8, 0.0, 2)
        terms = evolution.exp_series_terms(a, np.zeros((4, 4)), 1.0, 3)
        assert matcore.op_norm(terms[0] - scipy.linalg.expm(a)) <= 1e-10
        for t in terms[1:]:
            assert matcore.op_norm(t) <= 1e-12

    def test_commuting_first_order(self):
        a = np.diag([0.2, -0.4]).astype(complex)
        beta = 0.3
        b = beta * np.eye(2, dtype=complex)
        terms = evolution.exp_series_terms(a, b, 1.5, 1)
        # oracle: T1(t) = t*beta*e^{tA} when B is a multiple of the identity
        expected = 1.5 * beta * scipy.linalg.expm(1.5 * a)
        assert matcore.op_norm(terms[1] - expected) <= 1e-9

    def test_defect_within_budget(self):
        a, b = scaled_pair(6, 0.8, 0.4, 5)
        t = 1.0
        terms = evolution.exp_series_terms(a, b, t, 8)
        exact = scipy.linalg.expm(t * (a + b))
        na, nb = matcore.op_norm(a), matcore.op_norm(b)
        defect = matcore.op_norm(sum(terms) - exact)
        assert defect <= evolution.remainder_bound(t, na, nb, 9) + 1e-8

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolution.exp_series_terms(np.eye(2), np.eye(2), -1.0, 2)


class TestDysonSeries:
    def test_zero_perturbation(self):
        a, _ = scaled_pair(4, 0.8, 0.0, 7)
        terms = evolution.dyson_terms(a, np.zeros((4, 4)), 0.7, 3)
        np.testing.assert_allclose(terms[0], np.eye(4))
        for t in terms[1:]:
            assert matcore.op_norm(t) <= 1e-12

    def test_commuting_closed_form(self, rng):
        a = np.diag(rng.uniform(-1, 1, 5)).astype(complex)
        b = np.diag(rng.uniform(-0.4, 0.4, 5)).astype(complex)
        t = 0.9
        terms = evolution.dyson_terms(a, b, t, 6)
        for m, term in enumerate(terms):
            closed = np.linalg.matrix_power(-1j * t * b, m) / math.factorial(m)
            assert matcore.op_norm(term - closed) <= 1e-9

    def test_defect_within_budget(self):
        a, b = scaled_pair(6, 0.9, 0.35, 9)
        t = 0.8
        terms = evolution.dyson_terms(a, b, t, 10)
        exact = scipy.linalg.expm(1j * t * a) @ scipy.linalg.expm(-1j * t * (a + b))
        na, nb = matcore.op_norm(a), matcore.op_norm(b)
        defect = matcore.op_norm(sum(terms) - exact)
        assert defect <= evolution.remainder_bound(t, na, nb, 11) + 1e-8


class TestLaplaceBridge:
    def test_scalar(self):
        # -i * integral of e^{-tau t} for a 1x1 zero matrix
        tau, t_max = 0.8, 30.0
        val = evolution.laplace_resolvent_bridge(
            np.zeros((1, 1)), np.zeros((1, 1)), tau, t_max, evolution.TimeGrid(3000)
        )
        expected = -1j * (1.0 - math.exp(-tau * t_max)) / tau
        assert abs(val[0, 0] - expected) <= 1e-10
        assert abs(val[0, 0] - (-1j / tau)) <= 2 * math.exp(-tau * t_max) / tau + 1e-10

    def test_diagonal_entrywise(self):
        lam = np.array([0.3, -0.7, 1.1])
        tau, t_max = 0.6, 40.0
        val = evolution.laplace_resolvent_bridge(
            np.diag(lam), np.zeros((3, 3)), tau, t_max, evolution.TimeGrid(4000)
        )
        expected = np.diag(1.0 / (lam + 1j * tau))
        assert matcore.op_norm(val - expected) <= 2 * math.exp(-tau * t_max) / tau + 1e-8

    def test_random_matches_inverse(self):
        a, b = scaled_pair(5, 0.5, 0.15, 15)
        tau, t_max = 0.5, 40.0
        val = evolution.laplace_resolvent_bridge(a, b, tau, t_max, evolution.TimeGrid(2400))
        exact = matcore.inverse(a + b + 1j * tau * np.eye(5))
        assert matcore.op_norm(val - exact) <= 1e-6

    def test_exponential_tail_decay(self):
        a, b = scaled_pair(5, 0.5, 0.15, 16)
        tau = 0.5
        exact = matcore.inverse(a + b + 1j * tau * np.eye(5))
        tmaxs = [10, 14, 18, 22, 26, 30]
        defects = [
            matcore.op_norm(
                evolution.laplace_resolvent_bridge(a, b, tau, T, evolution.TimeGrid(60 * T)) - exact
            )
            for T in tmaxs
        ]
        slope = np.polyfit(tmaxs, np.log(defects), 1)[0]
        assert abs(slope + tau) <= 0.1 * tau

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            evolution.laplace_resolvent_bridge(np.eye(2), np.eye(2), 0.0, 10.0, evolution.TimeGrid(100))

    @pytest.mark.parametrize("diagonal", [False, True], ids=["dense-a", "diagonal-a"])
    @pytest.mark.parametrize("steps", [8, 9, 600, 601])
    def test_bit_equal_to_the_inline_simpson_grid(self, steps, diagonal):
        # an odd count is rounded up to even, as the inline prologue did; a Hermitian A + B is decomposed
        # by the one eig_hermitian call that also decides it Hermitian
        a, b = scaled_pair(5, 0.5, 0.15, 15)
        if diagonal:
            a = np.diag(np.diag(a).real)
        got = evolution.laplace_resolvent_bridge(a, b, 0.5, 20.0, evolution.TimeGrid(steps))
        assert got.tobytes() == reference.laplace_bridge_ref(a, b, 0.5, 20.0, steps).tobytes()

    @staticmethod
    def non_normal(name):
        if name == "2x2":
            return np.array([[1.0, 5.0], [0.0, 2.0]]), 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        rng = np.random.default_rng(8)
        a = np.diag(rng.uniform(1.0, 3.0, 8)) + np.triu(rng.standard_normal((8, 8)), 1)
        return a, 0.3 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(8)

    @pytest.mark.parametrize("steps", [2000, 4001])
    @pytest.mark.parametrize("name", ["2x2", "8x8"])
    def test_non_hermitian_powers_are_within_rounding_of_one_exponential_per_node(self, name, steps):
        # e^{i t_k M} as the k-th power of e^{i h M}: each product adds a rounding, so the error is held to
        # steps * eps * sum_k w_k e^{-tau t_k} ||e^{i t_k M}||; at tau 0.5, t_max 40 and 2,000 to 20,000 steps it
        # measured at most 0.033 of that (8x8, whose ||e^{i t M}|| reaches 1e9) and 0.002 on the 2x2
        a, b = self.non_normal(name)
        got = evolution.laplace_resolvent_bridge(a, b, 0.5, 40.0, evolution.TimeGrid(steps))
        want, scale = reference.laplace_bridge_per_node_ref(a, b, 0.5, 40.0, steps)
        assert np.abs(got - want).max() <= (steps + steps % 2) * np.finfo(float).eps * scale

    def test_a_non_hermitian_sum_takes_one_exponential(self, monkeypatch):
        a, b = self.non_normal("2x2")
        calls = []
        original = matcore.expm
        monkeypatch.setattr(matcore, "expm", lambda m: calls.append(m) or original(m))
        evolution.laplace_resolvent_bridge(a, b, 0.5, 40.0, evolution.TimeGrid(600))
        assert len(calls) == 1


@pytest.mark.parametrize("intervals", [0, 1, 2, 7, 8, 239, 240])
def test_the_node_integral_is_bit_equal_to_inline_weights(intervals):
    # Simpson on an even count, the trapezoid rule on an odd one
    values = np.sin(np.arange(intervals + 1.0)) + 2.0
    h = 1.0 / max(intervals, 1)
    assert evolution._integral_on_nodes(values, h) == reference.integral_on_nodes_ref(values, h)


def two_level_schedule(coupling, ramp):
    a = np.diag([0.0, 1.0]).astype(complex)
    b = coupling * np.array([[0, 1], [1, 0]], dtype=complex)
    return evolution.ramped_schedule(a, b, ramp)


def _h(sched, t):
    """``H(t) = A + f(t) B`` at one float ``t``, as the per-node reference evaluates it."""
    return sched.a + evolution.RAMPS[sched.ramp](t) * sched.b


#: eta of the runs through an overflowing level of :func:`_bad_pair`: its phases ``eta h H``
#: stay below 1e-7, so no step estimate fails before the overflow
TINY_ETA = 1e-160


def _bad_pair(steps, gap_at=None, side=1, hermitian_to=None, overflow_at=None):
    """``A`` and ``B`` of a ``linear`` schedule on ``steps`` steps with a level 0 to
    track (index 1 for ``side`` -1, else 0), and a level for each fault asked for:

    * ``gap_at``: ``side * (5e-4 + gap_at / steps - t)``, 5e-4 from level 0 at that end
      node and at least ``1 / steps`` from it at every node before;
    * ``hermitian_to``: ``M (1 - t) + t``, ``M = 1e6``, coupled to level 0 by ``(1 + t) K``,
      ``K`` anti-Hermitian.  ``A`` and ``B`` are each Hermitian to 1e-10, but ``H(t)``'s
      defect ``2 (1 + t) ||K||`` passes 1e-10 of its norm ``M (1 - t) + t`` a quarter step
      before ``hermitian_to / steps``: first at that end node, or midpoint for a half;
    * ``overflow_at``: ``M (1 + t)``, ``M`` about 1e155, whose term ``S (H1 - H0)`` first
      overflows in the coarse step of the pair with middle node ``overflow_at - 1``, so
      that pair's estimate is NaN.
    """
    levels, coupled = [(0.0, 0.0)], None
    if gap_at is not None:
        levels.append((side * (5e-4 + gap_at / steps), -side))
    if hermitian_to is not None:
        f, m = (hermitian_to - 0.25) / steps, 1e6
        coupled = len(levels), 1e-10 * (m * (1.0 - f) + f) / (2.0 * (1.0 + f))
        levels.append((m, 1.0 - m))
    if overflow_at is not None:
        m = math.sqrt(np.finfo(float).max) / math.sqrt(2.0 / steps * (1.0 + (overflow_at - 1.5) / steps))
        levels.append((m, m))
    a, b = (np.diag(x).astype(complex) for x in zip(*levels))
    if coupled:
        j, k = coupled
        for m in (a, b):
            m[0, j], m[j, 0] = k, -k
    return a, b


class TestAdiabaticEvolve:
    def test_constant_hamiltonian(self):
        sched = evolution.ramped_schedule(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        res = evolution.adiabatic_evolve(sched, 60.0, 0, evolution.TimeGrid(3000))
        assert res.error_vs_eigenpath <= 1e-8
        assert abs(np.linalg.norm(res.final_state) - 1.0) <= 1e-8

    def test_consecutive_eta_ratios(self):
        sched = two_level_schedule(0.2, "smootherstep")
        errs = []
        for eta in (50.0, 100.0, 200.0):
            res = evolution.adiabatic_evolve(sched, eta, 0, evolution.TimeGrid(int(48 * eta)))
            errs.append(res.error_vs_eigenpath)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 <= coarse / fine <= 2.5

    def test_grid_doubling_stability(self):
        sched = two_level_schedule(0.2, "smoothstep")
        r1 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(4800))
        r2 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(9600))
        assert abs(r1.error_vs_eigenpath - r2.error_vs_eigenpath) <= 0.05 * r2.error_vs_eigenpath

    def test_gap_collapse_detection(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = np.diag([1.0, -1.0]).astype(complex)  # levels cross at t = 0.5
        sched = evolution.ramped_schedule(a, b, "linear")
        with pytest.raises(GapCollapseError):
            evolution.adiabatic_evolve(sched, 50.0, 0, evolution.TimeGrid(500))

    def test_step_size_guard(self):
        sched = two_level_schedule(0.2, "smoothstep")
        with pytest.raises(StepSizeError):
            evolution.adiabatic_evolve(sched, 5000.0, 0, evolution.TimeGrid(16))


class TestGridMemory:
    """Each grid integrator peaks within what its cap counts: 1.5 times
    ``(steps + 1) * per_node`` complex entries, plus 1 MiB for the operands and
    the per-block work.  The adiabatic core's count bounds its run length: over
    the grid it holds only the eigenvalue path and the nodes."""

    @staticmethod
    def _cases():
        a4, b4 = random_hermitian(4, 1.0, 40), random_hermitian(4, 0.1, 41)
        a8, b8 = random_hermitian(8, 1.0, 80), random_hermitian(8, 0.1, 81)
        q = scattering.ScatteringQuery(1, 3, 0.3)
        return {  # name: (steps, entries per node, the call on a grid)
            "bridge-hermitian": (100000, 8, lambda g: evolution.laplace_resolvent_bridge(a8, b8, 0.5, 40.0, g)),
            "bridge-general": (4000, 8, lambda g: evolution.laplace_resolvent_bridge(np.triu(a8), b8, 0.5, 40.0, g)),
            "time-average": (100000, 8, lambda g: scattering.s_entry_time_average(a8, b8, q, 40.0, g)),
            "adiabatic": (4000, 3 * 4 + 2, lambda g: evolution.adiabatic_evolve(
                evolution.ramped_schedule(a4, b4), 10.0, 0, g)),
        }

    @pytest.mark.parametrize("name", ["bridge-hermitian", "bridge-general", "time-average", "adiabatic"])
    def test_the_peak_is_within_the_counted_entries(self, name):
        steps, per_node, run = self._cases()[name]
        tracemalloc.start()
        try:
            run(evolution.TimeGrid(steps))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (steps + 1) * per_node * 16 + 2**20


class TestGridValidation:
    def test_timegrid_minimum_steps(self):
        with pytest.raises(ValueError):
            evolution.TimeGrid(4)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_schedule_hermiticity_checked(self, which):
        pair = {"A": np.diag([0.0, 1.0]), "B": np.zeros((2, 2)), which: np.array([[0.0, 1.0], [0.0, 0.0]])}
        with pytest.raises(NotHermitianError, match=f"^{which} is not Hermitian"):
            evolution.ramped_schedule(pair["A"], pair["B"])

    @pytest.mark.parametrize("ramp", [lambda t: t, evolution.RAMPS["linear"], b"linear", 1.0, {"linear"}],
                             ids=["callable", "a-named-ramps-function", "bytes", "float", "unhashable"])
    def test_a_ramp_that_is_not_a_name_is_refused(self, ramp):
        # a ramp is its RAMPS name: a callable, even a named ramp's own function, is refused
        # at set-up, and an unhashable one never reaches the lookup
        with pytest.raises(ArgumentError, match="^unknown ramp "):
            evolution.ramped_schedule(np.diag([0.0, 1.0]), np.zeros((2, 2)), ramp)

    @pytest.mark.parametrize("ramp", list(evolution.RAMPS))
    @pytest.mark.parametrize("node", [1, evolution._BLOCK + 1, 2 * evolution._BLOCK],
                             ids=["first-step", "later-block", "last-node"])
    def test_a_pair_that_overflows_from_a_later_node_on_is_refused_at_set_up(self, node, ramp):
        # H(t) is finite up to node - 1 and overflows from that node on; the pair is refused
        # before any step, wherever that node falls
        steps, big, f = 2 * evolution._BLOCK, np.finfo(float).max, evolution.RAMPS[ramp]
        mid = (f((node - 1) / steps) + f(node / steps)) / 2.0
        a, b = np.diag([0.0, big * (1.0 - mid / 2.0)]), np.diag([0.0, big / 2.0])
        with np.errstate(over="ignore"):
            assert np.isfinite(a + f((node - 1) / steps) * b).all() and not np.isfinite(a + f(node / steps) * b).all()
        with pytest.raises(ArgumentError, match="^A \\+ B overflows the float range"):
            evolution.ramped_schedule(a, b, ramp)

    def test_the_schedule_holds_its_checked_operands(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        sched = evolution.ramped_schedule(a, np.zeros((2, 2)))
        a[1, 1] = np.inf
        assert np.isfinite(sched.a).all() and not sched.a.flags.writeable and not sched.b.flags.writeable

    def test_the_margin_covers_every_ramp_value_at_a_node(self):
        # the set-up overflow check holds for ramp values up to _RAMP_MAX: the last end node
        # over 2 to 2,000 steps, and each ramp near 1, reach at most 1 + 9 * 2^-52
        steps = np.arange(2, 2001, dtype=float)
        ts = (1.0 / steps) * (steps - 1)
        near_one = np.concatenate([ts + ((ts + 1.0 / steps) - ts), 1.0 - np.linspace(0.0, 1e-6, 100001)])
        for f in evolution.RAMPS.values():
            assert 0.0 <= f(near_one).min() and f(near_one).max() <= 1.0 + 9 * 2.0**-52 < evolution._RAMP_MAX


# ---------------------------------------------------------------------------
# the exact cascades against the block-exponential oracle and list-state RK4


def _ref_pair(n, seed, hermitian_a=True):
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, 1.0, seed) + np.diag(np.arange(n, dtype=float))
    if not hermitian_a:
        a = a + 0.3j * np.diag(rng.standard_normal(n))
    b = random_hermitian(n, 0.4, seed + 1)
    return a.astype(complex), b.astype(complex)


#: List-state RK4 steps of the coarser reference run; the finer one takes twice
#: as many.
RK4_STEPS = 60


def _relative_gaps(got, ref):
    """Per-term ``||got_m - ref_m||_F / ||ref_m||_F``; a zero reference term
    must be matched exactly."""
    assert len(got) == len(ref)
    return [np.linalg.norm(x - y) / np.linalg.norm(y) if np.any(y) else float(np.any(x)) for x, y in zip(got, ref)]


class TestCascadeOracles:
    CASES = list(itertools.product((1, 2, 3, 8), (0, 1, 6), (True, False)))  # n, m_max, hermitian_a

    @pytest.mark.parametrize("n,m_max,hermitian_a", CASES)
    @pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
    def test_exp_series_terms_match_van_loan(self, n, m_max, hermitian_a, t):
        a, b = _ref_pair(n, 10 * n + m_max, hermitian_a)
        got = evolution.exp_series_terms(a, b, t, m_max)
        assert max(_relative_gaps(got, reference.van_loan_terms(a, b, t, m_max))) <= 1e-12

    @pytest.mark.parametrize("n,m_max,hermitian_a", CASES)
    @pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
    def test_dyson_terms_match_van_loan(self, n, m_max, hermitian_a, t):
        a, b = _ref_pair(n, 20 * n + m_max, hermitian_a)
        got = evolution.dyson_terms(a, b, t, m_max)
        np.testing.assert_array_equal(got[0], np.eye(n))
        assert max(_relative_gaps(got, reference.van_loan_dyson_terms(a, b, t, m_max))) <= 1e-12

    @pytest.mark.parametrize("n,m_max,hermitian_a", CASES)
    @pytest.mark.parametrize("t", [0.7, 3.0])
    @pytest.mark.parametrize("exact,rk4", [(evolution.exp_series_terms, reference.exp_series_terms_ref),
                                           (evolution.dyson_terms, reference.dyson_terms_ref)])
    def test_within_rk4_step_halving(self, n, m_max, hermitian_a, t, exact, rk4):
        """The exact terms lie within the list-state RK4's own step-halving
        difference of its finer run, plus a 1e-13 relative floor."""
        a, b = _ref_pair(n, 30 * n + m_max, hermitian_a)
        coarse, fine = rk4(a, b, t, m_max, RK4_STEPS), rk4(a, b, t, m_max, 2 * RK4_STEPS)
        for x, c, f in zip(exact(a, b, t, m_max), coarse, fine):
            assert np.linalg.norm(x - f) <= np.linalg.norm(c - f) + 1e-13 * np.linalg.norm(f)


# ---------------------------------------------------------------------------
# the Magnus stepper against RK4 at 8x the steps and the per-node reference


#: One step count below a block, and full blocks with and without a partial
#: last block.
MAGNUS_STEPS = (24, 96, 100, 2 * evolution._BLOCK, 250)


def _ramp_instance(n, steps, ramp):
    a = np.diag(np.arange(n, dtype=float) / n).astype(complex)
    b = random_hermitian(n, 0.05, 50 * n + steps).astype(complex)
    return evolution.ramped_schedule(a, b, ramp), (n - 1) // 2


class TestMagnusSteppers:
    """Final states within 1e-7 of the list-state RK4 at 8x the steps (itself
    within 3e-10 of RK4 at 64x the steps on these instances), and the guards
    of the Magnus path."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("steps", MAGNUS_STEPS)
    @pytest.mark.parametrize("ramp", ["linear", "smoothstep"])
    def test_adiabatic_evolve(self, n, steps, ramp):
        sched, i = _ramp_instance(n, steps, ramp)
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        u0 = matcore.eig_hermitian(sched.a).eigenvectors[:, i]
        ref = reference.schrodinger_rk4(lambda t: 3.0 * _h(sched, t), u0, 0.0, 1.0, 8 * steps)
        assert np.linalg.norm(res.final_state - ref) <= 1e-7

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("steps", MAGNUS_STEPS)
    def test_adiabatic_evolve_matches_the_per_node_reference(self, n, steps):
        sched, i = _ramp_instance(n, steps, "smoothstep")
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        nodes, us, e_path, lam_path, coarse = reference.integrate_schedule_ref(sched, 3.0, i, steps)
        assert np.linalg.norm(res.final_state - us[-1]) <= 1e-13
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])
        assert res.tracked_phase == evolution._integral_on_nodes(lam_path, nodes[1] - nodes[0])

    def test_a_bad_midpoint_alone_raises(self):
        # every node up to t = 40/80 is good, the midpoint after it is not; the block
        # core guards the midpoints as well
        sched = evolution.ramped_schedule(*_bad_pair(80, hermitian_to=40.5))
        with pytest.raises(NotHermitianError, match="^H\\(t=0.50625\\) is not Hermitian"):
            evolution.adiabatic_evolve(sched, 2.0, 0, evolution.TimeGrid(80))


def _pair_on(sched, eta, t0, h):
    """:func:`evolution._doubled_steps` of the pair of steps ``h`` from ``t0``."""
    hn = np.array([_h(sched, t0 + k * h) for k in range(3)])
    mids = np.array([_h(sched, t0 + k * h) for k in (0.5, 1.5)])
    return evolution._doubled_steps(hn, mids, eta * np.array([h, h]))


class TestStepDoubling:
    """The step-doubling estimate ``||U_2h - U_1 U_0||_F / 15`` of a pair of
    fourth-order Magnus steps, and the coarse chain behind the CLI's
    ``adiabatic_step_doubling`` row."""

    CASES = list(itertools.product(range(2, 9), ("linear", "smoothstep")))

    @pytest.mark.parametrize("n, ramp", CASES)
    def test_grows_like_h_to_the_fifth(self, n, ramp):
        sched = evolution.ramped_schedule(random_hermitian(n, 1.0, n), random_hermitian(n, 1.0, 100 + n), ramp)
        est = [_pair_on(sched, 10.0, 0.3, h)[2] for h in (0.01, 0.005)]
        assert est[0][0] == est[1][0] == 0.0  # the first step of a pair has none
        assert 24.0 <= est[0][1] / est[1][1] <= 40.0  # 2^5 = 32

    @pytest.mark.parametrize("n, ramp", CASES)
    def test_within_a_factor_1_5_of_the_local_error(self, n, ramp):
        # the true local error of the pair, against 64 RK4 steps over it
        a, b = random_hermitian(n, 1.0, n), random_hermitian(n, 1.0, 100 + n)
        f = evolution.RAMPS[ramp]
        for h in (0.01, 0.005):
            fine, _, est = _pair_on(evolution.ramped_schedule(a, b, ramp), 10.0, 0.3, h)
            ref = reference.schrodinger_rk4(lambda t: 10.0 * (a + f(t) * b), np.eye(n, dtype=complex), 0.3, 0.3 + 2 * h,
                                            64)
            assert 1 / 1.5 <= est[1] / np.linalg.norm(fine[1] @ fine[0] - ref) <= 1.5

    def test_an_odd_last_step_pairs_with_the_step_before_it(self):
        sched = evolution.ramped_schedule(random_hermitian(3, 1.0, 3), random_hermitian(3, 1.0, 103), "smoothstep")
        hn = sched.at(0.1 * np.arange(4))
        mids = sched.at(0.1 * np.arange(3) + 0.05)
        fine, coarse, est = evolution._doubled_steps(hn, mids, np.full(3, 0.1))
        assert len(coarse) == 2 and est[0] == 0.0 and est[1] > 0
        _, _, last = evolution._doubled_steps(hn[1:], mids[1:], np.full(2, 0.1))
        assert est[2] == pytest.approx(last[1], rel=1e-12)

    @pytest.mark.parametrize("steps", [24, 2 * evolution._BLOCK, evolution._BLOCK + 1, 2 * evolution._BLOCK + 1, 187])
    def test_the_reference_applies_the_same_pair_rule(self, steps):
        # the coarse chains agree, odd step counts and a lone step after a full block included
        sched, i = _ramp_instance(4, steps, "smoothstep")
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        nodes, us, _, _, coarse = reference.integrate_schedule_ref(sched, 3.0, i, steps)
        assert abs(res.step_doubling_error - np.linalg.norm(us[-1] - coarse) / 15.0) <= 1e-14
        assert 0 < res.step_doubling_error <= 1e-6

    @pytest.mark.parametrize("steps", [96, 97, evolution._BLOCK + 1])
    def test_a_bad_last_pair_is_refused_at_the_last_step(self, steps):
        # only the pair that ends at t = 1 overflows; an odd last step is that pair's second step
        kind, message = TestErrorOrder._both(_bad_pair(steps, overflow_at=steps), TINY_ETA, 0, steps)
        assert kind is StepSizeError and message.endswith("at t=1; refine the grid")

    def test_the_richardson_estimate_tracks_the_final_state_error(self):
        sched, i = _ramp_instance(8, 200, "linear")
        res = evolution.adiabatic_evolve(sched, 20.0, i, evolution.TimeGrid(200))
        ref = evolution.adiabatic_evolve(sched, 20.0, i, evolution.TimeGrid(1600))
        true = np.linalg.norm(res.final_state - ref.final_state)
        assert 1 / 1.5 <= res.step_doubling_error / true <= 1.5


#: Derivatives of the named ramps.
RAMP_SLOPES = {
    "linear": lambda t: np.ones_like(t),
    "smoothstep": lambda t: 6.0 * t * (1.0 - t),
    "smootherstep": lambda t: 30.0 * t**2 * (1.0 - t) ** 2,
}


def _leading_coefficient_band(a, b, ramp, i, nodes=2001):
    """Bounds of ``lim eta * error_vs_eigenpath`` for ``H = A + f(t) B``:
    ``sqrt(Phi^2 + sum_j (|b_j(1)| -+ |b_j(0)|)^2)`` with ``Phi = integral of
    <H' e_i, S_i^3 H' e_i>`` and ``b = S_i^2 H' e_i``, ``S_i`` the reduced
    resolvent, from numpy ``eigh`` on a Simpson grid."""
    ts = np.linspace(0.0, 1.0, nodes)
    f = evolution.RAMPS[ramp]
    w, v = np.linalg.eigh(np.array([a + f(t) * b for t in ts]))
    slope = RAMP_SLOPES[ramp](ts)[:, None]
    others = np.arange(w.shape[1]) != i
    d = (w - w[:, i:i + 1])[:, others]
    coupling = slope * np.abs(np.einsum("kji,jl,kl->ki", v.conj(), b, v[:, :, i]))[:, others]
    phi = float(matcore.simpson_weights(nodes - 1, ts[1]) @ np.sum(coupling**2 / d**3, axis=1))
    ends = coupling / d**2
    lo, hi = np.abs(ends[-1]) - np.abs(ends[0]), np.abs(ends[-1]) + np.abs(ends[0])
    return math.hypot(phi, np.linalg.norm(lo)), math.hypot(phi, np.linalg.norm(hi))


class TestLeadingCoefficient:
    """``eta * error_vs_eigenpath`` on criterion 09's instance tends to the
    coefficient adiabatic perturbation theory predicts, within 0.5/eta."""

    @pytest.mark.parametrize("ramp, want", [("linear", (0.0534, 0.3618)), ("smoothstep", (0.04275, 0.04275)),
                                            ("smootherstep", (0.05095, 0.05095))])
    def test_band(self, ramp, want):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.2 * np.array([[0, 1], [1, 0]], dtype=complex)
        band = _leading_coefficient_band(a, b, ramp, 0)
        np.testing.assert_allclose(band, want, atol=5e-5)
        for eta in (200.0, 400.0):
            res = evolution.adiabatic_evolve(evolution.ramped_schedule(a, b, ramp), eta, 0,
                                             evolution.TimeGrid(int(48 * eta)))
            assert band[0] - 0.5 / eta <= eta * res.error_vs_eigenpath <= band[1] + 0.5 / eta


class TestReferenceSteppers:
    def test_overflowing_step_fails_the_step_estimate(self):
        # eta H overflows to inf: the step estimate is NaN, and a NaN estimate
        # must read as a failure, not as a small error
        sched = evolution.ramped_schedule(np.diag([0.0, 1e300]), np.zeros((2, 2)))
        with pytest.raises(StepSizeError, match="estimate nan"):
            evolution.adiabatic_evolve(sched, 1e10, 1, evolution.TimeGrid(8))

    def test_evaluates_h_at_the_reference_times(self, monkeypatch):
        # t + ((t + h) - t) / 2 differs from t + h / 2 in the last bit at
        # about a quarter of the steps of this grid
        calls = []
        monkeypatch.setitem(evolution.RAMPS, "linear", lambda t: calls.extend(np.ravel(t).tolist()) or t)
        sched = evolution.ramped_schedule(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
        evolution.adiabatic_evolve(sched, 2.0, 0, evolution.TimeGrid(1000))
        core, calls[:] = calls[:], []
        reference.integrate_schedule_ref(sched, 2.0, 0, 1000)
        assert len(core) == 2001 and core == calls


def _outcome(fn):
    """``(type, message)`` of the error ``fn`` raises, or ``None``."""
    try:
        fn()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return None


class TestErrorOrder:
    """Errors come at the step the per-node reference raises them, with the
    same type and message, wherever they fall in a block."""

    @staticmethod
    def _both(pair, eta, i, steps):
        """The outcome of the stepper and of the reference on ``pair``, ``(a, b)`` or
        ``(a, b, ramp)``, which must fail, and fail alike."""
        sched = evolution.ramped_schedule(*pair)
        got = _outcome(lambda: evolution.adiabatic_evolve(sched, eta, i, evolution.TimeGrid(steps)))
        want = _outcome(lambda: reference.integrate_schedule_ref(sched, eta, i, steps))
        assert want is not None
        assert got == want
        return got

    @pytest.mark.parametrize("late", ["hermitian_to", "gap_at"], ids=["non-hermitian", "collapsed-gap"])
    def test_early_step_estimate_wins_over_a_later_bad_node(self, late):
        # levels 3 and 4 coupled by 2 t sigma_x do not commute with themselves at other
        # times: at eta 2000 the first pair's estimate, taken at its second step, is far
        # above its limit, and at eta 1 the run reaches the later bad node, t = 20/40
        a, b = _bad_pair(40, **{late: 20})
        a = scipy.linalg.block_diag(a, np.diag([3.0, 4.0]))
        b = scipy.linalg.block_diag(b, 2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        kind, message = self._both((a, b), 1.0, 0, 40)
        assert kind is not StepSizeError and "t=0.5" in message
        kind, message = self._both((a, b), 2000.0, 0, 40)
        assert kind is StepSizeError and "at t=0.05;" in message

    @pytest.mark.parametrize("node", [evolution._BLOCK + 1, evolution._BLOCK], ids=["first-of-block", "last-of-block"])
    @pytest.mark.parametrize("tracked", [0, 1], ids=["upper-neighbour", "lower-neighbour"])
    def test_gap_collapse_at_block_edges(self, node, tracked):
        # the other level comes within 5e-4 of the tracked one from its own side;
        # the tracked level stays put
        steps = 3 * evolution._BLOCK // 2
        kind, message = self._both(_bad_pair(steps, gap_at=node, side=1 - 2 * tracked), 1.0, tracked, steps)
        assert (kind, message) == (GapCollapseError, f"spectral gap 5.00e-04 below 0.001 at t={node / steps:g}")

    @pytest.mark.parametrize("first", [evolution._BLOCK, evolution._BLOCK + 0.5, evolution._BLOCK // 2,
                                       evolution._BLOCK // 2 + 0.5],
                             ids=["block-edge-node", "block-edge-midpoint", "mid-block-node", "mid-block-midpoint"])
    def test_h_goes_non_hermitian(self, first):
        # A and B are each Hermitian, their sum H(t) is not from t = first / steps on
        steps = 3 * evolution._BLOCK // 2
        kind, message = self._both(_bad_pair(steps, hermitian_to=first), 1.0, 0, steps)
        assert (kind, message) == (NotHermitianError, f"H(t={first / steps:g}) is not Hermitian to relative 1e-10")


    @pytest.mark.parametrize("gap_step", [0, 1], ids=["same-step", "next-step"])
    @pytest.mark.parametrize("step", [evolution._BLOCK, evolution._BLOCK // 2], ids=["block-edge", "mid-block"])
    def test_a_midpoint_error_wins_over_a_later_gap_collapse(self, step, gap_step):
        # the midpoint of step `step` is the first node that is not Hermitian; the gap collapses
        # at that step's end node, checked after its midpoint, or at the next step's
        steps = 3 * evolution._BLOCK // 2
        pair = _bad_pair(steps, hermitian_to=step - 0.5, gap_at=step + gap_step)
        kind, message = self._both(pair, 1.0, 0, steps)
        assert (kind, message) == (NotHermitianError, f"H(t={(step - 0.5) / steps:g}) is not Hermitian to relative 1e-10")

    @pytest.mark.parametrize("step", [evolution._BLOCK, evolution._BLOCK // 2], ids=["block-edge", "mid-block"])
    def test_an_earlier_gap_collapse_wins_over_a_midpoint_error(self, step):
        # the gap collapses at the end of step `step`, the midpoint of the step after it is
        # the first node that is not Hermitian
        steps = 3 * evolution._BLOCK // 2
        kind, message = self._both(_bad_pair(steps, gap_at=step, hermitian_to=step + 0.5), 1.0, 0, steps)
        assert (kind, message) == (GapCollapseError, f"spectral gap 5.00e-04 below 0.001 at t={step / steps:g}")

    @pytest.mark.parametrize("ramp", list(evolution.RAMPS))
    def test_entries_past_half_the_float_range_fail_the_step_estimate(self, ramp):
        # every H(t) is finite and Hermitian, with a level up to 1.5e308, but the sum in its Magnus
        # generator overflows: the first pair's estimate is NaN.  The batched eigh symmetrizes
        # by halves, so no eigenvalue goes NaN, and no warning is raised, before it
        pair = np.diag([0.0, 1.5e308]), np.diag([0.0, -1e308]), ramp
        assert self._both(pair, 1e-300, 0, 80) == (StepSizeError, "step estimate nan at t=0.025; refine the grid")


class TestBlockCore:
    """The block-wide index chain, check masks and ramp broadcast against the
    per-node evaluation and the per-node reference, across block boundaries."""

    @pytest.mark.parametrize("ramp", ["linear", "smoothstep", "smootherstep"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("steps", [evolution._BLOCK + 1, 3 * evolution._BLOCK - 5])
    def test_ramp_broadcast_matches_the_per_node_evaluation(self, ramp, n, steps):
        # a named ramp is a polynomial: at the stepper's times the broadcast is the
        # per-node evaluation at floats, bit for bit, and so is the run
        sched, i = _ramp_instance(n, steps, ramp)
        ts = (1.0 / steps) * np.arange(steps)
        hks = (ts + 1.0 / steps) - ts
        times = np.column_stack([ts + hks / 2, ts + hks]).ravel()
        np.testing.assert_array_equal(sched.at(times), np.array([_h(sched, t) for t in times.tolist()]))
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        _, _, e_path, lam_path, _ = reference.integrate_schedule_ref(sched, 3.0, i, steps)
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])

    #: The :func:`_bad_pair` argument that brings each kind of failure, and its error.
    BAD_NODES = {
        "non-hermitian": ("hermitian_to", NotHermitianError),
        "collapsed-gap": ("gap_at", GapCollapseError),
        "step-estimate": ("overflow_at", StepSizeError),
    }

    @staticmethod
    def _refused_at(kind, node):
        """The end node whose ``t`` the refusal of a failure of ``kind`` at
        ``node`` names: a step estimate belongs to its pair's second step,
        which ends at an even node."""
        return node + node % 2 if kind == "step-estimate" else node

    @pytest.mark.parametrize("kind", ["collapsed-gap", "step-estimate", "non-hermitian"])
    @pytest.mark.parametrize("offset", [1, evolution._BLOCK // 2, evolution._BLOCK])
    def test_a_bad_node_in_a_later_block(self, kind, offset):
        steps = 3 * evolution._BLOCK
        node = self._refused_at(kind, evolution._BLOCK + offset)
        got, message = TestErrorOrder._both(_bad_pair(steps, **{self.BAD_NODES[kind][0]: node}), TINY_ETA, 0, steps)
        assert got is self.BAD_NODES[kind][1]
        assert f"t={node / steps:g}" in message

    # a non-Hermitian sum needs the norm of H at the scale of its 1e6 level, an
    # overflowing one at 1e155: no one schedule brings both
    @pytest.mark.parametrize("early, late", [("collapsed-gap", "non-hermitian"), ("non-hermitian", "collapsed-gap"),
                                             ("collapsed-gap", "step-estimate"), ("step-estimate", "collapsed-gap")])
    def test_a_later_bad_node_in_the_block_never_wins(self, early, late):
        steps = 3 * evolution._BLOCK
        first = evolution._BLOCK + 5
        nodes = {early: self._refused_at(early, first), late: self._refused_at(late, first + 3)}
        pair = _bad_pair(steps, **{self.BAD_NODES[kind][0]: node for kind, node in nodes.items()})
        got, message = TestErrorOrder._both(pair, TINY_ETA, 0, steps)
        assert got is self.BAD_NODES[early][1]
        assert f"t={nodes[early] / steps:g}" in message

    @pytest.mark.parametrize("kind", ["non-hermitian", "step-estimate"])
    def test_the_checks_of_one_step_run_in_order(self, kind):
        # a collapsed gap at the step's end node, and at the same step a non-Hermitian
        # end node, checked before the gap, or a NaN estimate, checked after it
        steps = 3 * evolution._BLOCK
        node = evolution._BLOCK + 6
        got, message = TestErrorOrder._both(_bad_pair(steps, gap_at=node, **{self.BAD_NODES[kind][0]: node}), TINY_ETA,
                                            0, steps)
        assert got is (NotHermitianError if kind == "non-hermitian" else GapCollapseError)
        assert f"t={node / steps:g}" in message

    @pytest.mark.parametrize("crossing", [evolution._BLOCK + 0.5, evolution._BLOCK + 20.5], ids=["block-edge", "mid-block"])
    def test_the_tracked_level_crosses_another(self, crossing):
        # the levels of diag(0, 2 (t_c - t)) swap order between two nodes;
        # the index chain must follow the level, not its rank
        steps = 3 * evolution._BLOCK - 5
        sched = evolution.ramped_schedule(np.diag([0.0, 2.0 * crossing / steps]), np.diag([0.0, -2.0]))
        res = evolution.adiabatic_evolve(sched, 1.0, 0, evolution.TimeGrid(steps))
        nodes, us, e_path, lam_path, _ = reference.integrate_schedule_ref(sched, 1.0, 0, steps)
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])
        assert np.all(lam_path == 0.0)

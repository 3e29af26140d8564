import itertools
import math

import numpy as np
import pytest

import reference
from ensembles import random_hermitian
from pertkit import evolution, matcore
from pertkit.errors import (
    ContourEnclosureError,
    ConvergenceError,
    GapCollapseError,
    MatrixFormatError,
    NotHermitianError,
    SingularMatrixError,
    StepSizeError,
)


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


class TestExpSeries:
    def test_zero_perturbation(self, rng):
        a, _ = scaled_pair(4, 0.8, 0.0, 2)
        terms = evolution.exp_series_terms(a, np.zeros((4, 4)), 1.0, 3)
        assert matcore.op_norm(terms[0] - matcore.expm(a)) <= 1e-10
        for t in terms[1:]:
            assert matcore.op_norm(t) <= 1e-12

    def test_commuting_first_order(self):
        a = np.diag([0.2, -0.4]).astype(complex)
        beta = 0.3
        b = beta * np.eye(2, dtype=complex)
        terms = evolution.exp_series_terms(a, b, 1.5, 1)
        # oracle: T1(t) = t*beta*e^{tA} when B is a multiple of the identity
        expected = 1.5 * beta * matcore.expm(1.5 * a)
        assert matcore.op_norm(terms[1] - expected) <= 1e-9

    def test_defect_within_budget(self):
        a, b = scaled_pair(6, 0.8, 0.4, 5)
        t = 1.0
        terms = evolution.exp_series_terms(a, b, t, 8)
        exact = matcore.expm(t * (a + b))
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
        exact = matcore.expm(1j * t * a) @ matcore.expm(-1j * t * (a + b))
        na, nb = matcore.op_norm(a), matcore.op_norm(b)
        defect = matcore.op_norm(sum(terms) - exact)
        assert defect <= evolution.remainder_bound(t, na, nb, 11) + 1e-8


class TestPropagator:
    def test_zero_schedule(self):
        a, _ = scaled_pair(4, 0.7, 0.0, 11)
        u = evolution.propagator_time_dependent(a, lambda t: np.zeros((4, 4)), 0.5, 1.5, evolution.TimeGrid(1.0, 200))
        assert matcore.op_norm(u - matcore.expm(-1j * 1.0 * a)) <= 1e-8

    def test_constant_schedule(self):
        a, b = scaled_pair(4, 0.7, 0.3, 12)
        u = evolution.propagator_time_dependent(a, lambda t: b, 0.0, 1.2, evolution.TimeGrid(1.2, 300))
        assert matcore.op_norm(u - matcore.expm(-1j * 1.2 * (a + b))) <= 1e-8

    def test_composition_and_unitarity(self):
        a, b = scaled_pair(5, 0.8, 0.4, 13)
        sched = lambda t: math.sin(t) * b
        u02 = evolution.propagator_time_dependent(a, sched, 0.0, 2.0, evolution.TimeGrid(2.0, 800))
        u01 = evolution.propagator_time_dependent(a, sched, 0.0, 1.0, evolution.TimeGrid(1.0, 400))
        u12 = evolution.propagator_time_dependent(a, sched, 1.0, 2.0, evolution.TimeGrid(1.0, 400))
        assert matcore.op_norm(u02 - u12 @ u01) <= 1e-8
        assert matcore.op_norm(u02.conj().T @ u02 - np.eye(5)) <= 1e-7

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            evolution.propagator_time_dependent(np.eye(2), lambda t: np.zeros((2, 2)), 1.0, 0.0, evolution.TimeGrid(1.0, 8))


class TestLaplaceBridge:
    def test_scalar(self):
        # -i * integral of e^{-tau t} for a 1x1 zero matrix
        tau, t_max = 0.8, 30.0
        val = evolution.laplace_resolvent_bridge(
            np.zeros((1, 1)), np.zeros((1, 1)), tau, t_max, evolution.TimeGrid(t_max, 3000)
        )
        expected = -1j * (1.0 - math.exp(-tau * t_max)) / tau
        assert abs(val[0, 0] - expected) <= 1e-10
        assert abs(val[0, 0] - (-1j / tau)) <= 2 * math.exp(-tau * t_max) / tau + 1e-10

    def test_diagonal_entrywise(self):
        lam = np.array([0.3, -0.7, 1.1])
        tau, t_max = 0.6, 40.0
        val = evolution.laplace_resolvent_bridge(
            np.diag(lam), np.zeros((3, 3)), tau, t_max, evolution.TimeGrid(t_max, 4000)
        )
        expected = np.diag(1.0 / (lam + 1j * tau))
        assert matcore.op_norm(val - expected) <= 2 * math.exp(-tau * t_max) / tau + 1e-8

    def test_random_matches_inverse(self):
        a, b = scaled_pair(5, 0.5, 0.15, 15)
        tau, t_max = 0.5, 40.0
        val = evolution.laplace_resolvent_bridge(a, b, tau, t_max, evolution.TimeGrid(t_max, 2400))
        exact = matcore.inverse(a + b + 1j * tau * np.eye(5))
        assert matcore.op_norm(val - exact) <= 1e-6

    def test_exponential_tail_decay(self):
        a, b = scaled_pair(5, 0.5, 0.15, 16)
        tau = 0.5
        exact = matcore.inverse(a + b + 1j * tau * np.eye(5))
        tmaxs = [10, 14, 18, 22, 26, 30]
        defects = [
            matcore.op_norm(
                evolution.laplace_resolvent_bridge(a, b, tau, T, evolution.TimeGrid(T, 60 * T)) - exact
            )
            for T in tmaxs
        ]
        slope = np.polyfit(tmaxs, np.log(defects), 1)[0]
        assert abs(slope + tau) <= 0.1 * tau

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            evolution.laplace_resolvent_bridge(np.eye(2), np.eye(2), 0.0, 10.0, evolution.TimeGrid(10.0, 100))


class TestHolomorphicCalculus:
    def setup_method(self):
        self.a, self.b = scaled_pair(6, 0.8, 0.3, 17)
        w = np.linalg.eigvalsh(self.a + self.b)
        self.c = matcore.ContourSpec(
            center=complex((w.max() + w.min()) / 2), radius=(w.max() - w.min()) / 2 + 1.0
        )

    def test_constant_function(self):
        out = evolution.holomorphic_calculus(self.a, self.b, lambda z: 1.0 + 0 * z, self.c)
        assert matcore.op_norm(out - np.eye(6)) <= 1e-12

    def test_identity_function(self):
        out = evolution.holomorphic_calculus(self.a, self.b, lambda z: z, self.c)
        assert matcore.op_norm(out - (self.a + self.b)) <= 1e-12

    def test_exponential(self):
        out = evolution.holomorphic_calculus(self.a, self.b, np.exp, self.c)
        assert matcore.op_norm(out - matcore.expm(self.a + self.b)) <= 1e-8

    def test_enclosure_failure(self):
        small = matcore.ContourSpec(center=self.c.center, radius=1e-3)
        with pytest.raises(ContourEnclosureError):
            evolution.holomorphic_calculus(self.a, self.b, np.exp, small)

    def test_node_next_to_an_eigenvalue_raises(self):
        # an eigenvalue at radius (1 - 1e-15) is enclosed, but the node z =
        # radius sits 1e-15 radius from it: an unguarded solve returns
        # entries of about 1e15 instead of refusing
        c = matcore.ContourSpec(center=0.0, radius=2.0, num_points=64)
        a = np.diag([2.0 * (1.0 - 1e-15), 0.3]).astype(complex)
        with pytest.raises(SingularMatrixError):
            evolution.holomorphic_calculus(a, np.zeros((2, 2)), np.exp, c)


def two_level_schedule(coupling, ramp):
    a = np.diag([0.0, 1.0]).astype(complex)
    b = coupling * np.array([[0, 1], [1, 0]], dtype=complex)
    return evolution.ramped_schedule(a, b, ramp)


class TestAdiabaticEvolve:
    def test_constant_hamiltonian(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        sched = evolution.Schedule(evaluator=lambda t: h)
        res = evolution.adiabatic_evolve(sched, 60.0, 0, evolution.TimeGrid(1.0, 3000))
        assert res.error_vs_eigenpath <= 1e-8
        assert abs(np.linalg.norm(res.final_state) - 1.0) <= 1e-8

    def test_consecutive_eta_ratios(self):
        sched = two_level_schedule(0.2, "smootherstep")
        errs = []
        for eta in (50.0, 100.0, 200.0):
            res = evolution.adiabatic_evolve(sched, eta, 0, evolution.TimeGrid(1.0, int(48 * eta)))
            errs.append(res.error_vs_eigenpath)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 <= coarse / fine <= 2.5

    def test_grid_doubling_stability(self):
        sched = two_level_schedule(0.2, "smoothstep")
        r1 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(1.0, 4800))
        r2 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(1.0, 9600))
        assert abs(r1.error_vs_eigenpath - r2.error_vs_eigenpath) <= 0.05 * r2.error_vs_eigenpath

    def test_gap_collapse_detection(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = np.diag([1.0, -1.0]).astype(complex)  # levels cross at t = 0.5
        sched = evolution.ramped_schedule(a, b, "linear")
        with pytest.raises(GapCollapseError):
            evolution.adiabatic_evolve(sched, 50.0, 0, evolution.TimeGrid(1.0, 500))

    def test_step_size_guard(self):
        sched = two_level_schedule(0.2, "smoothstep")
        with pytest.raises(StepSizeError):
            evolution.adiabatic_evolve(sched, 5000.0, 0, evolution.TimeGrid(1.0, 16))


class TestAdiabaticEigvecSeries:
    def test_zero_perturbation(self):
        a = np.diag([0.0, 1.0, 2.5]).astype(complex)
        res = evolution.adiabatic_eigvec_series(
            a, np.zeros((3, 3)), "linear", 1, 80.0, 3, evolution.TimeGrid(1.0, 800)
        )
        gauge = res.vector * np.exp(-1j * np.angle(res.vector[1]))
        np.testing.assert_allclose(gauge, [0, 1, 0], atol=1e-12)

    def test_two_level_overlap_within_budget(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.01 * np.array([[0, 1], [1, 0]], dtype=complex)
        res = evolution.adiabatic_eigvec_series(a, b, "linear", 0, 200.0, 6, evolution.TimeGrid(1.0, 6000))
        exact = matcore.eig_hermitian(a + b).eigenvectors[:, 0]
        assert abs(np.vdot(res.vector, exact)) >= 1.0 - res.budget

    def test_budget_blowup_refused(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ConvergenceError):
            evolution.adiabatic_eigvec_series(a, b, "linear", 0, 500.0, 4, evolution.TimeGrid(1.0, 800))


class TestAdiabaticEigenvalueTrack:
    def test_constant_hamiltonian(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        sched = evolution.Schedule(evaluator=lambda t: h)
        est = evolution.adiabatic_eigenvalue_track(sched, 100.0, 0, evolution.TimeGrid(1.0, 1600))
        assert np.max(np.abs(est)) <= 1e-8

    def test_supdeviation_halves(self):
        sched = two_level_schedule(0.2, "linear")
        nodes_lam = {}

        def supdev(eta, steps):
            est = evolution.adiabatic_eigenvalue_track(sched, eta, 0, evolution.TimeGrid(1.0, steps))
            nodes = np.linspace(0.0, 1.0, steps + 1)
            lam = np.array([np.linalg.eigvalsh(sched.evaluator(t))[0] for t in nodes])
            return np.max(np.abs(est - (lam - lam[0])))

        d100 = supdev(100.0, 4800)
        d200 = supdev(200.0, 9600)
        assert 1.4 <= d100 / d200 <= 2.6

    def test_diagonal_schedule_sanity(self):
        sched = evolution.Schedule(evaluator=lambda t: np.diag([0.0, 1.0 + 0.3 * t]).astype(complex))
        eta = 100.0
        est = evolution.adiabatic_eigenvalue_track(sched, eta, 1, evolution.TimeGrid(1.0, 1600))
        nodes = np.linspace(0.0, 1.0, 1601)
        assert np.max(np.abs(est - 0.3 * nodes)) <= 10.0 / eta


class TestGridValidation:
    def test_timegrid_minimum_steps(self):
        with pytest.raises(ValueError):
            evolution.TimeGrid(1.0, 4)

    def test_schedule_hermiticity_checked(self):
        sched = evolution.Schedule(evaluator=lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(Exception):
            sched.matrix(0.0)


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
# bit-for-bit agreement with the list-state reference steppers


#: One step count below a block, and one of several full blocks plus a
#: partial last block.
REF_STEPS = (8, 100)


class TestReferenceSteppers:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("steps", REF_STEPS)
    def test_propagator_time_dependent(self, n, steps):
        a, b = _ref_pair(n, 30 * n)
        a = a / (n + 1)
        u = evolution.propagator_time_dependent(
            a, lambda t: np.sin(t) * b, 0.2, 0.5, evolution.TimeGrid(0.3, steps)
        )
        np.testing.assert_array_equal(u, reference.propagator_ref(a, lambda t: np.sin(t) * b, 0.2, 0.5, steps))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("m_max", [1, 6])
    @pytest.mark.parametrize("steps", REF_STEPS)
    def test_adiabatic_eigvec_series(self, n, m_max, steps):
        a = np.diag(np.arange(n, dtype=float)).astype(complex)
        b = random_hermitian(n, 0.004, 40 * n + m_max).astype(complex)
        i = n // 2
        res = evolution.adiabatic_eigvec_series(a, b, "smoothstep", i, 30.0, m_max, evolution.TimeGrid(1.0, steps))
        ref = reference.adiabatic_eigvec_ref(a, b, evolution.RAMPS["smoothstep"], i, 30.0, m_max, steps)
        np.testing.assert_array_equal(res.vector, ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("steps", REF_STEPS + (96, 250))
    @pytest.mark.parametrize("ramp", ["linear", "smoothstep"])
    def test_adiabatic_evolve(self, n, steps, ramp):
        a = np.diag(np.arange(n, dtype=float) / n).astype(complex)
        b = random_hermitian(n, 0.05, 50 * n + steps).astype(complex)
        sched = evolution.ramped_schedule(a, b, ramp)
        i = (n - 1) // 2
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(1.0, steps))
        nodes, us, e_path, lam_path = reference.integrate_schedule_ref(sched, 3.0, i, steps)
        np.testing.assert_array_equal(res.final_state, us[-1])
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])
        assert res.tracked_phase == evolution._integral_on_nodes(lam_path, nodes[1] - nodes[0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_at_a_midpoint_raises(self):
        # the reference never guards midpoints: a NaN there poisons the state,
        # its drift check cannot see it, and it carries the NaN to the end;
        # the block core checks every midpoint and raises instead
        steps = 80
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.1 * np.array([[0, 1], [1, 0]], dtype=complex)

        def evaluator(t):
            return np.full((2, 2), np.nan) if round(t * 2 * steps) == 81 else a + t * b

        sched = evolution.Schedule(evaluator=evaluator)
        _, us, _, _ = reference.integrate_schedule_ref(sched, 2.0, 0, steps)
        assert np.isnan(us[-1]).all()
        with pytest.raises(MatrixFormatError, match="non-finite"):
            evolution._integrate_schedule(sched, 2.0, 0, evolution.TimeGrid(1.0, steps))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_fails_the_drift_check(self):
        # eta H u overflows to inf, and inf * 0 makes the state NaN: the drift
        # check must read a NaN norm as a failure, not as no drift
        sched = evolution.Schedule(evaluator=lambda t: np.diag([0.0, 1e300]))
        with pytest.raises(StepSizeError, match="drift nan"):
            evolution.adiabatic_evolve(sched, 1e10, 1, evolution.TimeGrid(1.0, 8))

    @staticmethod
    def _nan_midpoint_run(other, steps=80):
        """Adiabatic run whose ``H`` is NaN at the midpoint of step 40 (t =
        81/160) and ``other(half_step_index)`` elsewhere."""
        def evaluator(t):
            half_steps = round(t * 2 * steps)
            return np.full((2, 2), np.nan) if half_steps == 81 else other(half_steps)

        return lambda: evolution.adiabatic_evolve(evolution.Schedule(evaluator), 1.0, 0, evolution.TimeGrid(1.0, steps))

    @pytest.mark.parametrize(
        "late",
        [np.array([[0.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 1e-4])],
        ids=["non-hermitian", "collapsed-gap"],
    )
    def test_midpoint_error_wins_over_a_later_bad_node(self, late):
        good = np.diag([0.0, 1.0])
        with pytest.raises(MatrixFormatError, match="non-finite"):
            self._nan_midpoint_run(lambda k: late if k >= 86 else good)()

    def test_earlier_gap_collapse_wins_over_a_midpoint_error(self):
        good = np.diag([0.0, 1.0])
        with pytest.raises(GapCollapseError, match="at t=0.475"):
            self._nan_midpoint_run(lambda k: np.diag([0.0, 1e-4]) if k == 76 else good)()

    def test_evaluates_h_at_the_reference_times(self):
        # t + ((t + h) - t) / 2 differs from t + h / 2 in the last bit at
        # about a quarter of the steps of this grid
        calls = {"new": [], "ref": []}

        def schedule(log):
            def evaluator(t):
                log.append(t)
                return np.diag([0.0, 1.0 + t])

            return evolution.Schedule(evaluator=evaluator)

        evolution.adiabatic_evolve(schedule(calls["new"]), 2.0, 0, evolution.TimeGrid(1.0, 1000))
        reference.integrate_schedule_ref(schedule(calls["ref"]), 2.0, 0, 1000)
        # the reference evaluates H(0) twice: once guarded, once for the first step
        assert calls["ref"][:2] == [0.0, 0.0]
        assert calls["new"] == calls["ref"][1:]


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
    def _both(evaluator, eta, i, steps):
        sched = evolution.Schedule(evaluator=evaluator)
        got = _outcome(lambda: evolution.adiabatic_evolve(sched, eta, i, evolution.TimeGrid(1.0, steps)))
        want = _outcome(lambda: reference.integrate_schedule_ref(sched, eta, i, steps))
        assert want is not None
        assert got == want
        return got

    @pytest.mark.parametrize(
        "late",
        [np.array([[0.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 0.0]), np.full((2, 2), np.inf)],
        ids=["non-hermitian", "collapsed-gap", "non-finite"],
    )
    def test_early_drift_wins_over_a_later_bad_node(self, late):
        good = np.diag([0.0, 1.0])
        kind, _ = self._both(lambda t: late if t > 0.05 else good, 2000.0, 1, 40)
        assert kind is StepSizeError

    @pytest.mark.parametrize("node", [33, 64], ids=["first-of-block", "last-of-block"])
    @pytest.mark.parametrize("tracked", [0, 1], ids=["upper-neighbour", "lower-neighbour"])
    def test_gap_collapse_at_block_edges(self, node, tracked):
        steps = 96
        threshold = (node - 0.25) / steps

        def evaluator(t):
            # the other level comes within 1e-4 of the tracked one from its
            # own side; the tracked level stays put
            levels = [0.0, 1.0]
            if t > threshold:
                levels[1 - tracked] = [1e-4, 1.0 - 1e-4][tracked]
            return np.diag(levels)

        kind, message = self._both(evaluator, 1.0, tracked, steps)
        assert kind is GapCollapseError
        assert message.endswith(f"at t={node / steps:g}")

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.0, 1.0], [0.0, 1.0]]), NotHermitianError),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), MatrixFormatError),
            (np.zeros((2, 3)), ValueError),
        ],
        ids=["non-hermitian", "non-finite", "wrong-shape"],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_evaluator_goes_bad_mid_block(self, bad, error):
        good = np.diag([0.0, 1.0])
        kind, _ = self._both(lambda t: bad if t > 0.45 else good + t * np.eye(2), 1.0, 0, 96)
        assert issubclass(kind, error)

    def test_evaluator_exception_is_raised_after_an_earlier_gap_collapse(self):
        def evaluator(t):
            if t > 0.5:
                raise RuntimeError(f"no H at {t:g}")
            return np.diag([0.0, 1e-4 if t > 0.4 else 1.0])

        kind, _ = self._both(evaluator, 1.0, 0, 96)
        assert kind is GapCollapseError

    @pytest.mark.parametrize("start", [32.25, 48.0], ids=["first-of-block", "mid-block"])
    def test_evaluator_exception_keeps_its_message(self, start):
        def evaluator(t):
            if t > start / 96:
                raise RuntimeError(f"no H at {t:.17g}")
            return np.diag([0.0, 1.0])

        kind, message = self._both(evaluator, 1.0, 0, 96)
        assert kind is RuntimeError and message.startswith("no H at ")

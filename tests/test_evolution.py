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
    ShapeError,
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
        u = evolution.propagator_time_dependent(a, lambda t: np.zeros((4, 4)), 0.5, 1.5, evolution.TimeGrid(200))
        assert matcore.op_norm(u - matcore.expm(-1j * 1.0 * a)) <= 1e-8

    def test_constant_schedule(self):
        a, b = scaled_pair(4, 0.7, 0.3, 12)
        u = evolution.propagator_time_dependent(a, lambda t: b, 0.0, 1.2, evolution.TimeGrid(300))
        assert matcore.op_norm(u - matcore.expm(-1j * 1.2 * (a + b))) <= 1e-8

    def test_composition_and_unitarity(self):
        a, b = scaled_pair(5, 0.8, 0.4, 13)
        sched = lambda t: math.sin(t) * b
        u02 = evolution.propagator_time_dependent(a, sched, 0.0, 2.0, evolution.TimeGrid(800))
        u01 = evolution.propagator_time_dependent(a, sched, 0.0, 1.0, evolution.TimeGrid(400))
        u12 = evolution.propagator_time_dependent(a, sched, 1.0, 2.0, evolution.TimeGrid(400))
        assert matcore.op_norm(u02 - u12 @ u01) <= 1e-8
        assert matcore.op_norm(u02.conj().T @ u02 - np.eye(5)) <= 1e-7

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            evolution.propagator_time_dependent(np.eye(2), lambda t: np.zeros((2, 2)), 1.0, 0.0, evolution.TimeGrid(8))


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


class TestAdiabaticEigvecSeries:
    def test_zero_perturbation(self):
        a = np.diag([0.0, 1.0, 2.5]).astype(complex)
        res = evolution.adiabatic_eigvec_series(
            a, np.zeros((3, 3)), "linear", 1, 80.0, 3, evolution.TimeGrid(800)
        )
        gauge = res.vector * np.exp(-1j * np.angle(res.vector[1]))
        np.testing.assert_allclose(gauge, [0, 1, 0], atol=1e-12)

    def test_two_level_overlap_within_budget(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.01 * np.array([[0, 1], [1, 0]], dtype=complex)
        res = evolution.adiabatic_eigvec_series(a, b, "linear", 0, 200.0, 6, evolution.TimeGrid(6000))
        exact = matcore.eig_hermitian(a + b).eigenvectors[:, 0]
        assert abs(np.vdot(res.vector, exact)) >= 1.0 - res.budget

    def test_budget_blowup_refused(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ConvergenceError):
            evolution.adiabatic_eigvec_series(a, b, "linear", 0, 500.0, 4, evolution.TimeGrid(800))


class TestAdiabaticEigenvalueTrack:
    def test_constant_hamiltonian(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        sched = evolution.Schedule(evaluator=lambda t: h)
        est = evolution.adiabatic_eigenvalue_track(sched, 100.0, 0, evolution.TimeGrid(1600))
        assert np.max(np.abs(est)) <= 1e-8

    def test_supdeviation_halves(self):
        sched = two_level_schedule(0.2, "linear")
        nodes_lam = {}

        def supdev(eta, steps):
            est = evolution.adiabatic_eigenvalue_track(sched, eta, 0, evolution.TimeGrid(steps))
            nodes = np.linspace(0.0, 1.0, steps + 1)
            lam = np.array([np.linalg.eigvalsh(sched.evaluator(t))[0] for t in nodes])
            return np.max(np.abs(est - (lam - lam[0])))

        d100 = supdev(100.0, 4800)
        d200 = supdev(200.0, 9600)
        assert 1.4 <= d100 / d200 <= 2.6

    def test_diagonal_schedule_sanity(self):
        sched = evolution.Schedule(evaluator=lambda t: np.diag([0.0, 1.0 + 0.3 * t]).astype(complex))
        eta = 100.0
        est = evolution.adiabatic_eigenvalue_track(sched, eta, 1, evolution.TimeGrid(1600))
        nodes = np.linspace(0.0, 1.0, 1601)
        assert np.max(np.abs(est - 0.3 * nodes)) <= 10.0 / eta


class TestGridValidation:
    def test_timegrid_minimum_steps(self):
        with pytest.raises(ValueError):
            evolution.TimeGrid(4)

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
# the Magnus steppers against RK4 at 8x the steps and the per-node reference


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
    of both Magnus paths."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("steps", (8, 100))
    def test_propagator_time_dependent(self, n, steps):
        a, b = _ref_pair(n, 30 * n)
        a = a / (n + 1)
        u = evolution.propagator_time_dependent(a, lambda t: np.sin(t) * b, 0.2, 0.5, evolution.TimeGrid(steps))
        ref = reference.schrodinger_rk4(lambda t: a + np.sin(t) * b, np.eye(n, dtype=complex), 0.2, 0.5, 8 * steps)
        assert np.linalg.norm(u - ref, 2) <= 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("steps", MAGNUS_STEPS)
    @pytest.mark.parametrize("ramp", ["linear", "smoothstep"])
    def test_adiabatic_evolve(self, n, steps, ramp):
        sched, i = _ramp_instance(n, steps, ramp)
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        u0 = matcore.eig_hermitian(sched.matrix(0.0)).eigenvectors[:, i]
        ref = reference.schrodinger_rk4(lambda t: 3.0 * sched.evaluator(t), u0, 0.0, 1.0, 8 * steps)
        assert np.linalg.norm(res.final_state - ref) <= 1e-7

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("steps", MAGNUS_STEPS)
    def test_adiabatic_evolve_matches_the_per_node_reference(self, n, steps):
        sched, i = _ramp_instance(n, steps, "smoothstep")
        res = evolution.adiabatic_evolve(sched, 3.0, i, evolution.TimeGrid(steps))
        nodes, us, e_path, lam_path = reference.integrate_schedule_ref(sched, 3.0, i, steps)
        assert np.linalg.norm(res.final_state - us[-1]) <= 1e-13
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])
        assert res.tracked_phase == evolution._integral_on_nodes(lam_path, nodes[1] - nodes[0])

    def test_eigenvalue_track_reuses_the_node_matrices(self):
        base = two_level_schedule(0.2, "linear")
        calls = []

        def evaluator(t):
            calls.append(t)
            return base.evaluator(t)

        est = evolution.adiabatic_eigenvalue_track(evolution.Schedule(evaluator), 20.0, 0, evolution.TimeGrid(100))
        assert len(calls) == 2 * 100 + 1
        nodes, us, _, e_path, lam_path = evolution._integrate_schedule(base, 20.0, 0, evolution.TimeGrid(100))
        e0 = e_path[0]
        want = np.array([(np.vdot(e0, base.evaluator(t) @ u) / np.vdot(e0, u)).real for t, u in zip(nodes, us)])
        want -= lam_path[0]
        np.testing.assert_allclose(est, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "bad, error",
        [(np.array([[0.0, 1.0], [0.0, 1.0]]), NotHermitianError), (np.eye(3), ShapeError)],
        ids=["non-hermitian", "wrong-shape"],
    )
    def test_a_bad_midpoint_alone_raises(self, bad, error):
        # every node is good; the block core guards the midpoints as well
        steps = 80
        good = two_level_schedule(0.1, "linear").evaluator
        sched = evolution.Schedule(evaluator=lambda t: bad if round(t * 2 * steps) == 81 else good(t))
        with pytest.raises(error):
            evolution.adiabatic_evolve(sched, 2.0, 0, evolution.TimeGrid(steps))

    def test_propagator_refuses_a_non_hermitian_generator(self):
        a, b = scaled_pair(3, 0.7, 0.3, 18)
        skew = 1j * b  # anti-Hermitian
        with pytest.raises(NotHermitianError, match=r"A \+ B\(0\.5"):
            evolution.propagator_time_dependent(a, lambda t: skew if t >= 0.5 else b, 0.0, 1.0, evolution.TimeGrid(16))

    def test_propagator_refuses_a_coarse_grid(self):
        a, b = scaled_pair(2, 1.0, 1.0, 19)
        with pytest.raises(StepSizeError, match="step estimate .* at t=0.625;"):
            evolution.propagator_time_dependent(a, lambda t: np.sin(40 * t) * b, 0.0, 5.0, evolution.TimeGrid(8))


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
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("m_max", [1, 6])
    @pytest.mark.parametrize("steps", (8, 100))
    def test_adiabatic_eigvec_series(self, n, m_max, steps):
        a = np.diag(np.arange(n, dtype=float)).astype(complex)
        b = random_hermitian(n, 0.004, 40 * n + m_max).astype(complex)
        i = n // 2
        res = evolution.adiabatic_eigvec_series(a, b, "smoothstep", i, 30.0, m_max, evolution.TimeGrid(steps))
        ref = reference.adiabatic_eigvec_ref(a, b, evolution.RAMPS["smoothstep"], i, 30.0, m_max, steps)
        np.testing.assert_array_equal(res.vector, ref)

    def test_nan_at_a_midpoint_raises(self):
        # the midpoint of step 40 is NaN: both cores raise there
        steps = 80
        a = np.diag([0.0, 1.0]).astype(complex)
        b = 0.1 * np.array([[0, 1], [1, 0]], dtype=complex)

        def evaluator(t):
            return np.full((2, 2), np.nan) if round(t * 2 * steps) == 81 else a + t * b

        sched = evolution.Schedule(evaluator=evaluator)
        with pytest.raises(MatrixFormatError, match="non-finite"):
            reference.integrate_schedule_ref(sched, 2.0, 0, steps)
        with pytest.raises(MatrixFormatError, match="non-finite"):
            evolution._integrate_schedule(sched, 2.0, 0, evolution.TimeGrid(steps))

    def test_overflowing_step_fails_the_step_estimate(self):
        # eta H overflows to inf: the step estimate is NaN, and a NaN estimate
        # must read as a failure, not as a small error
        sched = evolution.Schedule(evaluator=lambda t: np.diag([0.0, 1e300]))
        with pytest.raises(StepSizeError, match="estimate nan"):
            evolution.adiabatic_evolve(sched, 1e10, 1, evolution.TimeGrid(8))

    @staticmethod
    def _nan_midpoint_run(other, steps=80):
        """Adiabatic run whose ``H`` is NaN at the midpoint of step 40 (t =
        81/160) and ``other(half_step_index)`` elsewhere."""
        def evaluator(t):
            half_steps = round(t * 2 * steps)
            return np.full((2, 2), np.nan) if half_steps == 81 else other(half_steps)

        return lambda: evolution.adiabatic_evolve(evolution.Schedule(evaluator), 1.0, 0, evolution.TimeGrid(steps))

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

        evolution.adiabatic_evolve(schedule(calls["new"]), 2.0, 0, evolution.TimeGrid(1000))
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
        got = _outcome(lambda: evolution.adiabatic_evolve(sched, eta, i, evolution.TimeGrid(steps)))
        want = _outcome(lambda: reference.integrate_schedule_ref(sched, eta, i, steps))
        assert want is not None
        assert got == want
        return got

    @pytest.mark.parametrize(
        "late",
        [np.array([[0.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 0.0]), np.full((2, 2), np.inf)],
        ids=["non-hermitian", "collapsed-gap", "non-finite"],
    )
    def test_early_step_estimate_wins_over_a_later_bad_node(self, late):
        # the early H does not commute with itself at other times, so the
        # commutator term puts the first step's estimate far above its limit
        early = lambda t: np.diag([0.0, 1.0]) + 10.0 * t * np.array([[0.0, 1.0], [1.0, 0.0]])
        kind, message = self._both(lambda t: late if t > 0.05 else early(t), 2000.0, 1, 40)
        assert kind is StepSizeError
        assert "at t=0.025;" in message

    @pytest.mark.parametrize("node", [evolution._BLOCK + 1, evolution._BLOCK], ids=["first-of-block", "last-of-block"])
    @pytest.mark.parametrize("tracked", [0, 1], ids=["upper-neighbour", "lower-neighbour"])
    def test_gap_collapse_at_block_edges(self, node, tracked):
        steps = 3 * evolution._BLOCK // 2
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

    @pytest.mark.parametrize("start", [evolution._BLOCK + 0.25, evolution._BLOCK / 2], ids=["first-of-block", "mid-block"])
    def test_evaluator_exception_keeps_its_message(self, start):
        steps = 3 * evolution._BLOCK // 2

        def evaluator(t):
            if t > start / steps:
                raise RuntimeError(f"no H at {t:.17g}")
            return np.diag([0.0, 1.0])

        kind, message = self._both(evaluator, 1.0, 0, steps)
        assert kind is RuntimeError and message.startswith("no H at ")


def _quarter_sine(t):
    return math.sin(0.5 * math.pi * t) ** 2


class TestBlockCore:
    """The block-wide index chain, check masks and ramp broadcast against the
    per-node evaluator and the per-node reference, across block boundaries."""

    @pytest.mark.parametrize("ramp", ["linear", "smoothstep", "smootherstep", _quarter_sine])
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("steps", [evolution._BLOCK + 1, 3 * evolution._BLOCK - 5])
    def test_ramp_broadcast_matches_the_evaluator(self, ramp, n, steps):
        sched, i = _ramp_instance(n, steps, ramp)
        f = evolution.RAMPS[ramp] if isinstance(ramp, str) else ramp
        general = evolution.Schedule(evaluator=lambda t: sched.a + f(t) * sched.b)
        grid = evolution.TimeGrid(steps)
        got, want = (evolution.adiabatic_evolve(s, 3.0, i, grid) for s in (sched, general))
        for field in ("final_state", "eigenvalue_path", "final_eigenvector"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.tracked_phase == want.tracked_phase

    #: ``H`` at one end node that fails a check of the step ending there.
    BAD_NODES = {
        "non-hermitian": (np.array([[0.0, 1.0], [0.0, 1.0]]), NotHermitianError),
        "non-finite": (np.full((2, 2), np.nan), MatrixFormatError),
        "collapsed-gap": (np.diag([0.0, 1e-4]), GapCollapseError),
        "step-estimate": (np.diag([0.0, 1.0]) + 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), StepSizeError),
        "raises": (None, RuntimeError),
    }

    @staticmethod
    def _bad_at(nodes, steps):
        """Evaluator of ``diag(0, 1)`` except at the end nodes ``{index: kind}``."""
        def evaluator(t):
            half_steps = round(t * 2 * steps)
            kind = nodes.get(half_steps // 2) if half_steps % 2 == 0 else None
            if kind == "raises":
                raise RuntimeError(f"no H at t={t:g}")
            return np.diag([0.0, 1.0]) if kind is None else TestBlockCore.BAD_NODES[kind][0]

        return evaluator

    @pytest.mark.parametrize("kind", ["collapsed-gap", "step-estimate", "non-hermitian"])
    @pytest.mark.parametrize("offset", [1, evolution._BLOCK // 2, evolution._BLOCK])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_bad_node_in_a_later_block(self, kind, offset):
        steps = 3 * evolution._BLOCK
        node = evolution._BLOCK + offset
        got, message = TestErrorOrder._both(self._bad_at({node: kind}, steps), 1.0, 0, steps)
        assert got is self.BAD_NODES[kind][1]
        if kind != "non-hermitian":
            assert f"at t={node / steps:g}" in message

    @pytest.mark.parametrize("early, late", list(itertools.permutations(BAD_NODES, 2)))
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_later_bad_node_in_the_block_never_wins(self, early, late):
        steps = 3 * evolution._BLOCK
        first = evolution._BLOCK + 5
        evaluator = self._bad_at({first: early, first + 3: late}, steps)
        got, message = TestErrorOrder._both(evaluator, 1.0, 0, steps)
        assert got is self.BAD_NODES[early][1]
        if early in ("collapsed-gap", "step-estimate", "raises"):
            assert f"at t={first / steps:g}" in message

    @pytest.mark.parametrize("raise_at, collapse_at", [(20, 40), (40, 20)], ids=["ramp-first", "gap-first"])
    def test_a_raising_ramp_raises_at_its_step(self, raise_at, collapse_at):
        # both in the second block, at these offsets from its start
        steps = 3 * evolution._BLOCK
        raise_at, collapse_at = evolution._BLOCK + raise_at, evolution._BLOCK + collapse_at

        def ramp(t):
            if abs(t * steps - (raise_at - 0.5)) < 0.1:  # only the midpoint before node raise_at
                raise RuntimeError(f"no ramp at t={t:g}")
            return 0.99995 if t * steps > collapse_at - 0.25 else 0.0

        sched = evolution.ramped_schedule(np.diag([0.0, 1.0]), np.diag([0.0, -1.0]), ramp)
        got = _outcome(lambda: evolution.adiabatic_evolve(sched, 1.0, 0, evolution.TimeGrid(steps)))
        assert got == _outcome(lambda: reference.integrate_schedule_ref(sched, 1.0, 0, steps))
        if raise_at < collapse_at:
            assert got == (RuntimeError, f"no ramp at t={(raise_at - 0.5) / steps:g}")
        else:
            assert got == (GapCollapseError, f"spectral gap 5.00e-05 below 0.001 at t={collapse_at / steps:g}")

    @pytest.mark.parametrize("crossing", [evolution._BLOCK + 0.5, evolution._BLOCK + 20.5], ids=["block-edge", "mid-block"])
    def test_the_tracked_level_crosses_another(self, crossing):
        # the levels of diag(0, 2 (t_c - t)) swap order between two nodes;
        # the index chain must follow the level, not its rank
        steps = 3 * evolution._BLOCK - 5
        sched = evolution.Schedule(evaluator=lambda t: np.diag([0.0, 2.0 * (crossing / steps - t)]))
        res = evolution.adiabatic_evolve(sched, 1.0, 0, evolution.TimeGrid(steps))
        nodes, us, e_path, lam_path = reference.integrate_schedule_ref(sched, 1.0, 0, steps)
        np.testing.assert_array_equal(res.eigenvalue_path, lam_path)
        np.testing.assert_array_equal(res.final_eigenvector, e_path[-1])
        assert np.all(lam_path == 0.0)

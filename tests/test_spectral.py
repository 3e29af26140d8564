import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from ensembles import random_diagonal, random_hermitian
from pertkit import matcore, spectral
from pertkit.errors import ContourEnclosureError, ConvergenceError, NotHermitianError


def two_level():
    return np.diag([0.0, 1.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)


def separated_instance(n, b_scale, seed):
    a = random_diagonal(n, float(n), seed)
    b = random_hermitian(n, 1.0, seed + 500)
    b *= b_scale / matcore.op_norm(b)
    return a, b


class TestEigenvalueCoefficients:
    def test_zero_perturbation(self):
        a, _ = separated_instance(5, 0.1, 1)
        ser = spectral.eigenvalue_coefficients(a, np.zeros((5, 5)), 2, 4)
        assert ser.coefficients[0] == pytest.approx(np.real(a[2, 2]))
        np.testing.assert_allclose(ser.coefficients[1:], 0.0, atol=1e-12)

    def test_diagonal_first_and_second_order(self):
        a, b = separated_instance(8, 0.3, 2)
        lam = np.real(np.diagonal(a))
        i = 3
        ser = spectral.eigenvalue_coefficients(a, b, i, 2)
        mask = np.arange(8) != i
        assert ser.coefficients[1] == pytest.approx(np.real(b[i, i]), abs=1e-12)
        second = np.sum(np.abs(b[i, mask]) ** 2 / (lam[i] - lam[mask]))
        assert ser.coefficients[2] == pytest.approx(second, abs=1e-12)

    def test_two_level_fixture(self):
        # oracle: the lower eigenvalue of diag(0,1)+eps*offdiag is
        # (1 - sqrt(1+4 eps^2))/2; frozen expansion (0, 0, -1, 0, +1)
        ref = reference.exact_two_level_eigenvalue_series(4)
        np.testing.assert_allclose(ref, [0.0, 0.0, -1.0, 0.0, 1.0], atol=1e-7)
        a, b = two_level()
        ser = spectral.eigenvalue_coefficients(a, b, 0, 4)
        np.testing.assert_allclose(ser.coefficients, [0.0, 0.0, -1.0, 0.0, 1.0], atol=1e-10)

    def test_epsgrid_oracle_agreement(self):
        a, b = separated_instance(8, 0.3, 7)
        ser = spectral.eigenvalue_coefficients(a, b, 4, 4)
        fit = reference.eigenvalue_fit(a, b, 4, 4)
        np.testing.assert_allclose(ser.coefficients, fit, atol=1e-6)

    def test_truncation_error_halving(self):
        a, b = separated_instance(6, 0.5, 9)
        i = 2
        order = 2
        ser = spectral.eigenvalue_coefficients(a, b, i, order)
        v_ref = matcore.eig_hermitian(a).eigenvectors[:, i]

        def exact(eps):
            dec = matcore.eig_hermitian(a + eps * b)
            return spectral.match_eigenpair(dec, v_ref)[1]

        errs = [abs(ser.evaluate(eps) - exact(eps)) for eps in (0.02, 0.01)]
        factor = errs[0] / errs[1]
        assert 2 ** (order + 1) * 0.7 <= factor <= 2 ** (order + 1) * 1.3

    def test_enclosure_errors(self):
        a, b = separated_instance(5, 0.1, 3)
        lam = np.real(np.diagonal(a))
        wide = matcore.ContourSpec(center=complex(lam[2]), radius=float(lam[3] - lam[1]))
        with pytest.raises(ContourEnclosureError):
            spectral.eigenvalue_coefficients(a, b, 2, 2, contour=wide)
        empty = matcore.ContourSpec(center=complex(lam[4] + 50.0), radius=0.1)
        with pytest.raises(ContourEnclosureError):
            spectral.eigenvalue_coefficients(a, b, 2, 2, contour=empty)


class TestNonHermitianPerturbation:
    # the exact first and second coefficients of this pair are 0.5j and -1j;
    # the real parts alone read as zero, so B must be refused
    A = np.diag([0.0, 1.0, 3.0]).astype(complex)
    B = np.array([[0.5j, 1j, 0], [1, 0, 1], [2, 0, 0.5j]])

    def test_counterexample_raises(self):
        with pytest.raises(NotHermitianError, match="B is not Hermitian"):
            spectral.eigenvalue_coefficients(self.A, self.B, 0, 2)

    @given(
        n=st.sampled_from([1, 2, 3, 8]),
        seed=st.integers(0, 2**16),
        defect=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0]),
    )
    def test_any_anti_hermitian_part_above_tolerance_raises(self, n, seed, defect):
        a = np.diag(np.arange(n, dtype=float)).astype(complex)
        h = random_hermitian(n, 1.0, seed)
        k = random_hermitian(n, 1.0, seed + 1)
        # i K is anti-Hermitian, ||B - B*|| = 2 defect ||H|| > 1e-10 ||B||
        b = h + 1j * defect * k * (matcore.op_norm(h) / matcore.op_norm(k))
        with pytest.raises(NotHermitianError):
            spectral.eigenvalue_coefficients(a, b, n // 2, 2)

    @given(n=st.sampled_from([1, 2, 3, 8]), seed=st.integers(0, 2**16))
    def test_hermitian_b_is_accepted(self, n, seed):
        a = np.diag(np.arange(n, dtype=float)).astype(complex)
        b = random_hermitian(n, 0.1, seed)
        ser = spectral.eigenvalue_coefficients(a, b, n // 2, 2)
        assert ser.coefficients[1] == pytest.approx(b[n // 2, n // 2].real, abs=1e-12)


class TestLambda4:
    def test_zero_perturbation(self):
        a, _ = separated_instance(5, 0.1, 4)
        assert spectral.lambda4_closed_form(a, np.zeros((5, 5)), 1) == 0.0

    def test_two_level(self):
        a, b = two_level()
        assert spectral.lambda4_closed_form(a, b, 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_contour(self, seed):
        a, b = separated_instance(5, 0.3, 40 + seed)
        for i in (0, 2, 4):
            ser = spectral.eigenvalue_coefficients(a, b, i, 4)
            closed = spectral.lambda4_closed_form(a, b, i)
            assert ser.coefficients[4] == pytest.approx(closed, abs=1e-7)

    def test_repeated_diagonal_raises(self):
        with pytest.raises(ZeroDivisionError):
            spectral.lambda4_closed_form(np.diag([1.0, 1.0, 2.0]), np.ones((3, 3)), 0)


class TestProjectionSeries:
    def test_zero_perturbation(self):
        a, _ = separated_instance(4, 0.1, 5)
        dec = matcore.eig_hermitian(a)
        c = spectral.default_contour(dec.eigenvalues, 1)
        proj = spectral.projection_coefficients(a, np.zeros((4, 4)), c, 2)
        v = dec.eigenvectors[:, 1]
        np.testing.assert_allclose(proj.coefficients[0], np.outer(v, v.conj()), atol=1e-12)
        for pk in proj.coefficients[1:]:
            np.testing.assert_allclose(pk, 0.0, atol=1e-12)

    def test_traces_and_hermiticity(self):
        a, b = separated_instance(6, 0.3, 6)
        c = spectral.default_contour(np.real(np.diagonal(a)), 2)
        proj = spectral.projection_coefficients(a, b, c, 3)
        assert np.trace(proj.coefficients[0]).real == pytest.approx(1.0, abs=1e-8)
        p0 = proj.coefficients[0]
        assert matcore.op_norm(p0 @ p0 - p0) <= 1e-8
        for pk in proj.coefficients[1:]:
            assert abs(np.trace(pk)) <= 1e-8
        for pk in proj.coefficients:
            assert matcore.herm_defect(pk) <= 1e-8

    def test_two_level_truncation(self):
        a, b = two_level()
        c = spectral.default_contour(np.array([0.0, 1.0]), 0)
        proj = spectral.projection_coefficients(a, b, c, 2)
        eps = 0.05
        dec = matcore.eig_hermitian(a + eps * b)
        _, _, v = spectral.match_eigenpair(dec, np.array([1.0, 0.0], dtype=complex))
        exact = np.outer(v, v.conj())
        assert matcore.op_norm(proj.evaluate(eps) - exact) <= 5 * eps**3


class TestSchurSplit:
    def test_two_by_two_scalar_block(self):
        a, b = two_level()
        s = spectral.schur_split(a, 0.3 * b, 0)
        assert s.a_perp.shape == (1, 1)
        assert s.lambda0 == pytest.approx(0.0)
        assert abs(s.diag_coupling) <= 1e-14

    def test_zero_perturbation(self):
        a, _ = separated_instance(6, 0.1, 8)
        s = spectral.schur_split(a, np.zeros((6, 6)), 2)
        assert np.linalg.norm(s.b) == 0.0
        assert s.diag_coupling == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction(self, seed):
        a = random_hermitian(10, 1.0, seed)
        b = random_hermitian(10, 0.4, seed + 50)
        s = spectral.schur_split(a, b, 4)
        w = np.column_stack([s.v, s.basis])
        assert matcore.op_norm(w.conj().T @ (a + b) @ w - s.block_matrix()) <= 1e-10


class TestSelfEnergyAndFixedPoint:
    def test_zero_coupling(self):
        a, _ = separated_instance(5, 0.1, 9)
        s = spectral.schur_split(a, np.zeros((5, 5)), 2)
        assert spectral.self_energy(s, 0.3 + 0.7j) == 0.0
        assert spectral.fixed_point_eigenvalue(s) == pytest.approx(s.lambda0)

    def test_two_by_two_closed_form(self):
        m = np.array([[0.2, 0.3 - 0.1j], [0.3 + 0.1j, 1.5]], dtype=complex)
        a = np.diag(np.diagonal(m))
        b = m - a
        s = spectral.schur_split(a.astype(complex), b, 0)
        z = 0.1 + 0.4j
        # oracle: |a12|^2 / (a22 - z)
        expected = abs(m[0, 1]) ** 2 / (m[1, 1] - z)
        assert spectral.self_energy(s, z) == pytest.approx(expected)
        # fixed point vs quadratic formula
        tr, det = np.trace(m).real, np.linalg.det(m).real
        roots = sorted(np.roots([1.0, -tr, det]).real)
        lhat = spectral.fixed_point_eigenvalue(s)
        assert min(abs(lhat - r) for r in roots) <= 1e-12

    def test_schur_identity(self):
        a = random_hermitian(8, 1.0, 12)
        b = random_hermitian(8, 0.3, 13)
        s = spectral.schur_split(a, b, 3)
        for z in (0.3 + 0.7j, -1.1 + 0.2j, 2.0 - 0.5j):
            lhs = np.vdot(s.v, matcore.solve(a + b - z * np.eye(8), s.v))
            rhs = 1.0 / (s.lambda0 + s.diag_coupling.real - z - spectral.self_energy(s, z))
            assert abs(lhs - rhs) <= 1e-11

    def test_one_by_one_split(self):
        s = spectral.schur_split([[2.0]], [[0.3]], 0)
        assert spectral.fixed_point_eigenvalue(s) == 2.3
        np.testing.assert_array_equal(spectral.eigenvector_tilde(s, 2.3), [1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_matches_eigensolver(self, seed):
        a = random_diagonal(10, 10.0, 60 + seed)
        b = random_hermitian(10, 0.25, 70 + seed)
        i = int(np.random.default_rng(seed).integers(0, 10))
        s = spectral.schur_split(a, b, i)
        lhat = spectral.fixed_point_eigenvalue(s)
        dec = matcore.eig_hermitian(a + b)
        _, lam_exact, _ = spectral.match_eigenpair(dec, s.v)
        assert abs(lhat - lam_exact) <= 1e-10
        resid = s.lambda0 + s.diag_coupling.real - lhat - spectral.self_energy(s, lhat).real
        assert abs(resid) <= 1e-12 * max(1.0, abs(lhat))


def _fixed_point_outcome(fn, s):
    try:
        return fn(s)
    except ConvergenceError as exc:
        return type(exc), str(exc)


def _split(lambda0, mu, b, diag_coupling=0.0):
    """Schur split with perp block ``diag(mu)`` and coupling column ``b``."""
    n = len(mu)
    return spectral.SchurData(
        lambda0=lambda0, diag_coupling=complex(diag_coupling), b=np.asarray(b, dtype=complex),
        a_perp=np.diag(mu).astype(complex), b_perp=np.zeros((n, n), dtype=complex),
        v=np.eye(n + 1)[:, 0].astype(complex), basis=np.eye(n + 1)[:, 1:].astype(complex),
    )


class TestFixedPointBracket:
    """The one-sided bracket helper against the four mirrored loops of
    ``tests/reference.py``: the same bits or the same error."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 7),
        b_scale=st.sampled_from((1e-6, 0.1, 1.0, 10.0)),
        where=st.sampled_from(("lowest", "highest", "random")),
    )
    def test_bit_identical_on_random_splits(self, seed, n, b_scale, where):
        rng = np.random.default_rng(seed)
        a = random_hermitian(n, 1.0, seed)
        b = random_hermitian(n, b_scale, seed + 1)
        i = {"lowest": 0, "highest": n - 1, "random": int(rng.integers(n))}[where]
        s = spectral.schur_split(a, b, i)
        got = _fixed_point_outcome(spectral.fixed_point_eigenvalue, s)
        assert repr(got) == repr(_fixed_point_outcome(reference.fixed_point_eigenvalue_ref, s))

    def test_random_splits_reach_both_open_sides(self):
        # the split of the lowest (highest) eigenvalue of A under a small B
        # has no pole below (above) the start point
        sides = set()
        for seed in range(40):
            a = random_hermitian(5, 1.0, seed)
            b = random_hermitian(5, 0.05, seed + 1)
            for i in range(5):
                s = spectral.schur_split(a, b, i)
                mu = np.linalg.eigvalsh(s.perp_matrix())
                c = s.lambda0 + s.diag_coupling.real
                sides.add((bool(np.any(mu < c)), bool(np.any(mu > c))))
                assert spectral.fixed_point_eigenvalue(s) == reference.fixed_point_eigenvalue_ref(s)
        assert sides == {(False, True), (True, True), (True, False)}

    @pytest.mark.parametrize("s", [
        _split(1.0, [0.0, 10.0], [1e-4, 4.0]),
        _split(-1.0, [-10.0, 0.0], [4.0, 1e-4]),
    ])
    def test_weak_pole_takes_many_steps(self, s):
        # F keeps the wrong sign until about 1e-8 from the weakly coupled pole
        assert repr(spectral.fixed_point_eigenvalue(s)) == repr(reference.fixed_point_eigenvalue_ref(s))

    @pytest.mark.parametrize("s,message", [
        (_split(1.0, [0.0, 10.0], [0.0, 4.0]), "no sign change near the lower pole"),
        (_split(-1.0, [-10.0, 0.0], [4.0, 0.0]), "no sign change near the upper pole"),
        (_split(0.0, [1.0], [1.0], diag_coupling=np.nan), "no sign change toward -infinity"),
        (_split(np.inf, [1.0], [1.0]), "no sign change toward +infinity"),
    ])
    def test_bracket_errors_match_reference(self, s, message):
        for fn in (spectral.fixed_point_eigenvalue, reference.fixed_point_eigenvalue_ref):
            with pytest.raises(ConvergenceError, match=re.escape(message)):
                with np.errstate(invalid="ignore"):
                    fn(s)


class TestEigenvectorMachinery:
    def setup_method(self):
        self.a = random_diagonal(10, 10.0, 80)
        self.b = random_hermitian(10, 0.3, 81)
        self.i = 4
        self.s = spectral.schur_split(self.a, self.b, self.i)
        self.lhat = spectral.fixed_point_eigenvalue(self.s)
        dec = matcore.eig_hermitian(self.a + self.b)
        _, _, self.vhat = spectral.match_eigenpair(dec, self.s.v)

    def test_tilde_zero_coupling(self):
        s0 = spectral.schur_split(self.a, np.zeros((10, 10)), 2)
        np.testing.assert_allclose(spectral.eigenvector_tilde(s0, 0.5 + 1j), s0.v)

    def test_tilde_matches_exact_eigenvector(self):
        vt = spectral.eigenvector_tilde(self.s, self.lhat)
        vt = vt / np.linalg.norm(vt)
        assert abs(np.vdot(vt, self.vhat)) >= 1.0 - 1e-9

    def test_series_zero_bperp_single_term(self):
        s0 = spectral.schur_split(self.a, np.diag(np.diagonal(self.b)) + 0 * self.b, 2)
        # make a split with nonzero b but vanishing B_perp: couple only to v
        s = spectral.SchurData(
            lambda0=1.0,
            diag_coupling=0.0,
            b=np.array([0.3 + 0.1j, -0.2j]),
            a_perp=np.diag([2.0, 3.0]).astype(complex),
            b_perp=np.zeros((2, 2), dtype=complex),
            v=np.array([1.0, 0, 0], dtype=complex),
            basis=np.eye(3, dtype=complex)[:, 1:],
        )
        res = spectral.eigenvector_series(s, 1.1, 4)
        direct = matcore.solve(s.a_perp - 1.1 * np.eye(2), s.b)
        np.testing.assert_allclose(res.terms[0], direct)
        for t in res.terms[1:]:
            np.testing.assert_allclose(t, 0.0, atol=1e-14)

    def test_series_partial_sum_budget(self):
        res = spectral.eigenvector_series(self.s, self.lhat, 8)
        assert res.convergent
        direct = matcore.solve(self.s.perp_matrix() - self.lhat * np.eye(9), self.s.b)
        budget = res.ratio**8 / (1.0 - res.ratio) * np.linalg.norm(res.terms[0])
        assert np.linalg.norm(res.partial_sum() - direct) <= budget

    def test_series_non_convergent_flag(self):
        # evaluation point close to the unperturbed block spectrum blows up
        # the spectral ratio; terms are still returned, flagged divergent
        near_pole = float(np.linalg.eigvalsh(self.s.a_perp)[0]) + 1e-3
        res = spectral.eigenvector_series(self.s, near_pole, 4)
        assert not res.convergent
        assert len(res.terms) == 4

    def test_series_linear_in_coupling(self):
        res1 = spectral.eigenvector_series(self.s, self.lhat, 4)
        s2 = spectral.SchurData(
            lambda0=self.s.lambda0,
            diag_coupling=self.s.diag_coupling,
            b=2.5 * self.s.b,
            a_perp=self.s.a_perp,
            b_perp=self.s.b_perp,
            v=self.s.v,
            basis=self.s.basis,
        )
        res2 = spectral.eigenvector_series(s2, self.lhat, 4)
        for t1, t2 in zip(res1.terms, res2.terms):
            np.testing.assert_allclose(t2, 2.5 * t1)

    def test_overlap_squared(self):
        s0 = spectral.schur_split(self.a, np.zeros((10, 10)), 2)
        assert spectral.overlap_squared(s0, s0.lambda0) == pytest.approx(1.0)
        ov2 = spectral.overlap_squared(self.s, self.lhat)
        assert ov2 == pytest.approx(abs(np.vdot(self.s.v, self.vhat)) ** 2, abs=1e-9)

    def test_overlap_two_by_two(self):
        a, b = two_level()
        s = spectral.schur_split(a, 0.4 * b, 0)
        lhat = spectral.fixed_point_eigenvalue(s)
        dec = matcore.eig_hermitian(a + 0.4 * b)
        _, _, vhat = spectral.match_eigenpair(dec, s.v)
        assert spectral.overlap_squared(s, lhat) == pytest.approx(abs(vhat[0]) ** 2, abs=1e-12)


class TestSpectralMeasure:
    def test_unperturbed_single_atom(self):
        a, _ = separated_instance(5, 0.1, 14)
        v = matcore.eig_hermitian(a).eigenvectors[:, 3]
        mu = spectral.spectral_measure(a, np.zeros((5, 5)), v)
        weights = np.sort(mu.weights)
        assert weights[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(weights[:-1]) <= 1e-12

    def test_weights_and_moment(self):
        a = random_hermitian(12, 1.0, 15)
        b = random_hermitian(12, 0.5, 16)
        v = np.zeros(12, dtype=complex)
        v[2] = 1.0
        mu = spectral.spectral_measure(a, b, v)
        assert np.all(mu.weights >= 0.0)
        assert np.sum(mu.weights) == pytest.approx(1.0, abs=1e-12)
        assert mu.first_moment() == pytest.approx(np.vdot(v, (a + b) @ v).real, abs=1e-10)

    def test_rejects_non_hermitian_sum(self):
        from pertkit.errors import NotHermitianError

        with pytest.raises(NotHermitianError):
            spectral.spectral_measure(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), [1.0, 0.0])

    def test_stieltjes_identity(self):
        a = random_hermitian(12, 1.0, 17)
        b = random_hermitian(12, 0.5, 18)
        rng = np.random.default_rng(19)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = v / np.linalg.norm(v)
        mu = spectral.spectral_measure(a, b, v)
        for z in (0.1 + 0.5j, -2.0 + 1.0j):
            direct = np.vdot(v, matcore.solve(a + b - z * np.eye(12), v))
            assert abs(mu.stieltjes(z) - direct) <= 1e-10


class TestSandwich:
    def setup_method(self):
        self.a = random_diagonal(10, 10.0, 90)
        self.b = random_hermitian(10, 0.3, 91)
        self.sv = spectral.schur_split(self.a, self.b, 3)
        self.sw = spectral.schur_split(self.a, self.b, 6)
        dec = matcore.eig_hermitian(self.a + self.b)
        _, _, self.vhat = spectral.match_eigenpair(dec, self.sv.v)
        _, _, self.what = spectral.match_eigenpair(dec, self.sw.v)

    def test_identity_same_vector(self):
        val = spectral.sandwich(self.sv, self.sv, np.eye(10))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_identity_distinct_vectors(self):
        val = spectral.sandwich(self.sv, self.sw, np.eye(10))
        assert abs(val) <= 1e-9

    def test_one_by_one_split(self):
        s = spectral.schur_split([[-1.0]], [[0.25]], 0)
        assert spectral.sandwich(s, s, [[3.0]]) == 3.0

    def test_random_observable(self):
        c = random_hermitian(10, 1.0, 92)
        val = spectral.sandwich(self.sv, self.sw, c)
        exact = np.vdot(self.vhat, c @ self.what)
        assert abs(abs(val) - abs(exact)) <= 1e-9


class TestCancellation:
    def test_two_level_through_fourth_order(self):
        a, b = two_level()
        s = spectral.schur_split(a, b, 0)
        ser = spectral.eigenvalue_coefficients(a, b, 0, 4)
        sigmas = spectral.cancellation_check(s, ser, 4)
        assert max(abs(x) for x in sigmas) <= 1e-10

    def test_random_vs_epsgrid_oracle(self):
        a = random_diagonal(8, 8.0, 95)
        b = random_hermitian(8, 0.3, 96)
        i = 3
        s = spectral.schur_split(a, b, i)
        ser = spectral.eigenvalue_coefficients(a, b, i, 3)
        vhat_terms = spectral.unit_eigenvector_expansion(s, ser, 3)
        fit_terms = reference.eigenvector_fit(a, b, i, 3)
        for k in range(4):
            assert np.linalg.norm(vhat_terms[k] - fit_terms[k]) <= 1e-6
        sigmas = spectral.cancellation_check(s, ser, 3)
        assert max(abs(x) for x in sigmas) <= 1e-8
        # the oracle's coefficients satisfy the same cancellations
        for k in range(1, 4):
            sig = sum(np.vdot(fit_terms[m], fit_terms[k - m]) for m in range(k + 1))
            assert abs(sig) <= 1e-8

    def test_first_order_orthogonality(self):
        a = random_diagonal(6, 6.0, 97)
        b = random_hermitian(6, 0.3, 98)
        s = spectral.schur_split(a, b, 2)
        ser = spectral.eigenvalue_coefficients(a, b, 2, 2)
        vhat = spectral.unit_eigenvector_expansion(s, ser, 2)
        # order-1 term is orthogonal to the unperturbed vector by construction
        assert abs(np.vdot(vhat[0], vhat[1])) <= 1e-14


class TestOscillatorDemo:
    def test_quartic_first_order_near_gaussian_moment(self):
        # oracle: int x^4 exp(-x^2) / int exp(-x^2) = 3/4, by quadrature
        x = np.linspace(-10.0, 10.0, 20001)
        w = np.exp(-(x**2))
        moment = np.trapezoid(x**4 * w, x) / np.trapezoid(w, x)
        assert moment == pytest.approx(0.75, abs=1e-12)
        out = spectral.harmonic_oscillator_demo(200, 0.01)
        assert abs(out["quartic_first_order"] - 0.75) <= 0.02 * 0.75
        assert out["ground_energy"] == pytest.approx(1.0, abs=0.01)

    def test_split_changes_operator_not_answer(self):
        out = spectral.harmonic_oscillator_demo(160, 0.02, eta=0.05)
        # with the modified split the first-order quartic moment is taken in
        # the eta-deformed ground state; stays within a few percent of 3/4
        assert abs(out["quartic_first_order"] - 0.75) <= 0.05

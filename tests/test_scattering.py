import math

import numpy as np
import pytest

from ensembles import random_diagonal, random_hermitian
from pertkit import matcore, scattering
from pertkit.errors import ArgumentError, EnumerationLimitError, SingularMatrixError


def diagonal_instance(n, b_scale, seed):
    a = random_diagonal(n, float(n), seed)
    b = random_hermitian(n, 1.0, seed + 300)
    b *= b_scale / matcore.op_norm(b)
    return a, b


class TestDirectEntry:
    def test_unperturbed_diagonal(self):
        a, _ = diagonal_instance(5, 0.0, 1)
        q = scattering.ScatteringQuery(i=2, j=2, tau=0.3)
        assert scattering.s_entry_resolvent(a, np.zeros((5, 5)), q) == pytest.approx(1.0)

    def test_unperturbed_offdiagonal(self):
        a, _ = diagonal_instance(5, 0.0, 2)
        q = scattering.ScatteringQuery(i=1, j=3, tau=0.3)
        assert abs(scattering.s_entry_resolvent(a, np.zeros((5, 5)), q)) <= 1e-14

    def test_series_vs_direct(self):
        a, b = diagonal_instance(6, 0.05, 3)
        q = scattering.ScatteringQuery(i=1, j=3, tau=0.1)
        series = scattering.s_series(a, b, q, 40)
        assert series.convergent
        direct = scattering.s_entry_resolvent(a, b, q)
        assert abs(series.partial_sum() - direct) <= 1e-10

    def test_geometric_bound(self):
        a, b = diagonal_instance(6, 0.08, 4)
        q = scattering.ScatteringQuery(i=0, j=2, tau=0.15)
        order = 6
        series = scattering.s_series(a, b, q, order)
        assert series.convergent
        direct = scattering.s_entry_resolvent(a, b, q)
        lam = np.real(np.diagonal(a))
        shift = scattering.lambda_shift(lam[0], lam[2], q.tau)
        norm = matcore.op_norm(matcore.inverse(a - shift * np.eye(6)))
        r = series.ratio
        bound = r ** (order + 1) / (1.0 - r) * q.tau * norm
        assert abs(series.partial_sum() - direct) <= bound

    def test_query_validation(self):
        with pytest.raises(ValueError):
            scattering.ScatteringQuery(i=0, j=0, tau=0.0)

    def test_tau_at_the_singularity_threshold_is_refused(self):
        a, b = diagonal_instance(4, 0.2, 5)
        limit = matcore.SINGULARITY_RTOL * np.linalg.norm(a + b)
        with pytest.raises(SingularMatrixError, match="not above 1e-13"):
            scattering.s_entry_resolvent(a, b, scattering.ScatteringQuery(i=0, j=1, tau=limit))
        entry = scattering.s_entry_resolvent(a, b, scattering.ScatteringQuery(i=0, j=1, tau=2.0 * limit))
        assert np.isfinite(entry)

    @pytest.mark.parametrize("i, j", [(0, 4), (4, 0), (-1, 0), (0, -5)])
    @pytest.mark.parametrize("entry", [
        scattering.s_entry_resolvent,
        lambda a, b, q: scattering.s_entry_time_average(a, b, q, 10.0, 100),
        lambda a, b, q: scattering.s_series(a, b, q, 3),
        lambda a, b, q: scattering.s_term_index_sum(a, b, q, 2),
    ], ids=["resolvent", "time-average", "series", "index-sum"])
    def test_entry_out_of_range_is_an_argument_error(self, entry, i, j):
        a, b = diagonal_instance(4, 0.2, 6)
        with pytest.raises(ArgumentError, match=rf"entry \({i}, {j}\) out of range for n = 4"):
            entry(a, b, scattering.ScatteringQuery(i=i, j=j, tau=0.3))


class TestClosedForms:
    def setup_method(self):
        self.a, self.b = diagonal_instance(6, 0.3, 5)
        self.lam = np.real(np.diagonal(self.a))

    def test_order_zero_kronecker(self):
        for (i, j) in [(0, 0), (1, 4), (3, 3)]:
            q = scattering.ScatteringQuery(i=i, j=j, tau=0.2)
            series = scattering.s_series(self.a, self.b, q, 0)
            expected = 1.0 if i == j else 0.0
            assert series.terms[0] == pytest.approx(expected, abs=1e-12)

    def test_first_order_closed_form(self):
        i, j = 1, 4
        tau = 0.2
        q = scattering.ScatteringQuery(i=i, j=j, tau=tau)
        series = scattering.s_series(self.a, self.b, q, 1)
        denom = (self.lam[i] - self.lam[j]) ** 2 / 4.0 + tau**2
        assert series.terms[1] == pytest.approx(1j * tau / denom * self.b[i, j], abs=1e-10)

    def test_second_order_closed_form(self):
        # sign fixed by the operator form of the series, which alone is
        # consistent with orders 0 and 1 and with the series-vs-direct sum
        i, j = 0, 3
        tau = 0.2
        q = scattering.ScatteringQuery(i=i, j=j, tau=tau)
        series = scattering.s_series(self.a, self.b, q, 2)
        denom = (self.lam[i] - self.lam[j]) ** 2 / 4.0 + tau**2
        shift = scattering.lambda_shift(self.lam[i], self.lam[j], tau)
        ssum = np.sum(self.b[i, :] * self.b[:, j] / (self.lam - shift))
        expected = -1j * tau / denom * ssum
        assert series.terms[2] == pytest.approx(expected, abs=1e-10)


class TestIndexSum:
    def setup_method(self):
        self.a, self.b = diagonal_instance(5, 0.25, 6)

    def test_zero_interaction(self):
        q = scattering.ScatteringQuery(i=0, j=1, tau=0.2)
        assert scattering.s_term_index_sum(self.a, np.zeros((5, 5)), q, 2) == 0.0

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_matches_matrix_product_route(self, ell):
        q = scattering.ScatteringQuery(i=1, j=3, tau=0.2)
        series = scattering.s_series(self.a, self.b, q, ell)
        val = scattering.s_term_index_sum(self.a, self.b, q, ell)
        assert abs(val - series.terms[ell]) <= 1e-11

    def test_enumeration_guard(self):
        n = 40
        a = np.diag(np.arange(1.0, n + 1.0))
        with pytest.raises(EnumerationLimitError):
            scattering.s_term_index_sum(a, np.ones((n, n)), scattering.ScatteringQuery(0, 0, 0.1), 6)

    def test_requires_ell_at_least_two(self):
        with pytest.raises(ValueError):
            scattering.s_term_index_sum(self.a, self.b, scattering.ScatteringQuery(0, 0, 0.1), 1)


class TestTimeAverage:
    def test_unperturbed(self):
        a, _ = diagonal_instance(5, 0.0, 7)
        z = np.zeros((5, 5))
        qd = scattering.ScatteringQuery(i=2, j=2, tau=0.3)
        assert abs(scattering.s_entry_time_average(a, z, qd, 60.0) - 1.0) <= 1e-8
        qo = scattering.ScatteringQuery(i=2, j=4, tau=0.3)
        assert abs(scattering.s_entry_time_average(a, z, qo, 60.0)) <= 1e-8

    def test_matches_direct_entry(self):
        a, b = diagonal_instance(5, 0.2, 8)
        q = scattering.ScatteringQuery(i=1, j=2, tau=0.2)
        t_max = 100.0
        abel = scattering.s_entry_time_average(a, b, q, t_max, g=8000)
        direct = scattering.s_entry_resolvent(a, b, q)
        assert abs(abel - direct) <= 2.0 * math.exp(-q.tau * t_max) + 1e-5

    def test_accepts_time_grid(self):
        from pertkit.evolution import TimeGrid

        a, b = diagonal_instance(4, 0.1, 13)
        q = scattering.ScatteringQuery(i=0, j=0, tau=0.3)
        via_grid = scattering.s_entry_time_average(a, b, q, 60.0, g=TimeGrid(4000))
        via_int = scattering.s_entry_time_average(a, b, q, 60.0, g=4000)
        assert via_grid == via_int

    def test_non_diagonal_reference_basis(self):
        # for non-diagonal A the eigenbasis is the sorted Hermitian one
        a = random_hermitian(5, 1.0, 9)
        b = random_hermitian(5, 0.1, 10)
        q = scattering.ScatteringQuery(i=0, j=0, tau=0.25)
        direct = scattering.s_entry_resolvent(a, b, q)
        abel = scattering.s_entry_time_average(a, b, q, 80.0, g=8000)
        assert abs(abel - direct) <= 2.0 * math.exp(-0.25 * 80.0) + 1e-5


class TestUnitarityProbe:
    def test_diagnostic_small_in_window(self):
        a, b = diagonal_instance(5, 0.01, 11)
        defect = scattering.s_matrix_unitarity_defect(a, b, tau=0.1)
        assert defect < 0.1

    def test_diagnostic_tracks_perturbation_size(self):
        # no hard tolerance is promised for the tau limit; the leading
        # non-unitarity is quadratic in the perturbation strength
        a, b = diagonal_instance(5, 0.01, 12)
        d1 = scattering.s_matrix_unitarity_defect(a, b, tau=0.2)
        d2 = scattering.s_matrix_unitarity_defect(a, 2.0 * b, tau=0.2)
        assert 3.0 <= d2 / d1 <= 5.0


class TestBornDemo:
    def test_zero_potential(self):
        s1, closed = scattering.born_demo(16, lambda p: p**2, lambda x: 0.0, 2, 5, 0.1)
        assert s1 == 0.0 and closed == 0.0

    def test_constant_potential_diagonal_only(self):
        vc = lambda x: 1.7
        s_same, _ = scattering.born_demo(16, lambda p: p**2, vc, 3, 3, 0.1)
        s_diff, _ = scattering.born_demo(16, lambda p: p**2, vc, 3, 5, 0.1)
        assert abs(s_same - 1j * 1.7 / 0.1) <= 1e-10
        assert abs(s_diff) <= 1e-12

    def test_gaussian_bump_agreement(self):
        # off-center bump exercises the complex phases of the Fourier route
        v = lambda x: np.exp(-0.5 * (x - 2.0) ** 2)
        s1, closed = scattering.born_demo(32, lambda p: p**2, v, 3, 5, 0.1)
        assert abs(s1 - closed) <= 1e-10
        assert abs(s1) > 0

    def test_small_torus_rejected(self):
        with pytest.raises(ValueError):
            scattering.born_demo(3, lambda p: p, lambda x: 1.0, 0, 0, 0.1)


class TestRutherfordDemo:
    P0, Q0 = (3.0, 2.0, 1.0), (1.0, 2.0, 3.0)

    def test_zero_charge(self):
        assert scattering.rutherford_demo(8, 0.0, self.P0, self.Q0, 2.5, 0.4) == 0.0

    def test_charge_square_law_exact(self):
        v1 = scattering.rutherford_demo(8, 2.0, self.P0, self.Q0, 2.5, 0.4)
        v2 = scattering.rutherford_demo(8, 4.0, self.P0, self.Q0, 2.5, 0.4)
        assert v2 == 4.0 * v1

    def test_tau_halving_on_resonant_shell(self):
        v = scattering.rutherford_demo(8, 2.0, self.P0, self.Q0, 2.5, 0.4)
        v_half = scattering.rutherford_demo(8, 2.0, self.P0, self.Q0, 2.5, 0.2)
        assert 1.7 <= v_half / v <= 2.3

    def test_empty_shell_rejected(self):
        with pytest.raises(ValueError):
            scattering.rutherford_demo(4, 1.0, self.P0, (40.0, 0.0, 0.0), 0.5, 0.4)

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            scattering.rutherford_demo(9, 1.0, self.P0, self.Q0, 2.5, 0.4)

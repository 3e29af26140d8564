import math

import numpy as np
import pytest

from ensembles import random_hermitian
from pertkit import matcore, resolvent
from pertkit.errors import DefinitenessError, EnumerationLimitError, NotHermitianError


def hpd_with_ratio(n, target, seed):
    """Hermitian positive definite A and Hermitian B with an exact
    symmetrized convergence ratio."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(n, 1.0, seed)
    dec = matcore.eig_hermitian(h)
    a = (dec.eigenvectors * (0.5 + 1.5 * rng.uniform(size=n))) @ dec.eigenvectors.conj().T
    b0 = random_hermitian(n, 1.0, seed + 10**6)
    b = b0 * (target / resolvent.symmetrized_ratio(a, b0))
    return a, b


class TestSymmetrizedRatio:
    def test_identity_base(self, rng):
        b = random_hermitian(4, 0.7, 1)
        assert resolvent.symmetrized_ratio(np.eye(4), b) == pytest.approx(matcore.op_norm(b))

    def test_explicit_two_by_two(self):
        # A^{-1/2} B A^{-1/2} = [[0, 0.1/sqrt(2)], [0.1/sqrt(2), 0]]
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert resolvent.symmetrized_ratio(a, b) == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-14)

    def test_commuting_diagonal(self):
        assert resolvent.symmetrized_ratio(np.diag([4.0, 4.0]), np.eye(2)) == pytest.approx(0.25)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            resolvent.symmetrized_ratio(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            resolvent.symmetrized_ratio(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


class TestSeriesTerms:
    def test_zero_perturbation(self):
        a = np.diag([1.0, 2.0])
        ser = resolvent.series_terms(a, np.zeros((2, 2)), 4)
        np.testing.assert_allclose(ser.terms[0], np.diag([1.0, 0.5]))
        for t in ser.terms[1:]:
            np.testing.assert_allclose(t, 0.0)

    def test_scalar_geometric(self):
        b = np.diag([0.3, -0.5])
        ser = resolvent.series_terms(np.eye(2), b, 6)
        for m, t in enumerate(ser.terms):
            np.testing.assert_allclose(t, np.diag([(-0.3) ** m, (0.5) ** m]), atol=1e-14)

    def test_partial_sum_bound(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 0.1], [0.1, 0.0]])
        ser = resolvent.series_terms(a, b, 4)
        inv = matcore.inverse(a + b)
        bound = ser.ratio**4 * matcore.op_norm(inv) / (1.0 - ser.ratio)
        assert matcore.op_norm(ser.partial_sum() - inv) <= bound

    def test_ratio_nan_for_indefinite(self):
        ser = resolvent.series_terms(np.diag([1.0, -2.0]), np.eye(2) * 0.1, 3)
        assert math.isnan(ser.ratio)
        assert not ser.convergent


class TestExactRemainder:
    def test_order_zero_is_full_inverse(self, rng):
        a, b = hpd_with_ratio(5, 0.4, 3)
        np.testing.assert_allclose(resolvent.exact_remainder(a, b, 0), matcore.inverse(a + b))

    def test_zero_perturbation(self):
        a = np.diag([1.0, 3.0])
        np.testing.assert_allclose(resolvent.exact_remainder(a, np.zeros((2, 2)), 2), 0.0)

    def test_explicit_third_order(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 0.1], [0.1, 0.0]])
        ser = resolvent.series_terms(a, b, 3)
        rem = resolvent.exact_remainder(a, b, 3)
        direct = matcore.inverse(a + b) - ser.partial_sum()
        assert matcore.op_norm(rem - direct) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_at_every_order(self, seed):
        a, b = hpd_with_ratio(8, 0.6, seed)
        inv = matcore.inverse(a + b)
        ser = resolvent.series_terms(a, b, 9)
        for k in range(9):
            defect = matcore.op_norm(ser.partial_sum(k) + resolvent.exact_remainder(a, b, k) - inv)
            assert defect <= 1e-10 * matcore.op_norm(inv)

    def test_identity_beyond_convergence(self):
        # the finite-order remainder identity holds even for ratio > 1
        a, b = hpd_with_ratio(6, 1.8, 17)
        inv = matcore.inverse(a + b)
        ser = resolvent.series_terms(a, b, 5)
        assert not ser.convergent
        for k in range(5):
            defect = matcore.op_norm(ser.partial_sum(k) + resolvent.exact_remainder(a, b, k) - inv)
            assert defect <= 1e-9 * matcore.op_norm(inv)

    def test_geometric_slope(self):
        a, b = hpd_with_ratio(10, 0.45, 11)
        inv = matcore.inverse(a + b)
        ser = resolvent.series_terms(a, b, 9)
        resids = [matcore.op_norm(ser.partial_sum(k) - inv) for k in range(1, 9)]
        slope = np.polyfit(np.arange(1, 9), np.log(resids), 1)[0]
        assert slope <= math.log(ser.ratio) + 0.1


class TestFeynmanParameters:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.lam = np.array([0.3, 1.1, 2.4])
        self.a = np.diag(self.lam).astype(complex)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self.b = 0.08 * (g + g.conj().T) / 2

    def test_no_interaction_diagonal(self):
        q = resolvent.SimplexQuadrature(seed=0)
        ent = resolvent.feynman_parameter_entry(self.a, 0 * self.b, 1, 1, 0.7, 0, q)
        assert ent.value == pytest.approx(1.0 / (self.lam[1] + 0.7j))

    def test_no_interaction_offdiagonal(self):
        q = resolvent.SimplexQuadrature(seed=0)
        ent = resolvent.feynman_parameter_entry(self.a, 0 * self.b, 0, 2, 0.7, 3, q)
        assert ent.value == 0

    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (1, 2)])
    def test_matches_direct_inverse_monte_carlo(self, entry):
        i, j = entry
        tau = 1.0
        q = resolvent.SimplexQuadrature(method="monte-carlo", samples_or_depth=40000, seed=5)
        ent = resolvent.feynman_parameter_entry(self.a, self.b, i, j, tau, 6, q)
        direct = matcore.inverse(self.a + self.b + 1j * tau * np.eye(3))[i, j]
        assert abs(ent.value - direct) <= max(1e-6, 3.0 * ent.std_error)

    def test_grid_orders_match_series_terms(self):
        # the order-m simplex integral equals the m-th term of the shifted
        # resolvent series exactly; compare order by order
        tau = 1.0
        q = resolvent.SimplexQuadrature(method="recursive-grid", samples_or_depth=12, seed=0)
        ent = resolvent.feynman_parameter_entry(self.a, self.b, 0, 2, tau, 4, q)
        shifted = self.a + 1j * tau * np.eye(3)
        ser = resolvent.series_terms(shifted, self.b, 5)
        for m, val in enumerate(ent.order_values):
            assert abs(val - ser.terms[m][0, 2]) <= 1e-7

    def test_guards(self):
        q = resolvent.SimplexQuadrature(seed=0)
        with pytest.raises(ValueError):
            resolvent.feynman_parameter_entry(self.a, self.b, 0, 0, -1.0, 2, q)
        with pytest.raises(ValueError):
            resolvent.feynman_parameter_entry(self.b + np.eye(3), self.b, 0, 0, 1.0, 2, q)
        big = np.diag(np.arange(1.0, 41.0))
        with pytest.raises(EnumerationLimitError):
            resolvent.feynman_parameter_entry(big, np.eye(40), 0, 0, 1.0, 6, q)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            resolvent.SimplexQuadrature(method="monte-carlo", samples_or_depth=10)
        with pytest.raises(ValueError):
            resolvent.SimplexQuadrature(method="bogus")

import numpy as np
import pytest

import reference
from ensembles import random_hermitian
from pertkit import matcore, tensor
from pertkit.errors import ShapeError, SingularMatrixError


class TestKroneckerSum:
    def test_single_factor(self):
        a = random_hermitian(3, 1.0, 1)
        k = tensor.KroneckerSum(factors=(a,))
        np.testing.assert_allclose(tensor.kron_sum_materialize(k), a)

    def test_diagonal_spectrum_sums(self):
        k = tensor.KroneckerSum(factors=(np.diag([1.0, 2.0]), np.diag([10.0, 20.0])))
        total = tensor.kron_sum_materialize(k)
        np.testing.assert_allclose(np.diagonal(total), [11.0, 21.0, 12.0, 22.0])

    def test_random_spectrum_additivity(self):
        a1 = random_hermitian(3, 1.0, 2)
        a2 = random_hermitian(3, 1.0, 3)
        total = tensor.kron_sum_materialize(tensor.KroneckerSum(factors=(a1, a2)))
        w = np.sort(np.linalg.eigvalsh(total))
        w1 = np.linalg.eigvalsh(a1)
        w2 = np.linalg.eigvalsh(a2)
        expected = np.sort(np.add.outer(w1, w2).ravel())
        np.testing.assert_allclose(w, expected, atol=1e-10)

    def test_dimension_guard(self):
        big = np.eye(70)
        with pytest.raises(ShapeError):
            tensor.kron_sum_materialize(tensor.KroneckerSum(factors=(big, big)))


class TestExpFactorization:
    def test_zero_time(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 4), random_hermitian(3, 1.0, 5)))
        assert tensor.exp_factorization_check(k, 0.0) <= 1e-14

    def test_diagonal_exact(self):
        k = tensor.KroneckerSum(factors=(np.diag([1.0, -2.0]), np.diag([0.5, 3.0])))
        assert tensor.exp_factorization_check(k, 0.8) <= 1e-14

    def test_random_factors(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(3, 1.0, 6), random_hermitian(2, 1.0, 7)))
        assert tensor.exp_factorization_check(k, 1.3) <= 1e-9


class TestConvolutionResolvent:
    def scalar_pair(self):
        return tensor.KroneckerSum(factors=(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])))

    def test_scalar_partial_fraction_oracle(self):
        # oracle: 1/(1 + 2 - 0 + 2*0.1j) by direct arithmetic
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        conv = tensor.convolution_resolvent(self.scalar_pair(), 0.0, 0.1, quad)
        exact = 1.0 / (3.0 + 0.2j)
        assert abs(conv.value[0, 0] - exact) <= 1e-6
        # raw trapezoid carries the universal -i/(pi*cutoff) tail
        assert abs(conv.raw[0, 0] - exact) == pytest.approx(1.0 / (np.pi * 200.0), rel=1e-3)

    def test_matches_shifted_inverse(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 8), random_hermitian(2, 1.0, 9)))
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        conv = tensor.convolution_resolvent(k, 0.4, 0.2, quad)
        total = tensor.kron_sum_materialize(k)
        exact = matcore.inverse(total - (0.4 - 0.4j) * np.eye(4))
        assert matcore.op_norm(conv.value - exact) <= 1e-3

    def test_raw_defect_halves_with_cutoff(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 10), random_hermitian(2, 1.0, 11)))
        total = tensor.kron_sum_materialize(k)
        exact = matcore.inverse(total - (0.3 - 0.4j) * np.eye(4))
        defects = []
        for cutoff, nodes in ((100.0, 10001), (200.0, 20001), (400.0, 40001)):
            conv = tensor.convolution_resolvent(k, 0.3, 0.2, tensor.LineQuadrature(cutoff, nodes))
            defects.append(matcore.op_norm(conv.raw - exact))
        for coarse, fine in zip(defects, defects[1:]):
            assert 1.4 <= coarse / fine <= 2.6

    def test_translation_covariance(self):
        a1 = random_hermitian(2, 1.0, 12)
        a2 = random_hermitian(2, 1.0, 13)
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        shift = 0.7
        base = tensor.convolution_resolvent(tensor.KroneckerSum(factors=(a1, a2)), 0.2, 0.15, quad)
        moved = tensor.convolution_resolvent(
            tensor.KroneckerSum(factors=(a1 + shift * np.eye(2), a2)), 0.2 + shift, 0.15, quad
        )
        assert matcore.op_norm(base.value - moved.value) <= 1e-5

    def test_two_factors_required(self):
        k = tensor.KroneckerSum(factors=(np.eye(2), np.eye(2), np.eye(2)))
        with pytest.raises(ShapeError):
            tensor.convolution_resolvent(k, 0.0, 0.1, tensor.LineQuadrature(200.0, 2001))

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            tensor.LineQuadrature(cutoff=5.0, nodes=2001)
        with pytest.raises(ValueError):
            tensor.LineQuadrature(cutoff=200.0, nodes=100)


class TestConvolutionSymmetric:
    def test_scalar_oracle(self):
        k = tensor.KroneckerSum(factors=(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])))
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        sym = tensor.convolution_resolvent_symmetric(k, 0.7, 0.2, quad)
        s = 3.0 + 0.4j
        exact = s / (s**2 - 0.49)
        assert abs(sym.value[0, 0] - exact) <= 1e-8

    def test_matrix_case(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 14), random_hermitian(2, 1.0, 15)))
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        sym = tensor.convolution_resolvent_symmetric(k, 0.5, 0.2, quad)
        ref = reference.symmetric_kernel_reference(k, 0.5, 0.2)
        assert matcore.op_norm(sym.value - ref) <= 1e-5

    def test_omega_zero_reduces_to_shifted_inverse(self):
        k = tensor.KroneckerSum(factors=(np.diag([0.4, 1.3]), np.diag([-0.2, 0.9])))
        quad = tensor.LineQuadrature(cutoff=200.0, nodes=20001)
        sym = tensor.convolution_resolvent_symmetric(k, 0.0, 0.25, quad)
        total = tensor.kron_sum_materialize(k)
        exact = matcore.inverse(total + 0.5j * np.eye(4))
        assert matcore.op_norm(sym.value - exact) <= 1e-5

    def test_even_in_omega(self):
        k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 16), random_hermitian(2, 1.0, 17)))
        quad = tensor.LineQuadrature(cutoff=150.0, nodes=15001)
        plus = tensor.convolution_resolvent_symmetric(k, 0.8, 0.2, quad)
        minus = tensor.convolution_resolvent_symmetric(k, -0.8, 0.2, quad)
        assert matcore.op_norm(plus.value - minus.value) <= 1e-12


class TestDiracBlock:
    def test_zero_momentum_diagonal_blocks(self):
        m, z = 1.3, 0.4 + 0.2j
        inv = tensor.dirac_block_inverse((0.0, 0.0, 0.0), m, z)
        np.testing.assert_allclose(inv[:2, :2], np.eye(2) / (m - z), atol=1e-14)
        np.testing.assert_allclose(inv[2:, 2:], -np.eye(2) / (m + z), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_product_residual(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        fwd = tensor.dirac_block_matrix(p, m, z)
        inv = tensor.dirac_block_inverse(p, m, z)
        assert matcore.op_norm(fwd @ inv - np.eye(4)) <= 1e-13

    def test_hermitian_limit(self):
        inv = tensor.dirac_block_inverse((0.3, -0.7, 1.1), 1.0, 0.2 + 0.0j)
        assert matcore.herm_defect(inv) <= 1e-13

    def test_pole_rejected(self):
        # m^2 - z^2 + p^2 = 0 at z = sqrt(m^2 + p^2)
        m, p = 1.0, (1.0, 0.0, 0.0)
        z = np.sqrt(2.0)
        with pytest.raises(SingularMatrixError):
            tensor.dirac_block_inverse(p, m, z)


class TestKleinGordonBlock:
    def test_zero_coupling(self):
        z = 0.7 + 0.1j
        np.testing.assert_allclose(
            tensor.klein_gordon_block_inverse(0.0, z), np.diag([-1 / z, -1 / z])
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_product_residual(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = rng.uniform(0.2, 3.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        fwd = tensor.klein_gordon_block_matrix(a, z)
        inv = tensor.klein_gordon_block_inverse(a, z)
        assert matcore.op_norm(fwd @ inv - np.eye(2)) <= 1e-14

    def test_first_order_form_squares(self):
        a = 1.7
        m = tensor.klein_gordon_first_order_form(a)
        np.testing.assert_allclose(m @ m, a**2 * np.eye(2), atol=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(SingularMatrixError):
            tensor.klein_gordon_block_inverse(1.5, 1.5 + 0j)

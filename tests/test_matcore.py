import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensembles import random_hermitian
from pertkit import matcore
from pertkit.errors import (
    MatrixFormatError,
    NotHermitianError,
    ShapeError,
    SingularMatrixError,
)


class TestOpNorm:
    def test_identity(self):
        assert matcore.op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert matcore.op_norm(np.diag([1.0, -2.0])) == pytest.approx(2.0)

    def test_symmetric_offdiagonal(self):
        # oracle: M*M = diag(0.01, 0.01), so both singular values are 0.1
        m = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert matcore.op_norm(m) == pytest.approx(0.1, abs=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            matcore.op_norm(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixFormatError):
            matcore.op_norm(np.array([[np.nan, 0], [0, 1.0]]))

    @given(seed=st.integers(0, 10**6))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        assert matcore.op_norm(u @ m @ v) == pytest.approx(matcore.op_norm(m), abs=1e-10)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(matcore.inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(matcore.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_well_conditioned(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) + 4 * np.eye(8)
        r = matcore.inverse(m)
        assert matcore.op_norm(m @ r - np.eye(8)) <= 1e-11

    def test_singular_raises(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank one
        with pytest.raises(SingularMatrixError):
            matcore.inverse(m)

    @given(seed=st.integers(0, 10**6))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3 * np.eye(4)
        cond = np.linalg.cond(m)
        back = matcore.inverse(matcore.inverse(m))
        assert matcore.op_norm(back - m) <= 1e-10 * cond**2 * matcore.op_norm(m)


def _svd_says_hermitian(a, rtol):
    return np.linalg.norm(a - a.conj().T, 2) <= rtol * max(np.linalg.norm(a, 2), 1e-300)


def _svd_says_diagonal(a, rtol):
    off = a - np.diag(np.diagonal(a))
    big = np.max(np.abs(off))
    off_norm = big * np.linalg.norm(off / big) if big > 0 else 0.0  # scaled: no underflow
    return off_norm <= rtol * max(np.linalg.norm(a, 2), 1e-300)


def _svd_says_invertible(a):
    s = np.linalg.svd(a, compute_uv=False)
    return not s[-1] < matcore.SINGULARITY_RTOL * max(s[0], 1e-300)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _hermitian(rng, n, rank_one):
    """Random Hermitian matrix, of rank one or with a flat spectrum."""
    u = _unitary(rng, n)
    s = np.zeros(n) if rank_one else np.ones(n)
    s[0] = 1.0
    return (u * s) @ u.conj().T


def _near_hermitian(rng, n, factor, scale, rank_one):
    """``scale * (H + t K)`` whose Hermiticity defect is ``factor`` times the
    threshold, built like the single-matrix property test."""
    h = _hermitian(rng, n, rank_one=False) + np.diag(rng.standard_normal(n))
    k = 1j * _hermitian(rng, n, rank_one)
    target = factor * matcore.HERMITICITY_RTOL
    t = target * np.linalg.norm(h, 2) / np.linalg.norm(2 * k, 2)
    a = h + t * k
    t *= target / (np.linalg.norm(a - a.conj().T, 2) / np.linalg.norm(a, 2))
    return scale * (h + t * k)


#: Defect over threshold: far inside, within 0.1% of and far outside the
#: acceptance boundary, so both the Frobenius certificates and the SVD
#: fallback decide some cases.
FACTORS = (1e-3, 0.3, 1 - 1e-3, 1 + 1e-3, 3.0, 1e3)
SIZES = (1, 2, 3, 8, 33)
#: Overall scales, including ones whose squared entries underflow (1e-200)
#: or come near the top of the floating-point range (1e150).
SCALES = (1e-200, 1e-5, 1.0, 1e150)


class TestGuardPredicates:
    """The Frobenius-certified predicates give exactly the SVD verdicts."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from(SIZES),
        factor=st.sampled_from(FACTORS),
        scale=st.sampled_from(SCALES),
        rank_one=st.booleans(),
    )
    def test_is_hermitian_matches_svd(self, seed, n, factor, scale, rank_one):
        rng = np.random.default_rng(seed)
        h = _hermitian(rng, n, rank_one=False) + np.diag(rng.standard_normal(n))
        k = 1j * _hermitian(rng, n, rank_one)
        rtol = matcore.HERMITICITY_RTOL
        target = factor * rtol
        t = target * np.linalg.norm(h, 2) / np.linalg.norm(2 * k, 2)
        a = h + t * k
        t *= target / (np.linalg.norm(a - a.conj().T, 2) / np.linalg.norm(a, 2))
        a = scale * (h + t * k)
        expected = _svd_says_hermitian(a, rtol)
        assert expected == (factor < 1)
        assert matcore.is_hermitian(a) == expected

    @pytest.mark.parametrize("rtol", [1e-14, 1e-12])
    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from(SIZES),
        factor=st.sampled_from(FACTORS),
        scale=st.sampled_from(SCALES),
    )
    def test_is_diagonal_matches_svd(self, rtol, seed, n, factor, scale):
        rng = np.random.default_rng(seed)
        d = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e -= np.diag(np.diagonal(e))
        a = d + e
        if n > 1:
            t = factor * rtol * np.linalg.norm(d, 2) / np.linalg.norm(e)
            t *= factor * rtol / (np.linalg.norm(t * e) / np.linalg.norm(d + t * e, 2))
            a = d + t * e
        a = scale * a
        expected = _svd_says_diagonal(a, rtol)
        assert expected == (factor < 1 or n == 1)
        assert matcore.is_diagonal(a, rtol) == expected

    def test_is_diagonal_underflowing_off_diagonal(self):
        # the squared off-diagonal entry underflows to zero in an unscaled norm
        a = 1e-200 * np.array([[1.0, 1.0], [0.0, 2.0]])
        assert not matcore.is_diagonal(a)
        assert matcore.is_diagonal(1e-200 * np.diag([1.0, 2.0]))

    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from(SIZES),
        factor=st.sampled_from(FACTORS),
        scale=st.sampled_from(SCALES),
    )
    def test_inverse_matches_svd(self, seed, n, factor, scale):
        rng = np.random.default_rng(seed)
        s = np.logspace(0.0, np.log10(factor * matcore.SINGULARITY_RTOL), n)
        a = scale * ((_unitary(rng, n) * s) @ _unitary(rng, n).conj().T)
        expected = _svd_says_invertible(a)
        if n > 1 and abs(np.log(factor)) > 1.0:
            # within 0.1% of the threshold the construction's own rounding
            # decides which side the computed matrix falls on
            assert expected == (factor > 1)
        try:
            x = matcore.inverse(a)
        except SingularMatrixError:
            assert not expected
        else:
            assert expected
            np.testing.assert_array_equal(x, np.linalg.solve(a, np.eye(n)))

    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from(SIZES),
        slices=st.lists(
            st.tuples(st.sampled_from(FACTORS), st.sampled_from(SCALES), st.booleans()),
            min_size=1,
            max_size=6,
        ),
    )
    def test_stacked_is_hermitian_matches_svd_per_slice(self, seed, n, slices):
        rng = np.random.default_rng(seed)
        rtol = matcore.HERMITICITY_RTOL
        stack = np.array([_near_hermitian(rng, n, f, scale, r1) for f, scale, r1 in slices])
        verdicts = matcore.is_hermitian(stack)
        assert verdicts.dtype == bool and verdicts.shape == (len(slices),)
        for a, (factor, _, _), got in zip(stack, slices, verdicts):
            assert got == _svd_says_hermitian(a, rtol) == (factor < 1)

    def test_stacked_is_hermitian_mixes_scales_in_one_stack(self):
        rng = np.random.default_rng(7)
        rtol = matcore.HERMITICITY_RTOL
        # 1e160 overflows the plain sums of squares, 1e-200 underflows them
        cases = [(f, s) for s in (1e-200, 1.0, 1e150, 1e160) for f in (0.3, 1 - 1e-3, 1 + 1e-3, 3.0)]
        stack = np.array([_near_hermitian(rng, 8, f, s, False) for f, s in cases])
        np.testing.assert_array_equal(matcore.is_hermitian(stack), [f < 1 for f, _ in cases])
        np.testing.assert_array_equal(
            matcore.is_hermitian(stack), [_svd_says_hermitian(a, rtol) for a in stack]
        )

    def test_stacked_is_hermitian_validates_like_the_matrix_test(self):
        for empty in (np.zeros((0, 2, 2)), np.zeros((2, 0, 0))):
            with pytest.raises(MatrixFormatError):
                matcore.is_hermitian(empty)
        with pytest.raises(ShapeError):
            matcore.is_hermitian(np.zeros((2, 2, 3)))
        with pytest.raises(MatrixFormatError):
            matcore.is_hermitian(np.full((2, 2, 2), np.nan))

    def test_exactly_hermitian_eigendecomposition_runs_no_svd(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counting_svd)
        for n in SIZES:
            matcore.eig_hermitian(random_hermitian(n, 1.0, n))
            matcore.is_diagonal(np.diag(np.arange(1.0, n + 1)))
        assert calls == []
        matcore.op_norm(np.eye(2))
        assert calls == [1]

    def test_exactly_hermitian_stack_runs_no_svd(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counting_svd)
        for n in SIZES:
            stack = np.array([random_hermitian(n, 10.0**p, 10 * n + p + 5) for p in (-5, 0, 5)])
            assert matcore.is_hermitian(stack).all()
        assert calls == []


class TestEigHermitian:
    def test_sorted_diagonal(self):
        dec = matcore.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_two_by_two_closed_form(self):
        # oracle: eigenvalues of [[0,1],[1,0]] solve l^2 - 1 = 0
        dec = matcore.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        m = random_hermitian(16, 1.0, 5)
        dec = matcore.eig_hermitian(m)
        v = dec.eigenvectors
        assert matcore.op_norm(v.conj().T @ v - np.eye(16)) <= 1e-12
        assert matcore.op_norm(dec.reconstruct() - m) <= 1e-10 * matcore.op_norm(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            matcore.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    def test_zero(self):
        np.testing.assert_allclose(matcore.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matcore.expm(np.diag([0.3, -1.2]))
        np.testing.assert_allclose(out, np.diag(np.exp([0.3, -1.2])), rtol=1e-12)

    def test_skew_hermitian_gives_unitary(self, rng):
        h = random_hermitian(6, 2.0, 9)
        u = matcore.expm(1j * h)
        assert matcore.op_norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_exp_inverse_pair(self, rng):
        m = random_hermitian(5, 1.0, 3) + 1j * random_hermitian(5, 1.0, 4)
        m *= 5.0 / matcore.op_norm(m)
        prod = matcore.expm(m) @ matcore.expm(-m)
        assert matcore.op_norm(prod - np.eye(5)) <= 1e-9


class TestContour:
    def test_simple_pole_residue(self):
        c = matcore.ContourSpec(center=0.0, radius=1.0)
        val = matcore.contour_integrate(lambda z: 1.0 / (z - 0.3), c)
        assert abs(val - 1.0) <= 1e-12

    def test_no_pole(self):
        c = matcore.ContourSpec(center=0.5 + 0.5j, radius=2.0)
        assert abs(matcore.contour_integrate(lambda z: 1.0 + 0j, c)) <= 1e-14

    def test_double_pole_residue(self):
        # oracle: residue of z/(z-l)^2 at l is d/dz z = 1
        lam = 0.7 - 0.2j
        c = matcore.ContourSpec(center=lam, radius=0.5)
        val = matcore.contour_integrate(lambda z: z / (z - lam) ** 2, c)
        assert abs(val - 1.0) <= 1e-10

    def test_matrix_valued(self):
        m = np.diag([0.2, 0.4]).astype(complex)
        c = matcore.ContourSpec(center=0.2, radius=0.1)
        proj = matcore.contour_integrate(lambda z: np.linalg.inv(z * np.eye(2) - m), c)
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-12)

    def test_digit_doubling_until_floor(self):
        exact = 1.0
        errs = []
        for n in (16, 32, 64):
            c = matcore.ContourSpec(center=0.0, radius=1.0, num_points=n)
            errs.append(abs(matcore.contour_integrate(lambda z: 1.0 / (z - 0.3), c) - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= max(coarse**1.8, 1e-13)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            matcore.ContourSpec(center=0.0, radius=-1.0)
        with pytest.raises(ValueError):
            matcore.ContourSpec(center=0.0, radius=1.0, num_points=8)

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import reference
from ensembles import random_hermitian
from pertkit import matcore
from pertkit.errors import (
    ArgumentError,
    EnumerationLimitError,
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
        # solve takes inverse's verdict, for a matrix and for a vector right-hand side
        for rhs in (np.eye(n)[:, ::-1], np.arange(1.0, n + 1)):
            try:
                y = matcore.solve(a, rhs)
            except SingularMatrixError:
                assert not expected
            else:
                assert expected
                np.testing.assert_array_equal(y, np.linalg.solve(a, rhs.astype(complex)))

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

    def test_a_well_conditioned_solve_runs_no_svd(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counting_svd)
        rng = np.random.default_rng(5)
        for n in SIZES:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * n * np.eye(n)
            matcore.solve(a, np.ones(n))
            matcore.solve(a, np.eye(n))
        assert calls == []
        with pytest.raises(SingularMatrixError):
            matcore.solve(np.array([[1.0, 2.0], [0.5, 1.0]]), np.ones(2))
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
        assert matcore.op_norm((v * dec.eigenvalues) @ v.conj().T - m) <= 1e-10 * matcore.op_norm(m)

    def test_entries_past_half_the_float_range(self):
        # symmetrized by halves: (A + A*) / 2 overflowed to eigenvalues [nan, nan]
        np.testing.assert_array_equal(matcore.eig_hermitian(np.diag([0.0, 1e308])).eigenvalues, [0.0, 1e308])

    @pytest.mark.parametrize("m, want", [
        ([[0.0, 1e308], [1e308, 0.0]], [-1e308, 1e308]),
        ([[0.0, 1e308j], [-1e308j, 0.0]], [-1e308, 1e308]),
        ([[-1.5e308, 0.0], [0.0, 1.5e308]], [-1.5e308, 1.5e308]),
    ], ids=["real-coupling", "complex-coupling", "both-signs"])
    def test_entries_past_half_the_float_range_anywhere(self, m, want):
        dec = matcore.eig_hermitian(np.array(m))
        np.testing.assert_allclose(dec.eigenvalues, want, rtol=4 * np.finfo(float).eps)
        np.testing.assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_halves_give_the_floats_of_the_halved_sum(self, n):
        # halving a normal number is exact, so off the subnormal range the symmetrization by
        # halves is the float (A + A*) / 2: the decomposition is numpy's, bit for bit, for a
        # matrix that is Hermitian to 1e-10 but not exactly
        a = random_hermitian(n, 1.0, n) + 1e-12 * np.random.default_rng(n).standard_normal((n, n))
        dec = matcore.eig_hermitian(a)
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
        np.testing.assert_array_equal(dec.eigenvalues, w)
        np.testing.assert_array_equal(dec.eigenvectors, v)

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


def _expm_case(kind, n, fro):
    """An ``n x n`` matrix of one kind scaled to Frobenius norm ``fro``."""
    if kind == "zero":
        return np.zeros((n, n))
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = {
        "hermitian": (g + g.conj().T) / 2,
        "i-hermitian": 0.5j * (g + g.conj().T),
        "general": g,
        "jordan": np.diag(np.full(n, 0.5)) + np.diag(np.ones(n - 1), 1),
        "bridge": np.array([[1.0, 5.0], [0.0, 2.0]]),
    }[kind]
    return m * (fro / np.linalg.norm(m))


EXPM_CASES = [("zero", 4, 0.0)]
EXPM_CASES += [(kind, n, fro) for kind in ("hermitian", "i-hermitian", "general") for n in (2, 8, 32)
              for fro in (1e-200, 1e-3, 1.0, 10.0, 100.0, 700.0)]
EXPM_CASES += [("jordan", 5, fro) for fro in (1.0, 10.0, 100.0, 700.0)]
EXPM_CASES += [("bridge", 2, fro) for fro in (1e-200, 1.0, 10.0, 100.0, 700.0)]


class TestExpmAgainstScipy:
    """``expm`` is the one Taylor kernel of :func:`matcore.cascade`; scipy's
    Pade ``expm`` is its independent oracle."""

    @pytest.mark.parametrize("kind, n, fro", EXPM_CASES)
    def test_within_rounding_of_scipy(self, kind, n, fro):
        # ||e - r||_2 <= 8 eps (1 + ||M||_F) ||r||_2: the squarings carry the rounding of e^{M / 2^s} up
        # with ||M||; over these 64 cases the error measured at most 0.44 of the bound (the Jordan block at F 10)
        m = _expm_case(kind, n, fro)
        want = scipy.linalg.expm(m)
        err = np.linalg.norm(matcore.expm(m) - want, 2)
        assert err <= 8 * np.finfo(float).eps * (1 + fro) * np.linalg.norm(want, 2)

    def test_entries_of_1e_200_give_the_identity_plus_m(self):
        m = 1e-200 * _expm_case("general", 8, 1.0)
        assert np.array_equal(matcore.expm(m), np.eye(8) + m)

    @pytest.mark.parametrize("m", [np.diag([710.0, 0.0]), 1e200 * np.ones((3, 3))], ids=["e^710", "1e200"])
    def test_an_overflowing_exponential_is_refused(self, m):
        with pytest.raises(ArgumentError, match="^exponential overflows: "):
            matcore.expm(m)

    def test_an_underflowing_exponential_is_finite(self):
        assert np.array_equal(matcore.expm(np.diag([-800.0, 0.0])), np.diag([0.0, 1.0]))


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


class TestSeries:
    @pytest.mark.parametrize("ratio, convergent", [
        (0.5, True), (1.0, False), (2.0, False), (float("nan"), False), (float("inf"), False),
    ])
    def test_convergent_only_for_a_known_ratio_below_one(self, ratio, convergent):
        assert matcore.Series(np.zeros((2, 3)), ratio).convergent is convergent

    def test_partial_sum_of_stacked_terms(self):
        terms = np.arange(24.0).reshape(4, 3, 2)
        ser = matcore.Series(terms, 0.5)
        np.testing.assert_array_equal(ser.partial_sum(0), np.zeros((3, 2)))
        np.testing.assert_array_equal(ser.partial_sum(2), terms[0] + terms[1])
        np.testing.assert_array_equal(ser.partial_sum(), terms.sum(axis=0))


class TestLevelIndexAndDiagonal:
    @pytest.mark.parametrize("i", [-1, 3, 10])
    def test_index_outside_the_levels_is_refused(self, i):
        with pytest.raises(ArgumentError, match="^eigenvalue index out of range$"):
            matcore.check_index(i, 3)

    def test_index_inside_the_levels_passes(self):
        for i in range(3):
            matcore.check_index(i, 3)

    def test_diagonal_of_returns_the_real_diagonal(self):
        d = matcore.diagonal_of(np.diag([1.0 + 1e-20j, -2.0]))
        assert d.dtype == float
        np.testing.assert_array_equal(d, [1.0, -2.0])

    @pytest.mark.parametrize("off", [1e-13, 1e-3])
    def test_diagonal_of_refuses_off_diagonal_entries_above_1e_14(self, off):
        with pytest.raises(MatrixFormatError, match="A must be diagonal"):
            matcore.diagonal_of(np.array([[1.0, off], [off, 2.0]]))

    @pytest.mark.parametrize("imag", [1e-3, 0.5])
    def test_diagonal_of_refuses_an_imaginary_diagonal(self, imag):
        # its real part alone is not the operator: dropping it changed every entry computed from it
        with pytest.raises(NotHermitianError, match="A is not Hermitian"):
            matcore.diagonal_of(np.diag([1.0 + imag * 1j, 2.0, 3.0]))


class TestQuadratureWeights:
    @pytest.mark.parametrize("n, h", [(1, 0.5), (2, 0.1), (7, 1.0 / 7), (200, 0.01)])
    def test_trapezoid_weights_are_the_inline_ones(self, n, h):
        inline = np.full(n + 1, h)
        inline[0] = inline[-1] = h / 2
        assert matcore.trapezoid_weights(n, h).tobytes() == inline.tobytes()
        assert np.sum(matcore.trapezoid_weights(n, h)) == pytest.approx(n * h, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_node_weights_are_simpson_on_an_even_count_and_trapezoid_on_an_odd_one(self, n):
        want = matcore.trapezoid_weights(n, 0.1) if n % 2 else matcore.simpson_weights(n, 0.1)
        assert matcore.node_weights(n, 0.1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", [8, 9, 100, 4001])
    def test_the_simpson_grid_is_the_inline_prologue(self, steps):
        ts, w = matcore.TimeGrid(steps).simpson(7.5, 1)
        ts_ref, w_ref = reference.simpson_grid_ref(steps, 7.5)
        assert ts.tobytes() == ts_ref.tobytes() and w.tobytes() == w_ref.tobytes()

    @pytest.mark.parametrize("steps", [7, 0, -8, 8.0, 10.5, "16", None])
    def test_a_grid_is_an_integer_count_of_at_least_8(self, steps):
        with pytest.raises(ArgumentError, match="^need an integer count of at least 8 steps"):
            matcore.TimeGrid(steps)

    def test_a_numpy_integer_count_is_a_grid(self):
        assert matcore.TimeGrid(np.int64(8)).steps == 8

    def test_the_cap_counts_every_node_and_its_entries(self):
        fits = matcore.GRID_CAP // 4 - 1  # steps + 1 nodes of 4 entries: exactly the cap
        matcore.TimeGrid(fits).check_size(4)
        with pytest.raises(EnumerationLimitError, match=f"^time grid of {fits + 2} nodes x 4 entries exceeds cap"):
            matcore.TimeGrid(fits + 1).check_size(4)
        # the Simpson grid checks its even count: one node more for an odd one
        with pytest.raises(EnumerationLimitError):
            matcore.TimeGrid(matcore.GRID_CAP - 1).simpson(1.0, 1)


class TestOperandContract:
    @pytest.mark.parametrize("b", [np.ones((1, 1)), np.ones((3, 3))], ids=["1x1", "3x3"])
    def test_a_pair_of_two_shapes_names_both(self, b):
        with pytest.raises(ShapeError, match=r"^A and B must have the same shape, got \(2, 2\) and \(%d, %d\)$"
                           % b.shape):
            matcore.as_pair(np.eye(2), b)

    def test_a_pair_is_validated_like_square_matrices(self):
        a, b = matcore.as_pair([[1, 2], [3, 4]], np.eye(2))
        assert a.dtype == b.dtype == complex
        np.testing.assert_array_equal(a, [[1, 2], [3, 4]])
        with pytest.raises(ShapeError, match="square"):
            matcore.as_pair(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(MatrixFormatError):
            matcore.as_pair(np.eye(2), np.full((2, 2), np.nan))

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_a_rate_that_is_not_positive_and_finite_is_refused(self, x):
        with pytest.raises(ArgumentError, match="^tau must be positive$"):
            matcore.check_positive(x, "tau")

    @pytest.mark.parametrize("x", [5e-324, 1.0, 1e300, np.float64(0.5), 3])
    def test_a_positive_finite_rate_passes(self, x):
        matcore.check_positive(x, "eta")

    def test_a_contour_radius_is_a_rate(self):
        for r in (0.0, np.nan, np.inf):
            with pytest.raises(ArgumentError, match="^contour radius must be positive$"):
                matcore.ContourSpec(center=0.0, radius=r)

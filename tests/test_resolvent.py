import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import reference
from ensembles import random_hermitian
from pertkit import matcore, resolvent, scattering, symdiag
from pertkit.errors import ArgumentError, DefinitenessError, EnumerationLimitError, NotHermitianError


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

    def test_partial_sum_sums_the_first_k_terms(self):
        ser = resolvent.series_terms(random_hermitian(4, 1.0, 3) + 4.0 * np.eye(4), random_hermitian(4, 0.5, 4), 6)
        assert isinstance(ser, matcore.Series) and ser.terms.shape == (6, 4, 4)
        for k in range(7):
            # bit for bit the left-to-right sum
            np.testing.assert_array_equal(ser.partial_sum(k), sum(ser.terms[:k], np.zeros((4, 4))))
        np.testing.assert_array_equal(ser.partial_sum(), ser.partial_sum(6))

    def test_no_terms(self):
        ser = resolvent.series_terms(np.diag([1.0, 2.0]), np.zeros((2, 2)), 0)
        assert ser.terms.shape == (0, 2, 2)
        np.testing.assert_array_equal(ser.partial_sum(), np.zeros((2, 2)))


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


class TestIndexPaths:
    LINKS = {0: {2: 0.5, 1: 2j}, 1: {0: 3.0, 2: -1.0}, 2: {1: 1j, 0: 0.25}}

    def paths(self, i, j, m):
        return list(resolvent.index_paths(self.LINKS.__getitem__, i, j, m))

    def test_paths_come_in_link_order_with_their_weights(self):
        assert self.paths(0, 0, 2) == [((0, 2, 0), 0.125), ((0, 1, 0), 6j)]
        assert self.paths(0, 2, 3) == [((0, 2, 1, 2), -0.5j), ((0, 2, 0, 2), 0.0625), ((0, 1, 0, 2), 3j)]
        assert self.paths(1, 1, 1) == []

    def test_no_links(self):
        assert self.paths(1, 1, 0) == [((1,), 1.0 + 0.0j)]
        assert self.paths(1, 2, 0) == []

    def test_a_negative_length_is_an_argument_error(self):
        with pytest.raises(ArgumentError, match="^m must be nonnegative$"):
            self.paths(0, 0, -1)

    def test_a_walk_past_the_cap_is_refused_before_it_starts(self, monkeypatch):
        # from 0 over three links of every index: 1 + 3 + 9 partial paths are extended
        links = {0: 1.0, 1: 1.0, 2: 1.0}
        monkeypatch.setattr(resolvent, "PATH_CAP", 13)
        assert len(list(resolvent.index_paths(lambda r: links, 0, 0, 3))) == 9
        monkeypatch.setattr(resolvent, "PATH_CAP", 12)
        walk = resolvent.index_paths(lambda r: links, 0, 0, 3)
        with pytest.raises(EnumerationLimitError, match="path enumeration exceeds cap 12"):
            next(walk)

    def test_a_dense_index_sum_stops_past_the_cap(self, monkeypatch):
        # a full 4 x 4 B at order 5: the sweep's layers 0-3 hold 1, 4, 16 and 40 keys of 4 links each, and
        # layer 4's 80 keys link into j once each: 4 + 16 + 64 + 160 + 80 = 324 links
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        q = scattering.ScatteringQuery(0, 1, 0.5)
        monkeypatch.setattr(resolvent, "PATH_CAP", 324)
        scattering.s_term_index_sum(a, np.ones((4, 4)), q, 5)
        resolvent.feynman_parameter_entry(a, np.ones((4, 4)), 0, 1, 0.5, 5, resolvent.SimplexQuadrature())
        monkeypatch.setattr(resolvent, "PATH_CAP", 323)
        with pytest.raises(EnumerationLimitError, match="^path enumeration exceeds cap 323$"):
            scattering.s_term_index_sum(a, np.ones((4, 4)), q, 5)
        with pytest.raises(EnumerationLimitError, match="^path enumeration exceeds cap 323$"):
            resolvent.feynman_parameter_entry(a, np.ones((4, 4)), 0, 1, 0.5, 5, resolvent.SimplexQuadrature())

    def test_one_path_runs_at_any_size(self):
        # B = I has the one path 0 -> 0 -> ... -> 0 however large n**m is
        lam0, tau = 1.0, 0.1
        big = np.diag(np.arange(lam0, 41.0))
        entry = resolvent.feynman_parameter_entry(big, np.eye(40), 0, 0, tau, 6, resolvent.SimplexQuadrature())
        for m, value in enumerate(entry.order_values):
            assert value == pytest.approx((-1) ** m / (lam0 + 1j * tau) ** (m + 1), rel=1e-12)
        pref = scattering.term_prefactor(lam0, lam0, tau, 6)
        shift = scattering.lambda_shift(lam0, lam0, tau)
        got = scattering.s_term_index_sum(big, np.eye(40), scattering.ScatteringQuery(0, 0, tau), 6)
        assert got == pytest.approx(pref / (lam0 - shift) ** 5, rel=1e-12)


class TestWalkProperties:
    """The up-front count against a brute-force count of the partial paths,
    and the carried weight against the product of the path's entries."""

    @staticmethod
    def partial_paths(links, i, m):
        if m == 0:
            return 0
        return 1 + sum(TestWalkProperties.partial_paths(links, t, m - 1) for t in links(i))

    def check_walk(self, monkeypatch, links, i, j, m, entry):
        count = self.partial_paths(links, i, m)
        monkeypatch.setattr(resolvent, "PATH_CAP", count)
        walked = list(resolvent.index_paths(links, i, j, m))
        for path, weight in walked:
            want = math.prod((entry(r, c) for r, c in zip(path, path[1:])), start=1.0 + 0.0j)
            assert np.array(weight).tobytes() == np.array(want).tobytes()  # bit for bit
        if count:
            monkeypatch.setattr(resolvent, "PATH_CAP", count - 1)
            with pytest.raises(EnumerationLimitError):
                next(resolvent.index_paths(links, i, j, m))
        return walked

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_patterns(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(0, 5))
        pattern = rng.uniform(size=(n, n)) < rng.uniform(0.2, 0.9)
        b = pattern * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        walked = self.check_walk(monkeypatch, resolvent.dense_links(b).__getitem__, i, j, m, lambda r, c: b[r, c])
        every = [(i, *mid, j) for mid in itertools.product(range(n), repeat=max(m - 1, 0))] if m else [(i,)] * (i == j)
        assert [p for p, _ in walked] == [p for p in every if all(pattern[r, c] for r, c in zip(p, p[1:]))]

    @pytest.mark.parametrize("seed", range(6))
    def test_interaction_closures(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        rule = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 1),
                                       max_particles=5)
        p = int(rng.integers(-1, 2))
        seeds = [symdiag.MultisetState.of(("a", (p,)), ("b", (-p,))), symdiag.MultisetState.of(("c", (0,)))]
        bop = symdiag.build_interaction(rule, seeds, depth=2)
        i, j = (bop.basis[int(k)] for k in rng.integers(0, len(bop.basis), size=2))
        for m in range(5):
            self.check_walk(monkeypatch, bop.neighbors, i, j, m, bop.entry)


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
    def test_matches_direct_inverse_lattice(self, entry):
        i, j = entry
        tau = 1.0
        q = resolvent.SimplexQuadrature(method="lattice", samples_or_depth=8, seed=5)
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
        big = np.diag(np.arange(1.0, 41.0))  # one path at every order: the 40^6 index tuples are never formed
        entry = resolvent.feynman_parameter_entry(big, np.eye(40), 0, 0, 1.0, 6, q)
        assert entry.value == pytest.approx(sum((-1) ** m / (1.0 + 1.0j) ** (m + 1) for m in range(7)), rel=1e-12)

    def test_quadrature_validation(self):
        with pytest.raises(ArgumentError, match="^lattice needs at least 2 shifts$"):
            resolvent.SimplexQuadrature(method="lattice", samples_or_depth=1)
        for method in ("bogus", "monte-carlo"):
            with pytest.raises(ArgumentError, match=f"^unknown simplex method '{method}'$"):
                resolvent.SimplexQuadrature(method=method)
        for method in ("lattice", "recursive-grid"):
            with pytest.raises(ArgumentError, match="^seed must be nonnegative$"):
                resolvent.SimplexQuadrature(method, 4, seed=-1)


class TestSimplexNodes:
    @pytest.mark.parametrize("m, depth", [(1, 12), (3, 12), (4, 12), (5, 10), (4, 20), (2, 2)])
    def test_grid_is_bit_equal_to_the_node_by_node_loop(self, m, depth):
        q = resolvent.SimplexQuadrature("recursive-grid", depth, 0)
        x, w = resolvent._simplex_nodes(m, q, np.empty(q.points(m) * (m + 1)))
        want_x, want_w = reference.simplex_nodes_ref(m, q)
        assert (x.tobytes(), w.tobytes()) == (want_x.tobytes(), want_w.tobytes())

    @pytest.mark.parametrize("m, shifts, seed", [(1, 2, 0), (2, 8, 3), (3, 8, 7), (4, 3, 11), (8, 2, 5)])
    def test_lattice_is_the_point_by_point_map(self, m, shifts, seed):
        q = resolvent.SimplexQuadrature("lattice", shifts, seed)
        x, w = resolvent._simplex_nodes(m, q, np.empty(q.points(m) * (m + 1)))
        want_x, want_w = reference.lattice_nodes_ref(m, q)
        assert x.shape == (251 * shifts, m + 1) and (x >= 0).all()
        # the same float operations in the same order, but numpy's power and the interpreter's may round apart
        assert np.abs(x - want_x).max() <= 4 * np.finfo(float).eps and (w == want_w).all()

    def test_the_generator_is_the_minimax_p2_choice(self):
        # P_2(z) = -1 + mean_k prod_d (1 + 2 pi^2 B_2({k z_d / N})), B_2(t) = t^2 - t + 1/6: the lattice's
        # worst-case error for periodic integrands of square-integrable mixed first derivatives (Dick, Kuo and
        # Sloan, Acta Numerica 22 (2013) 133).  Each generator a is scored by its largest ratio to the best P_2
        # of each dimension 2-8.  a, N - a (every axis reflected) and a^-1 mod N (the axes in reverse) give one
        # point set up to those symmetries, hence the same P_2; 97 is one of its four generators.
        start = time.perf_counter()
        n, gens = resolvent.LATTICE_POINTS, np.arange(1, resolvent.LATTICE_POINTS)
        k = np.arange(n)
        z = np.ones((len(gens), 8), dtype=np.int64)
        for d in range(1, 8):
            z[:, d] = z[:, d - 1] * gens % n
        t = (k[None, :, None] * z[:, None, :] % n) / n
        factors = 1 + 2 * np.pi**2 * (t * t - t + 1 / 6)  # (generator, point, axis)
        p2 = np.cumprod(factors, axis=2).mean(axis=1)[:, 1:] - 1  # dimensions 2-8
        score = (p2 / p2.min(axis=0)).max(axis=1)
        best = score.min()
        tied = gens[score <= best * (1 + 1e-12)].tolist()
        a = resolvent.LATTICE_GENERATOR
        assert tied == sorted({a, n - a, pow(a, -1, n), n - pow(a, -1, n)}) == [44, 97, 154, 207]
        assert np.sort(score)[4] > 1.03 * best  # the next generator is 3% worse: measured 1.2366 against 1.1986
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize("depth", [646, 4000])
    def test_a_depth_whose_cube_exceeds_the_cap_is_refused_before_the_gauss_legendre_rule(self, depth):
        # leggauss(depth) takes O(depth^2) memory and O(depth^3) time: 4.2 s and 122 MiB at 4,000;
        # 645**3 is the last cube within INTEGRAND_CAP = 2**28
        a, b = np.diag([1.0, 2.0]), 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])  # one order-1 path, 0 -> 1
        q = resolvent.SimplexQuadrature("recursive-grid", depth, 0)
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match=f"^recursive-grid depth {depth} cubed exceeds cap 268435456$"):
            resolvent.feynman_parameter_entry(a, b, 0, 1, 0.5, 1, q)
        assert time.perf_counter() - start < 0.1
        assert 645**3 <= resolvent.INTEGRAND_CAP < 646**3


class TestFeynmanExactness:
    """Hermite-Genocchi: the order-m simplex integral is the Neumann term
    ``((-D^-1 B)^m D^-1)_ij`` of ``D = A + i tau``, so a fine product grid
    meets ``series_terms`` to rounding, order by order, and the lattice rule
    within its standard errors."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_depth_16_grid_orders_are_the_neumann_terms(self, n):
        rng = np.random.default_rng(n)
        lam = rng.uniform(1.0, 3.0, n)
        b = random_hermitian(n, 0.5, n)
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        tau = 0.5
        q = resolvent.SimplexQuadrature("recursive-grid", 16, 0)
        got = resolvent.feynman_parameter_entry(np.diag(lam), b, i, j, tau, 4, q).order_values
        want = resolvent.series_terms(np.diag(lam) + 1j * tau * np.eye(n), b, 5).terms[:, i, j]
        for m in range(5):
            # |term m| <= (|B|^m)_ij / |min lam + i tau|^(m+1); over 60 draws (n 3-8, lam in [1, 3],
            # tau 0.5) the error measured at most 3.4e-16 of that scale
            scale = np.linalg.matrix_power(np.abs(b), m)[i, j] / abs(lam.min() + 1j * tau) ** (m + 1)
            assert abs(got[m] - want[m]) <= 1e-14 * scale, (m, abs(got[m] - want[m]) / scale)

    @staticmethod
    def workload_draw(seed, n):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(1.0, 3.0, n)
        b = random_hermitian(n, 1.0, 1000 + seed)
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        return lam, 0.3 * b / np.linalg.norm(b, 2), i, j

    def test_the_lattice_rule_meets_the_neumann_terms_within_its_standard_errors(self):
        # the CLI's rule (8 shifts of 251 points) on the Feynman jobs' shapes, seeds 1-30: each order m >= 1
        # within K sigma_m plus the rounding of the order's scale.  K = 6 is past the Student-t factor for
        # 7 degrees of freedom at two-sided 0.001 (5.41).  Of the 390 orders, 372 have sigma_m above rounding;
        # their |err| / sigma_m measured a median of 0.70 and a maximum of 5.35, and 2.2% of them passed 3,
        # where Student's t with 7 degrees of freedom puts 2.0%
        k, start, worst = 6.0, time.perf_counter(), 0.0
        for seed in range(1, 31):
            for n, order in ((6, 3), (6, 4), (10, 3), (8, 3)):
                lam, b, i, j = self.workload_draw(seed, n)
                got = resolvent.feynman_parameter_entry(np.diag(lam), b, i, j, 0.5, order,
                                                        resolvent.SimplexQuadrature(seed=seed))
                want = resolvent.series_terms(np.diag(lam) + 0.5j * np.eye(n), b, order + 1).terms[:, i, j]
                for m in range(1, order + 1):
                    err, sigma = abs(got.order_values[m] - want[m]), got.order_std_errors[m]
                    scale = np.linalg.matrix_power(np.abs(b), m)[i, j] / abs(lam.min() + 0.5j) ** (m + 1)
                    assert err <= k * sigma + 1e-14 * scale, (seed, n, order, m, err / sigma)
                    if sigma > 1e-14 * scale:
                        worst = max(worst, err / sigma)
        assert time.perf_counter() - start < 5.0
        assert worst > 1.0  # the standard errors are not so wide that no error comes near them


class TestBlockedFeynmanIntegrand:
    """The integrand, evaluated per block of samples by a multiplication chain,
    a reciprocal and a gemv, against the one-shot (samples, paths) ``** (m + 1)``
    formula of ``tests/reference.py``, within a rounding bound."""

    @staticmethod
    def assert_within_rounding(got, want, magnitudes):
        # order m: |got - want| <= 4 (m + 2) eps A_m, A_m the order's sum of moduli
        eps = np.finfo(float).eps
        bounds = [4 * (m + 2) * eps * a_m for m, a_m in enumerate(magnitudes)]
        for m, (g, v) in enumerate(zip(got.order_values, want.order_values)):
            assert abs(g - v) <= bounds[m], (m, abs(g - v) / (eps * magnitudes[m]))
        # each side's running total adds one rounding of at most eps |partial sum| per order
        slack = 2 * len(bounds) * eps * sum(abs(v) for v in want.order_values)
        assert abs(got.value - want.value) <= sum(bounds) + slack
        assert abs(got.std_error - want.std_error) <= 1e-12 * want.std_error
        # an order's standard error moves with its shift means, each within about that order's rounding bound
        for m, (g, v) in enumerate(zip(got.order_std_errors, want.order_std_errors)):
            assert abs(g - v) <= bounds[m], (m, abs(g - v) / (eps * magnitudes[m]))

    @pytest.mark.parametrize("n, m_max", [(2, 4), (3, 4), (5, 4), (8, 3), (12, 3), (12, 4)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense-B", "sparse-B"])
    @pytest.mark.parametrize("q", [
        # 1,004 points: n = 12 takes blocks of 840 and 180 rows at orders 3 and 4, and neither size divides it
        resolvent.SimplexQuadrature("lattice", 4, 3),
        resolvent.SimplexQuadrature("recursive-grid", 3, 0),
    ], ids=["lattice", "recursive-grid"])
    def test_within_rounding_of_the_one_shot_integrand(self, n, m_max, sparse, q):
        rng = np.random.default_rng(100 * n + m_max)
        a = np.diag(rng.uniform(1.0, 3.0, n))
        b = random_hermitian(n, 0.3, n)
        if sparse:
            b = b * (rng.uniform(size=(n, n)) < 0.5)
            b = (b + b.conj().T) / 2
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        got = resolvent.feynman_parameter_entry(a, b, i, j, 0.5, m_max, q)
        self.assert_within_rounding(got, *reference.feynman_parameter_entry_ref(a, b, i, j, 0.5, m_max, q))

    def test_a_workload_sized_entry_in_many_blocks(self):
        # n = 6, order 4: 216 order-4 paths in 56 columns; 80 shifts, 20,080 points, in 18 blocks of 1,170, the
        # last one of 190
        a, b = np.diag(np.linspace(1.0, 3.0, 6)), random_hermitian(6, 0.3, 61)
        q = resolvent.SimplexQuadrature("lattice", 80, seed=7)
        got = resolvent.feynman_parameter_entry(a, b, 0, 3, 0.5, 4, q)
        self.assert_within_rounding(got, *reference.feynman_parameter_entry_ref(a, b, 0, 3, 0.5, 4, q))
        tracemalloc.start()
        try:
            resolvent.feynman_parameter_entry(a, b, 0, 3, 0.5, 4, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the one-shot formula's complex temporaries peak at 199 MB and a whole float64 x @ lam_rows.T takes
        # 35 MB; one block's buffers and the nodes measure about 4.5 MiB
        assert peak < 8 * 2**20


    def test_one_set_of_buffers_serves_every_order(self, monkeypatch):
        # the node and block buffers are sized once, for the largest order, and every order writes into views of them
        calls, block_buffers = [], resolvent._block_buffers
        monkeypatch.setattr(resolvent, "_block_buffers", lambda shapes: calls.append(shapes) or block_buffers(shapes))
        a, b = np.diag(np.linspace(1.0, 3.0, 6)), random_hermitian(6, 0.3, 61)
        got = resolvent.feynman_parameter_entry(a, b, 0, 3, 0.5, 4, resolvent.SimplexQuadrature(seed=7))
        # orders 1-4 have 1, 6, 21 and 56 columns at 2,008 points; order 0 has none, 0 != 3
        assert calls == [[(2008, 1), (2008, 6), (2008, 21), (2008, 56)]] and got.order_values[0] == 0


class TestMultisetColumns:
    """The sweep's columns, the paths summed by the sorted levels of their
    inner indices: the column weights against a brute-force sum over index
    tuples and against the walk's paths grouped here, the column counts, its
    link count against a brute-force count, its reach past the walk's cap, and
    the grouped integral against the per-path one on a rule that is
    exchangeable by construction."""

    @staticmethod
    def draw(seed, n, sparse):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(1.0, 3.0, n).tolist()
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if sparse:
            b = b * (rng.uniform(size=(n, n)) < 0.5)
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        return lam, b, i, j

    @staticmethod
    def columns(lam, b, i, j, m):
        return resolvent.multiset_columns(resolvent.dense_links(b).__getitem__, lam, i, j, m)[m]

    @staticmethod
    def within_summation_order(got, want, moduli, n, m):
        # both sides sum at most n**(m-1) products of m entries, in different orders and groupings
        eps = np.finfo(float).eps
        for row, value in want.items():
            assert abs(got.get(row, 0) - value) <= 2 * (m + n ** max(m - 1, 0)) * eps * moduli[row], row

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense-B", "sparse-B"])
    def test_column_weights_are_the_sums_over_index_tuples(self, n, m, sparse):
        lam, b, i, j = self.draw(10 * n + m, n, sparse)
        lam_rows, wts = self.columns(lam, b, i, j, m)
        want, moduli = {}, {}
        tuples = [(i, *mid, j) for mid in itertools.product(range(n), repeat=m - 1)] if m else [(i,)] * (i == j)
        for p in tuples:
            row = (lam[i],) if m == 0 else (lam[i], *sorted(lam[k] for k in p[1:-1]), lam[j])
            weight = math.prod((b[r, c] for r, c in zip(p, p[1:])), start=1.0 + 0.0j)
            want[row] = want.get(row, 0) + weight
            moduli[row] = moduli.get(row, 0) + abs(weight)
        got = dict(zip(map(tuple, lam_rows.tolist()), wts.tolist()))
        assert len(got) == len(wts) and lam_rows.shape == (len(wts), m + 1)
        assert got.keys() <= want.keys()
        self.within_summation_order(got, want, moduli, n, m)

    @pytest.mark.parametrize("seed", range(30))
    def test_one_sweep_gives_the_walks_columns_at_every_order(self, seed):
        # n 1-8, orders 0-5, dense, sparse and degenerate levels: the column set of each order is the walk's
        # grouping of its paths by sorted inner levels, and each weight its sum within summation order
        rng = np.random.default_rng(seed)
        n, m_max = int(rng.integers(1, 9)), int(rng.integers(0, 6))
        lam, b, i, j = self.draw(seed, n, sparse=seed % 3 == 1)
        if seed % 3 == 2:
            lam = rng.choice([1.0, 2.5], size=n).tolist()
        swept = resolvent.multiset_columns(resolvent.dense_links(b).__getitem__, lam, i, j, m_max)
        assert len(swept) == m_max + 1
        for m, (lam_rows, wts) in enumerate(swept):
            want, moduli = {}, {}
            for path, weight in resolvent.index_paths(resolvent.dense_links(b).__getitem__, i, j, m):
                row = (lam[i], *sorted(lam[k] for k in path[1:-1]), lam[j])[:m + 1]
                want[row] = want.get(row, 0) + weight
                moduli[row] = moduli.get(row, 0) + abs(weight)
            got = dict(zip(map(tuple, lam_rows.tolist()), wts.tolist()))
            assert got.keys() == want.keys() and len(got) == len(wts)
            self.within_summation_order(got, want, moduli, n, m)

    @pytest.mark.parametrize("n, m, columns", [(6, 4, 56), (10, 3, 55), (8, 3, 36), (6, 3, 21), (4, 5, 35), (3, 1, 1)])
    def test_a_dense_b_has_a_column_per_multiset(self, n, m, columns):
        # C(n + m - 2, m - 1) multisets of m - 1 intermediate levels out of n distinct ones
        lam, b, i, j = self.draw(n, n, sparse=False)
        lam_rows, wts = self.columns(lam, b, i, j, m)
        assert len(wts) == columns == math.comb(n + m - 2, m - 1)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_a_degenerate_a_merges_equal_levels(self, m):
        # levels 1.0 and 2.5, each twice: a multiset of m - 1 intermediates is its count of 1.0's, 0 to m - 1
        lam = [1.0, 2.5, 1.0, 2.5]
        b = np.random.default_rng(m).standard_normal((4, 4))
        lam_rows, wts = self.columns(lam, b, 0, 3, m)
        assert len(wts) == m
        assert sorted(int(np.sum(row[1:-1] == 1.0)) for row in lam_rows) == list(range(m))
        assert abs(wts.sum() - np.linalg.matrix_power(b, m)[0, 3]) <= 1e-13 * np.linalg.matrix_power(abs(b), m)[0, 3]

    @pytest.mark.parametrize("seed", range(12))
    def test_the_link_count_is_checked_before_each_layer(self, monkeypatch, seed):
        # the keys of layer L are the (index, sorted inner levels) of the L-link walks from i; every layer
        # below m_max follows each key's links, the last only those into j
        rng = np.random.default_rng(seed)
        n, m_max = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        lam, b, i, j = self.draw(seed, n, sparse=True)
        links = resolvent.dense_links(b).__getitem__
        walks, count = [(i,)], 0
        for layer in range(m_max):
            keys = {(w[-1], tuple(sorted(lam[k] for k in w[1:-1]))) for w in walks}
            count += sum(len(links(r)) if layer < m_max - 1 else j in links(r) for r, _ in keys)
            walks = [w + (t,) for w in walks for t in links(w[-1])]
        monkeypatch.setattr(resolvent, "PATH_CAP", count)
        resolvent.multiset_columns(links, lam, i, j, m_max)
        monkeypatch.setattr(resolvent, "PATH_CAP", count - 1)
        with pytest.raises(EnumerationLimitError, match=f"^path enumeration exceeds cap {count - 1}$"):
            resolvent.multiset_columns(links, lam, i, j, m_max)

    def test_both_dense_sums_run_at_n_10_order_7(self):
        # the walk would extend 1 + 10 + ... + 10**6 partial paths, past PATH_CAP; the sweep follows 120,130
        # links into 5,005 order-7 columns.  The entry lands within 3 standard errors of the Neumann sum, and
        # the index sum meets the matrix-product series
        lam, b, i, j = TestFeynmanExactness.workload_draw(7, 10)
        a, tau = np.diag(lam), 0.5
        start = time.perf_counter()
        entry = resolvent.feynman_parameter_entry(a, b, i, j, tau, 7, resolvent.SimplexQuadrature(seed=7))
        assert time.perf_counter() - start < 1.0
        neumann = resolvent.series_terms(a + 1j * tau * np.eye(10), b, 8).terms[:, i, j].sum()
        assert abs(entry.value - neumann) <= 3 * entry.std_error
        q = scattering.ScatteringQuery(i, j, tau)
        start = time.perf_counter()
        term = scattering.s_term_index_sum(a, b, q, 7)
        assert time.perf_counter() - start < 1.0
        want = scattering.s_series(a, b, q, 7).terms[7]
        assert abs(term - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("seed", range(8))
    def test_on_an_exchangeable_rule_grouping_changes_only_rounding(self, seed):
        # every Dirichlet sample taken in all (m + 1)! coordinate orders: the rule is symmetric, so each path's
        # integral depends only on its multiset and the grouped integral is the per-path one up to rounding
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 6)), int(rng.integers(3, 5))
        lam, b, i, j = self.draw(seed, n, sparse=False)
        walked = list(resolvent.index_paths(resolvent.dense_links(b).__getitem__, i, j, m))
        e = rng.exponential(size=(100, m + 1))
        x0 = e / e.sum(axis=1, keepdims=True)
        x = np.concatenate([x0[:, list(order)] for order in itertools.permutations(range(m + 1))])
        per_rows = np.array([[lam[k] for k in p] for p, _ in walked])
        per_wts = np.array([weight for _, weight in walked])
        lam_rows, wts = self.columns(lam, b, i, j, m)
        assert len(wts) < len(walked)

        def integral(x, rows, weights):
            return np.mean(resolvent._path_sums(x, rows, weights, 0.5, m, resolvent._block_buffers([(len(x), len(weights))])))

        # A_m, the order's sum of moduli, scales the rounding of either evaluation (TestBlockedFeynmanIntegrand)
        magnitude = np.mean((abs(per_wts) / abs(x @ per_rows.T + 0.5j) ** (m + 1)).sum(axis=1))
        bound = 4 * (m + 2) * np.finfo(float).eps * magnitude
        assert abs(integral(x, lam_rows, wts) - integral(x, per_rows, per_wts)) <= bound
        # on the draws alone, not symmetrized, the two estimators differ by Monte Carlo error, far past rounding
        assert abs(integral(x0, lam_rows, wts) - integral(x0, per_rows, per_wts)) > 1e6 * bound

"""The factor-once resolvent paths against the per-shift references they
replaced (``reference.py``): contour coefficients in the eigenbasis of ``A``,
scattering entries and series from one eigendecomposition of ``A`` per job,
one Hermiticity decision per operand matrix,
the chunked line convolution and the CLI's exact remainders from one inverse
and one solve.

Agreement is required to 1e-12 relative.  A value that vanishes in exact
arithmetic is compared against the size of the terms that produce it: an
order-``k`` contour coefficient against ``r (||B||/r)^k`` on a circle of
radius ``r``, an order-``k`` scattering term against ``(||B||/tau)^k``.
"""

import tracemalloc

import numpy as np
import pytest

import reference
from ensembles import random_hermitian
from pertkit import cli, evolution, iotools, matcore, resolvent, scattering, spectral, tensor

SIZES = [1, 2, 3, 8, 33]
ORDERS = range(7)


def hermitian_pair(n, seed, diagonal=False, b_norm=0.2):
    """``A`` with gaps in [1, 2] (diagonal or in a random unitary basis) and a
    Hermitian ``B`` of spectral norm ``b_norm``."""
    rng = np.random.default_rng(seed)
    lam = np.cumsum(1.0 + rng.uniform(size=n))
    if diagonal:
        a = np.diag(lam).astype(complex)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * lam) @ q.conj().T
        a = (a + a.conj().T) / 2.0
    b = random_hermitian(n, 1.0, seed + 1)
    return a, b * (b_norm / matcore.op_norm(b))


class TestContourCoefficients:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_eigenvalue_coefficients_match_per_order_quadrature(self, n, diagonal):
        a, b = hermitian_pair(n, 10 * n, diagonal)
        i = n // 2
        for order in ORDERS:
            ser = spectral.eigenvalue_coefficients(a, b, i, order)
            ref = reference.eigenvalue_coefficients_ref(a, b, i, order, ser.contour)
            r = ser.contour.radius
            scale = r * (matcore.op_norm(b) / r) ** np.arange(order + 1)
            assert ser.coefficients[0] == ref[0]
            assert np.all(np.abs(ser.coefficients - ref) <= 1e-12 * np.maximum(np.abs(ref), scale))

    @pytest.mark.parametrize("n", SIZES)
    def test_projection_coefficients_match_per_order_quadrature(self, n):
        a, b = hermitian_pair(n, 20 * n)
        i = n // 2
        c = spectral.default_contour(np.linalg.eigvalsh(a), i, num_points=64)
        for order in ORDERS:
            got = spectral.projection_coefficients(a, b, c, order).coefficients
            ref = reference.projection_coefficients_ref(a, b, c, order)
            assert len(got) == order + 1
            for k, (x, y) in enumerate(zip(got, ref)):
                scale = (matcore.op_norm(b) / c.radius) ** k
                assert matcore.op_norm(x - y) <= 1e-12 * max(matcore.op_norm(y), scale)

    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_eigenvalue_coefficients_match_rayleigh_schrodinger_sums(self, n):
        # an oracle outside the contour method: exact residue sums in the
        # eigenbasis of a non-diagonal A
        a, b = hermitian_pair(n, 30 * n)
        for i in {0, n // 2, n - 1}:
            ser = spectral.eigenvalue_coefficients(a, b, i, 3)
            r = ser.contour.radius
            scale = r * (matcore.op_norm(b) / r) ** np.arange(1, 4)
            assert np.all(np.abs(ser.coefficients[1:] - reference.rayleigh_schrodinger(a, b, i)) <= 1e-12 * scale)

    def test_a_decomposition_stands_in_for_a(self):
        a, b = hermitian_pair(8, 5)
        dec = matcore.eig_hermitian(a)
        np.testing.assert_array_equal(
            spectral.eigenvalue_coefficients(dec, b, 3, 4).coefficients,
            spectral.eigenvalue_coefficients(a, b, 3, 4).coefficients,
        )

    def test_quadratures_per_call(self, monkeypatch):
        calls = []
        original = matcore.contour_integrate

        def counting(f, c):
            calls.append(c.num_points)
            return original(f, c)

        monkeypatch.setattr(matcore, "contour_integrate", counting)
        a, b = hermitian_pair(8, 6)
        spectral.eigenvalue_coefficients(a, b, 3, 6)
        assert len(calls) == 1 + 6  # the winding check and one quadrature per order
        calls.clear()
        spectral.projection_coefficients(a, b, spectral.default_contour(np.linalg.eigvalsh(a), 3), 6)
        assert len(calls) == 2  # the winding check and every order at once


class TestScatteringEntries:
    TAUS = (0.1, 0.5, 2.0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_unitarity_defect_matches_per_entry_solves(self, n, diagonal):
        a, b = hermitian_pair(n, 40 * n, diagonal, b_norm=0.3)
        for tau in self.TAUS:
            got = scattering.s_matrix_unitarity_defect(a, b, tau)
            want = reference.unitarity_defect_ref(a, b, tau)
            # the defect is measured against the identity, of norm one
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("hermitian_b", [True, False])
    def test_series_matches_per_order_solves(self, n, diagonal, hermitian_b):
        a, b = hermitian_pair(n, 50 * n, diagonal)
        if not hermitian_b:  # the series itself takes any B
            b = b + 0.05j * np.random.default_rng(n).standard_normal((n, n))
        pairs = {(0, 0), (0, n - 1), (n - 1, n // 2)}
        for (i, j), tau in zip(sorted(pairs) * 3, self.TAUS * 3):
            for order in ORDERS:
                ser = scattering.s_series(a, b, scattering.ScatteringQuery(i, j, tau), order)
                terms, ratio = reference.s_series_ref(a, b, i, j, tau, order)
                scale = (matcore.op_norm(b) / tau) ** np.arange(order + 1)
                assert np.all(np.abs(ser.terms - terms) <= 1e-12 * np.maximum(np.abs(terms), scale))
                assert abs(ser.ratio - ratio) <= 1e-12 * ratio

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_single_entry_keeps_the_solve(self, n, diagonal):
        a, b = hermitian_pair(n, 60 * n, diagonal)
        for i, j in {(0, 0), (0, n - 1), (n - 1, n // 2)}:
            for tau in self.TAUS:
                q = scattering.ScatteringQuery(i, j, tau)
                assert scattering.s_entry_resolvent(a, b, q) == reference.s_entry_solve_ref(a, b, i, j, tau)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_cli_series_bound_uses_the_shifted_inverse_norm(self, diagonal, tmp_path):
        a, b = hermitian_pair(8, 65, diagonal, b_norm=0.05)
        iotools.save_matrix(str(tmp_path / "a.json"), a)
        iotools.save_matrix(str(tmp_path / "b.json"), b)
        out = tmp_path / "s.csv"
        assert cli.main(["--out", str(out), "scatter", "--a", str(tmp_path / "a.json"), "--b",
                         str(tmp_path / "b.json"), "--i", "2", "--j", "5", "--tau", "0.5", "--order", "6"]) == 0
        row = next(line for line in out.read_text().splitlines() if line.startswith("series_vs_direct,"))
        lam = np.linalg.eigvalsh(a) if not diagonal else np.real(np.diagonal(a))
        shift = scattering.lambda_shift(lam[2], lam[5], 0.5)
        r = scattering.s_series(a, b, scattering.ScatteringQuery(2, 5, 0.5), 6).ratio
        norm = matcore.op_norm(np.linalg.inv(a - shift * np.eye(8)))
        assert float(row.split(",")[2]) == pytest.approx(r**7 / (1.0 - r) * 0.5 * norm + 1e-12, rel=1e-12)

    def test_non_hermitian_coupling_raises(self):
        a, b = hermitian_pair(4, 7)
        b[0, 1] += 0.1
        q = scattering.ScatteringQuery(0, 1, 0.5)
        for call in (lambda: scattering.s_entry_resolvent(a, b, q),
                     lambda: scattering.s_entry_time_average(a, b, q, 10.0),
                     lambda: scattering.s_matrix_unitarity_defect(a, b, 0.5)):
            with pytest.raises(matcore.NotHermitianError, match="A\\+B"):
                call()


class TestOneDecompositionOfA:
    """A :class:`matcore.SpectralDecomposition` carries the matrix it
    decomposed, and the scattering functions take it for ``A``."""

    def test_a_decomposition_records_its_validated_matrix(self):
        a, b = hermitian_pair(8, 3)
        dec = matcore.eig_hermitian(a.tolist())
        assert dec.matrix.dtype == complex
        assert dec.matrix.tobytes() == matcore.require_hermitian(a).tobytes()
        np.testing.assert_array_equal(spectral.eigenvalue_coefficients(dec, b, 3, 4).coefficients,
                                      spectral.eigenvalue_coefficients(a, b, 3, 4).coefficients)
        with pytest.raises(matcore.ShapeError):  # B is checked against the matrix
            spectral.eigenvalue_coefficients(dec, b[:3, :3], 3, 4)

    def test_the_reference_basis_of_a_diagonal_a_is_the_standard_basis(self):
        a = np.diag([2.0, -1.0, 0.5]).astype(complex)
        basis = scattering.reference_basis(a)
        np.testing.assert_array_equal(basis.eigenvalues, [2.0, -1.0, 0.5])  # unsorted: matrix indices
        np.testing.assert_array_equal(basis.eigenvectors, np.eye(3))
        assert basis.matrix.tobytes() == a.tobytes()
        with pytest.raises(matcore.NotHermitianError, match="^A is not Hermitian"):
            scattering.reference_basis(a + np.triu(np.ones((3, 3)), 1))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_the_reference_basis_stands_in_for_a(self, n, diagonal):
        a, b = hermitian_pair(n, 70 * n, diagonal, b_norm=0.3)
        basis = scattering.reference_basis(a)
        q = scattering.ScatteringQuery(0, n - 1, 0.5)
        for call in (lambda x: scattering.s_series(x, b, q, 6).terms,
                     lambda x: scattering.s_series(x, b, q, 6).ratio,
                     lambda x: scattering.s_entry_resolvent(x, b, q),
                     lambda x: scattering.s_entry_time_average(x, b, q, 20.0, g=matcore.TimeGrid(400)),
                     lambda x: scattering.s_matrix_unitarity_defect(x, b, 0.5)):
            assert np.asarray(call(basis)).tobytes() == np.asarray(call(a)).tobytes()

    @pytest.mark.parametrize("diagonal, decompositions", [(False, 2), (True, 1)], ids=["dense-a", "diagonal-a"])
    @pytest.mark.parametrize("sweep", [[], ["--tau-sweep", "0.05:0.5:0"], ["--tau-sweep", "0.05:0.5:6"]],
                             ids=["no-sweep", "0-point-sweep", "6-point-sweep"])
    def test_cli_scatter_decomposes_a_once(self, monkeypatch, tmp_path, diagonal, decompositions, sweep):
        calls = []
        original = matcore.eig_hermitian

        def counting(m, what="matrix"):
            calls.append(np.shape(m))
            return original(m, what)

        monkeypatch.setattr(matcore, "eig_hermitian", counting)
        a, b = hermitian_pair(8, 67, diagonal, b_norm=0.05)
        iotools.save_matrix(str(tmp_path / "a.json"), a)
        iotools.save_matrix(str(tmp_path / "b.json"), b)
        out = tmp_path / "s.csv"
        assert cli.main(["--out", str(out), "scatter", "--a", str(tmp_path / "a.json"), "--b",
                         str(tmp_path / "b.json"), "--i", "2", "--j", "5", "--tau", "0.5"] + sweep) == 0
        assert len(calls) == decompositions  # one of A unless it is diagonal, one of A + B
        if sweep:  # the sweep ran all its points
            lines = out.read_text().splitlines()
            assert lines.index("# residuals") - lines.index("#tau-sweep,,,") - 1 == int(sweep[1].rsplit(":", 1)[1])


class TestOneHermiticityDecision:
    """Each operand matrix is decided Hermitian once: ``eig_hermitian`` makes
    the decision on a matrix it decomposes, under the operand's name."""

    CALLS = {
        "eigenvalue_coefficients": (lambda a, b: spectral.eigenvalue_coefficients(a, b, 2, 4), 2),  # A, B
        "eigenvalue_coefficients-of-a-decomposition": (
            lambda a, b: spectral.eigenvalue_coefficients(matcore.eig_hermitian(a), b, 2, 4), 2),  # A, then B
        "projection_coefficients": (lambda a, b: spectral.projection_coefficients(
            a, b, spectral.default_contour(np.linalg.eigvalsh(a), 2), 3), 1),  # A
        "schur_split": (lambda a, b: spectral.schur_split(a, b, 2), 1),  # A
        "s_entry_time_average": (lambda a, b: scattering.s_entry_time_average(
            a, b, scattering.ScatteringQuery(1, 4, 0.5), 10.0, matcore.TimeGrid(64)), 2),  # A, A + B
        "s_matrix_unitarity_defect": (lambda a, b: scattering.s_matrix_unitarity_defect(a, b, 0.5), 2),  # A, A + B
        "laplace_resolvent_bridge": (lambda a, b: evolution.laplace_resolvent_bridge(
            a, b, 0.5, 10.0, matcore.TimeGrid(64)), 1),  # A + B
        "laplace_resolvent_bridge-non-hermitian": (lambda a, b: evolution.laplace_resolvent_bridge(
            a, b + np.triu(b, 1), 0.5, 10.0, matcore.TimeGrid(64)), 1),  # A + B, refused and integrated by powers
    }

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal-a", "dense-a"])
    @pytest.mark.parametrize("name", CALLS)
    def test_one_decision_per_operand_matrix(self, monkeypatch, name, diagonal):
        call, operands = self.CALLS[name]
        a, b = hermitian_pair(6, 41, diagonal)
        decided = []
        original = matcore.is_hermitian

        def counting(m):
            decided.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(matcore, "is_hermitian", counting)
        call(a, b)
        assert decided == [(6, 6)] * operands

    @pytest.mark.parametrize("call, what", [
        (lambda a, b: spectral.eigenvalue_coefficients(a, b, 0, 2), "A"),
        (lambda a, b: spectral.schur_split(a, b, 0), "A"),
        (lambda a, b: resolvent.symmetrized_ratio(a, b), "A"),
        (lambda a, b: scattering.s_matrix_unitarity_defect(b, a, 0.5), "A\\+B"),
    ], ids=["eigenvalue_coefficients", "schur_split", "symmetrized_ratio", "s_matrix_unitarity_defect"])
    def test_the_refusal_names_the_operand(self, call, what):
        skew = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(matcore.NotHermitianError, match=f"^{what} is not Hermitian to relative 1e-10$"):
            call(skew, np.zeros((2, 2)))


class TestLineConvolution:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 8), (8, 2), (33, 1)])
    def test_chunked_sum_matches_einsum(self, dims):
        a1, a2 = (random_hermitian(m, 1.0, 70 + m) for m in dims)
        k = tensor.KroneckerSum(factors=(a1, a2))
        q = tensor.LineQuadrature(cutoff=200.0, nodes=3 * tensor.LINE_CHUNK + 17)
        got = tensor.convolution_resolvent(k, 0.3, 0.2, q).raw
        d1, d2 = matcore.eig_hermitian(a1), matcore.eig_hermitian(a2)
        v = np.kron(d1.eigenvectors, d2.eigenvectors)
        diag = reference.convolution_diag_ref(d1.eigenvalues, d2.eigenvalues, 0.3, 0.2, 200.0, q.nodes)
        want = (v * diag.ravel()) @ v.conj().T
        assert matcore.op_norm(got - want) <= 1e-12 * matcore.op_norm(want)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # one (200001, 16) complex temporary alone would take 51 MB
        k = tensor.KroneckerSum(factors=(random_hermitian(16, 1.0, 81), random_hermitian(16, 1.0, 82)))
        q = tensor.LineQuadrature(cutoff=2000.0, nodes=200001)
        tracemalloc.start()
        try:
            tensor.convolution_resolvent(k, 0.3, 0.5, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExactRemainders:
    @pytest.mark.parametrize("n", SIZES)
    def test_cli_remainders_match_per_order_remainders(self, n, tmp_path):
        rng = np.random.default_rng(n)
        a, b = hermitian_pair(n, 90 * n, b_norm=0.5)
        b = b + 0.1 * rng.standard_normal((n, n))  # any B: the identity is algebraic
        iotools.save_matrix(str(tmp_path / "a.json"), a)
        iotools.save_matrix(str(tmp_path / "b.json"), b)
        out = tmp_path / "r.csv"
        code = cli.main(["--out", str(out), "resolvent", "--a", str(tmp_path / "a.json"),
                         "--b", str(tmp_path / "b.json"), "--order", "6"])
        assert code == 0  # partial sum + remainder = (A+B)^{-1} at every order
        lines = out.read_text().splitlines()
        start = lines.index("order,term_norm,partial_residual,remainder_norm,identity_residual,tolerance") + 1
        # floats are written with repr, so the norms compare bit for bit
        got = [line.split(",")[3] for line in lines[start : start + 7]]
        for k in range(7):
            assert got[k] == repr(matcore.op_norm(reference.exact_remainder_ref(a, b, k)))
            assert got[k] == repr(matcore.op_norm(resolvent.exact_remainder(a, b, k)))
        # the running partial sum is the series' own partial sum, bit for bit
        series, inv = resolvent.series_terms(a, b, 7), matcore.inverse(a + b)
        assert [line.split(",")[2] for line in lines[start : start + 7]] == [
            repr(matcore.op_norm(series.partial_sum(k) - inv)) for k in range(7)]

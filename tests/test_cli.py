import json

import numpy as np
import pytest

from ensembles import random_diagonal, random_ensemble, random_hermitian
from pertkit import cli, iotools, matcore
from pertkit.errors import ArgumentError, MatrixFormatError, NotHermitianError
from pertkit.symdiag import SparseInteraction


class TestMatrixIO:
    def test_one_by_one_pair(self):
        m = iotools.matrix_from_json({"rows": 1, "cols": 1, "data": [[2, 0]]})
        assert m.shape == (1, 1) and m[0, 0] == 2.0

    def test_bare_numbers_real(self):
        m = iotools.matrix_from_json({"rows": 2, "cols": 2, "data": [1, 2, 3, 4]})
        np.testing.assert_allclose(m, [[1, 2], [3, 4]])

    def test_nested_rows(self):
        m = iotools.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]})
        np.testing.assert_allclose(m, [[1, 2], [3, 4]])

    def test_complex_pairs(self):
        m = iotools.matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 2], [3, -4]]})
        np.testing.assert_allclose(m, [[1 + 2j, 3 - 4j]])

    def test_ragged_rejected(self):
        with pytest.raises(MatrixFormatError):
            iotools.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 2], [3]]})
        with pytest.raises(MatrixFormatError):
            iotools.matrix_from_json({"rows": 2, "cols": 2, "data": [1, 2, 3]})

    @pytest.mark.parametrize(
        "rows, cols, data, index",
        [
            (2, 2, [1, 2, True, 4], 2),
            (1, 2, [[1, 2], [3, False]], 1),
            (2, 2, [[1, 2], [3, True]], 3),
            (2, 2, [[[1, 0], [2, 0]], [[3, 0], [4, True]]], 3),
            (2, 2, [1, 2, "3", 4], 2),
            (2, 1, [[1], [None]], 1),
        ],
    )
    def test_bad_entry_names_first_index(self, rows, cols, data, index, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}))
        with pytest.raises(MatrixFormatError, match=rf"m\.json: bad matrix entry at index {index} "):
            iotools.load_matrix(str(path))

    def test_mixed_numbers_and_pairs(self):
        m = iotools.matrix_from_json({"rows": 2, "cols": 2, "data": [1, [0, 1], [2, 0], 3.5]})
        np.testing.assert_array_equal(m, [[1, 1j], [2, 3.5]])

    def test_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "m.json"
        iotools.save_matrix(path, m)
        np.testing.assert_allclose(iotools.load_matrix(str(path)), m)

    def test_missing_file(self):
        with pytest.raises(MatrixFormatError):
            iotools.load_matrix("/nonexistent/matrix.json")

    def test_parse_state(self):
        s = iotools.parse_state("a:1,b:-1")
        assert s.particles == (("a", (-1,)), ("b", (1,))) or s.particles == (
            ("a", (1,)),
            ("b", (-1,)),
        )
        s2 = iotools.parse_state("a:1;0,b:0;1")
        assert s2.total_momentum() == (1, 1)
        with pytest.raises(MatrixFormatError):
            iotools.parse_state("a-1")


class TestEnsembles:
    def test_deterministic(self):
        m1 = random_ensemble("hermitian", 6, 1.0, 42)
        m2 = random_ensemble("hermitian", 6, 1.0, 42)
        np.testing.assert_array_equal(m1, m2)

    def test_hermitian_exact(self):
        m = random_ensemble("hermitian", 8, 2.0, 7)
        assert matcore.herm_defect(m) <= 1e-15

    def test_diagonal_gaps(self):
        n, scale = 12, 3.0
        m = random_ensemble("diagonal", n, scale, 9)
        d = np.sort(np.real(np.diagonal(m)))
        assert np.min(np.diff(d)) >= scale / (2 * n)

    def test_momentum_model(self):
        bop = random_ensemble("momentum-model", 1, 1.0, 3)
        assert isinstance(bop, SparseInteraction)
        assert len(bop.entries) > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_ensemble("bogus", 4, 1.0, 0)


@pytest.fixture
def fixtures(tmp_path):
    a = random_diagonal(5, 5.0, 1)
    b = random_hermitian(5, 1.0, 2)
    b *= 0.2 / matcore.op_norm(b)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    iotools.save_matrix(pa, a)
    iotools.save_matrix(pb, b)
    return str(pa), str(pb), tmp_path


class TestCliCommands:
    def test_resolvent_report(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(["resolvent", "--a", pa, "--b", pb, "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# command: resolvent")
        assert "# residuals" in out

    def test_resolvent_reproducible(self, fixtures, capsys):
        pa, pb, _ = fixtures
        cli.main(["--seed", "3", "resolvent", "--a", pa, "--b", pb, "--order", "3"])
        first = capsys.readouterr().out
        cli.main(["--seed", "3", "resolvent", "--a", pa, "--b", pb, "--order", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_resolvent_feynman_entry(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(
            ["resolvent", "--a", pa, "--b", pb, "--order", "5", "--tau", "1.0", "--entry", "0,2"]
        )
        assert code == 0
        assert "feynman_parameter_vs_inverse" in capsys.readouterr().out

    def test_eig_perturb(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(["eig-perturb", "--a", pa, "--b", pb, "--index", "2", "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fourth_order_closed_form" in out

    def test_eig_perturb_refuses_non_hermitian_b(self, tmp_path, capsys):
        # real parts of the exact coefficients 0.5j and -1j are zero, which
        # the closed-form checks would have passed
        iotools.save_matrix(tmp_path / "a.json", np.diag([0.0, 1.0, 3.0]))
        iotools.save_matrix(tmp_path / "b.json", np.array([[0.5j, 1j, 0], [1, 0, 1], [2, 0, 0.5j]]))
        code = cli.main(["eig-perturb", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                         "--index", "0", "--order", "2"])
        assert code == NotHermitianError.exit_code != 0
        assert "B is not Hermitian" in capsys.readouterr().err

    def test_dyson(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(["dyson", "--a", pa, "--b", pb, "--t", "0.8", "--orders", "6"])
        assert code == 0

    def test_dyson_reports_worst_defect_to_budget_ratio(self, fixtures, tmp_path):
        pa, pb, _ = fixtures
        out = tmp_path / "dyson.csv"
        code = cli.main(["--out", str(out), "dyson", "--a", pa, "--b", pb, "--t", "0.8", "--orders", "6"])
        lines = out.read_text().splitlines()
        header = lines.index("order,exp_defect,exp_budget,dyson_defect,dyson_budget")
        rows = [[float(x) for x in line.split(",")] for line in lines[header + 1:lines.index("# residuals")]]
        worst = max(max(r[1] / r[2], r[3] / r[4]) for r in rows)
        (check,) = [line for line in lines if line.startswith("defects_within_budgets,")]
        assert code == 0
        assert check == f"defects_within_budgets,{worst!r},1.0,1"
        assert 0.0 < worst <= 1.0

    def test_scatter(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(
            ["scatter", "--a", pa, "--b", pb, "--i", "1", "--j", "3", "--tau", "0.2",
             "--order", "8", "--tau-sweep", "0.05:0.5:4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "abel_vs_direct" in out

    @pytest.mark.parametrize("args, message", [
        (["--i", "0", "--j", "5"], "entry (0, 5) out of range for n = 2"),
        (["--i=-1", "--j", "1"], "entry (-1, 1) out of range for n = 2"),
    ], ids=["j-too-large", "negative-i"])
    def test_scatter_index_out_of_range_exit_code(self, tmp_path, capsys, args, message):
        iotools.save_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "b.json", 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        code = cli.main(["scatter", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                         "--tau", "0.2", "--order", "4"] + args)
        captured = capsys.readouterr()
        assert code == ArgumentError.exit_code not in (0, 1)
        assert captured.err == f"error[{code}]: {message}\n" and captured.out == ""

    def test_adiabatic(self, fixtures, capsys, tmp_path):
        a = np.diag([0.0, 1.0])
        b = 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]])
        iotools.save_matrix(tmp_path / "ha.json", a)
        iotools.save_matrix(tmp_path / "hb.json", b)
        sched = {"a": "ha.json", "b": "hb.json", "ramp": "smootherstep"}
        (tmp_path / "sched.json").write_text(json.dumps(sched))
        code = cli.main(
            ["adiabatic", "--schedule", str(tmp_path / "sched.json"),
             "--eta-list", "50,100,200", "--index", "0", "--steps-per-eta", "40"]
        )
        assert code == 0

    @pytest.mark.parametrize("args, message", [
        (["--eta-list=-1,2,3", "--index", "0"], "eta must be positive"),
        (["--eta-list", "1,2,3", "--index", "5"], "eigenvalue index out of range"),
    ], ids=["negative-eta", "index-out-of-range"])
    def test_adiabatic_bad_argument_exit_code(self, tmp_path, capsys, args, message):
        iotools.save_matrix(tmp_path / "ha.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "hb.json", 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        code = cli.main(["adiabatic", "--schedule", str(tmp_path / "sched.json")] + args)
        err = capsys.readouterr().err
        assert code == ArgumentError.exit_code not in (0, 1)
        assert err == f"error[{code}]: {message}\n"

    DIAGRAM_MODEL = {
        "species": [
            {"name": "a", "mass": 1.0},
            {"name": "b", "mass": 2.0},
            {"name": "c", "mass": 0.5},
        ],
        "grid": {"dim": 1, "radius": 2},
    }

    def test_diagrams(self, tmp_path, capsys):
        (tmp_path / "model.json").write_text(json.dumps(self.DIAGRAM_MODEL))
        code = cli.main(
            ["diagrams", "--model", str(tmp_path / "model.json"),
             "--i", "a:1,b:-1", "--j", "a:-1,b:1", "--ell", "2", "--tau", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diagram_partition_identity" in out

    @pytest.mark.parametrize("args, message", [
        (["--ell", "0", "--tau", "0.1"], "ell must be at least 1"),
        (["--ell", "2", "--tau", "-0.1"], "tau must be positive"),
    ], ids=["zero-order", "negative-tau"])
    def test_diagrams_bad_argument_exit_code(self, tmp_path, capsys, args, message):
        (tmp_path / "model.json").write_text(json.dumps(self.DIAGRAM_MODEL))
        code = cli.main(["diagrams", "--model", str(tmp_path / "model.json"),
                         "--i", "a:1,b:-1", "--j", "a:-1,b:1"] + args)
        captured = capsys.readouterr()
        assert code == ArgumentError.exit_code not in (0, 1)
        assert captured.err == f"error[{code}]: {message}\n" and captured.out == ""

    def test_tensor_conv(self, tmp_path, capsys):
        iotools.save_matrix(tmp_path / "a1.json", random_hermitian(2, 1.0, 5))
        iotools.save_matrix(tmp_path / "a2.json", random_hermitian(2, 1.0, 6))
        code = cli.main(
            ["tensor", "conv", "--a1", str(tmp_path / "a1.json"), "--a2", str(tmp_path / "a2.json"),
             "--omega", "0.3", "--eps", "0.2", "--cutoff", "200"]
        )
        assert code == 0

    def test_tensor_dirac(self, capsys):
        code = cli.main(["tensor", "dirac", "--p", "0.3,0.2,0.1", "--m", "1.0", "--z", "0.4,0.2"])
        assert code == 0
        assert "product_residual" in capsys.readouterr().out

    def test_demo_three_particle(self, capsys):
        code = cli.main(["demo", "three-particle", "--tau", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "assembled_vs_paired" in out

    def test_demo_born(self, capsys):
        code = cli.main(["demo", "born", "--sites", "32", "--p", "3", "--q", "5", "--tau", "0.1"])
        assert code == 0

    def test_demo_rutherford(self, capsys):
        code = cli.main(["demo", "rutherford"])
        assert code == 0

    def test_out_flag_writes_file(self, fixtures):
        pa, pb, tmp = fixtures
        dest = tmp / "report.csv"
        code = cli.main(["--out", str(dest), "resolvent", "--a", pa, "--b", pb, "--order", "2"])
        assert code == 0
        assert dest.read_text().startswith("# command: resolvent")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["resolvent", "--a", str(bad), "--b", str(bad), "--order", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_timestamp_header_opt_in(self, fixtures, capsys):
        pa, pb, _ = fixtures
        cli.main(["resolvent", "--a", pa, "--b", pb, "--order", "2"])
        assert "# timestamp:" not in capsys.readouterr().out
        cli.main(["--timestamp", "resolvent", "--a", pa, "--b", pb, "--order", "2"])
        assert "# timestamp:" in capsys.readouterr().out

    def test_eig_perturb_contour_points(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(
            ["eig-perturb", "--a", pa, "--b", pb, "--index", "1", "--order", "2",
             "--contour-points", "128"]
        )
        assert code == 0

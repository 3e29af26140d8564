import argparse
import ast
import inspect
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ensembles import random_diagonal, random_ensemble, random_hermitian
from pertkit import cli, iotools, matcore, resolvent, symdiag
from pertkit.errors import ArgumentError, MatrixFormatError, NotHermitianError, ShapeError
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

    @pytest.mark.parametrize("index", ["5", "-1"], ids=["too-large", "negative"])
    @pytest.mark.parametrize("contour", [[], ["--contour-points", "64"]], ids=["default-contour", "contour-points"])
    def test_eig_perturb_index_out_of_range_exit_code(self, tmp_path, capsys, index, contour):
        # -1 used to wrap to the top level and report second_order_diagonal,nan
        iotools.save_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "b.json", 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        code = cli.main(["eig-perturb", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                         f"--index={index}", "--order", "2"] + contour)
        captured = capsys.readouterr()
        assert code == ArgumentError.exit_code not in (0, 1)
        assert captured.err == f"error[{code}]: eigenvalue index out of range\n" and captured.out == ""

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
        (["--eta-list", "1,2,3", "--index", "0", "--steps-per-eta", "0"], "steps_per_eta must be positive"),
        (["--eta-list", "1,2,3", "--index", "0", "--steps-per-eta=-8"], "steps_per_eta must be positive"),
    ], ids=["negative-eta", "index-out-of-range", "zero-steps-per-eta", "negative-steps-per-eta"])
    def test_adiabatic_bad_argument_exit_code(self, tmp_path, capsys, args, message):
        iotools.save_matrix(tmp_path / "ha.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "hb.json", 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        code = cli.main(["adiabatic", "--schedule", str(tmp_path / "sched.json")] + args)
        err = capsys.readouterr().err
        assert code == ArgumentError.exit_code not in (0, 1)
        assert err == f"error[{code}]: {message}\n"

    def test_adiabatic_unknown_ramp_exit_code(self, tmp_path, capsys):
        iotools.save_matrix(tmp_path / "ha.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "hb.json", 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "bogus"}))
        code = cli.main(["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", "1,2,3", "--index", "0"])
        captured = capsys.readouterr()
        assert code == ArgumentError.exit_code not in (0, 1)
        assert captured.err == f"error[{code}]: unknown ramp 'bogus'; known ramps: linear, smoothstep, smootherstep\n"
        assert captured.out == ""

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

    def test_diagrams_enumerates_the_paths_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        index_paths = symdiag.index_paths
        monkeypatch.setattr(symdiag, "index_paths", lambda *args: calls.append(args) or index_paths(*args))
        (tmp_path / "model.json").write_text(json.dumps(self.DIAGRAM_MODEL))
        code = cli.main(["diagrams", "--model", str(tmp_path / "model.json"),
                         "--i", "a:1,b:-1", "--j", "a:-1,b:1", "--ell", "2", "--tau", "0.05"])
        assert code == 0 and "diagram_partition_identity" in capsys.readouterr().out
        assert len(calls) == 1

    def test_diagrams_keeps_the_paths_a_half_order_closure_would_drop(self, tmp_path):
        # vacuum creation is capped at max_particles and annihilation is not, so a
        # link to a state with one more triple can be a move of the larger state
        # only: the closure of depth ell // 2 misses order-ell paths that the
        # depth-ell closure holds
        model = tmp_path / "model.json"
        model.write_text(json.dumps(dict(self.DIAGRAM_MODEL, grid={"dim": 1, "radius": 0})))
        i = iotools.parse_state("a:0,b:0")
        half, full = (symdiag.build_interaction(iotools.load_model(str(model)), [i], depth=d) for d in (2, 4))
        paths = [set(resolvent.index_paths(bop.neighbors, i, i, 4)) for bop in (half, full)]
        assert paths[0] < paths[1]
        out = tmp_path / "diagrams.csv"
        code = cli.main(["--out", str(out), "diagrams", "--model", str(model), "--i", "a:0,b:0", "--j", "a:0,b:0",
                         "--ell", "4", "--tau", "0.1"])
        lines = out.read_text().splitlines()
        rows = lines[lines.index("diagram,multiplicity,value_re,value_im") + 1:lines.index("# residuals")]
        assert code == 0 and sum(int(row.split(",")[1]) for row in rows) == len(paths[1])

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


def _save(tmp_path, **mats):
    for name, m in mats.items():
        iotools.save_matrix(tmp_path / f"{name}.json", m)
    return {name: str(tmp_path / f"{name}.json") for name in mats}


class TestOperandContract:
    """Every mismatched pair and every rate that is not positive and finite
    ends a command with one typed ``error[N]`` line."""

    X2 = 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])

    def _fails(self, capsys, argv, error, message):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == error.exit_code not in (0, 1)
        assert captured.err == f"error[{code}]: {message}\n" and captured.out == ""

    def test_scatter_with_a_mismatched_pair(self, tmp_path, capsys):
        p = _save(tmp_path, a=np.diag([0.0, 1.0, 2.0]), b=self.X2)
        self._fails(capsys, ["scatter", "--a", p["a"], "--b", p["b"], "--i", "0", "--j", "1", "--tau", "0.2"],
                    ShapeError, "A and B must have the same shape, got (3, 3) and (2, 2)")

    def test_adiabatic_with_a_mismatched_schedule(self, tmp_path, capsys):
        _save(tmp_path, ha=np.diag([0.0, 1.0, 2.0]), hb=np.array([[0.1]]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        self._fails(capsys, ["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", "10,20,40",
                             "--index", "0"], ShapeError, "A and B must have the same shape, got (3, 3) and (1, 1)")

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_adiabatic_with_a_non_finite_eta(self, tmp_path, capsys, eta):
        _save(tmp_path, ha=np.diag([0.0, 1.0]), hb=self.X2)
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        self._fails(capsys, ["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", f"{eta},20,40",
                             "--index", "0"], ArgumentError, "eta must be positive")

    def test_three_particle_demo_with_a_nan_tau(self, capsys):
        self._fails(capsys, ["demo", "three-particle", "--tau", "nan"], ArgumentError, "tau must be positive")

    def test_resolvent_entry_with_a_nan_tau(self, tmp_path, capsys):
        p = _save(tmp_path, a=np.diag([1.0, 2.0]), b=self.X2)
        self._fails(capsys, ["resolvent", "--a", p["a"], "--b", p["b"], "--order", "2", "--tau", "nan",
                             "--entry", "0,1"], ArgumentError, "tau must be positive")

    def test_tensor_conv_with_a_nan_eps(self, tmp_path, capsys):
        p = _save(tmp_path, a1=np.diag([0.0, 1.0]), a2=np.diag([0.5, 2.0]))
        self._fails(capsys, ["tensor", "conv", "--a1", p["a1"], "--a2", p["a2"], "--omega", "0.3", "--eps", "nan",
                             "--cutoff", "200"], ArgumentError, "eps must be positive")

    @pytest.mark.parametrize("command, args, message", [
        ("scatter", ["--i", "0", "--j", "1", "--tau", "0.5", "--t-max", "nan"], "t_max must be positive"),
        ("scatter", ["--i", "0", "--j", "1", "--tau", "0.5", "--t-max=-5"], "t_max must be positive"),
        ("dyson", ["--t", "nan", "--orders", "2"], "t must be finite and nonnegative"),
        ("dyson", ["--t", "inf", "--orders", "2"], "t must be finite and nonnegative"),
        ("resolvent", ["--order=-1"], "order must be nonnegative"),
        ("scatter", ["--i", "0", "--j", "1", "--tau", "0.5", "--order=-1"], "order must be nonnegative"),
        ("eig-perturb", ["--index", "0", "--order=-1"], "order must be nonnegative"),
        ("eig-perturb", ["--index", "0", "--order", "2", "--contour-points", "0"],
         "contour needs at least 16 quadrature points"),
        ("dyson", ["--t", "0.5", "--orders=-1"], "m_max must be nonnegative"),
        ("scatter", ["--i", "0", "--j", "1", "--tau", "0.5", "--tau-sweep=0.05:0.5:-1"],
         "tau_sweep count must be nonnegative"),
        ("scatter", ["--i", "0", "--j", "1", "--tau", "0.5", "--tau-sweep", "0:1:3"], "tau_sweep start must be positive"),
    ], ids=["scatter-nan-t-max", "scatter-negative-t-max", "dyson-nan-t", "dyson-inf-t", "resolvent-negative-order",
            "scatter-negative-order", "eig-perturb-negative-order", "eig-perturb-zero-contour-points",
            "dyson-negative-orders", "scatter-negative-sweep-count", "scatter-zero-sweep-start"])
    def test_a_bad_scalar_argument(self, tmp_path, capsys, command, args, message):
        p = _save(tmp_path, a=np.diag([1.0, 2.0]), b=self.X2)
        self._fails(capsys, [command, "--a", p["a"], "--b", p["b"]] + args, ArgumentError, message)

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_tensor_conv_with_a_non_finite_cutoff(self, tmp_path, capsys, cutoff):
        p = _save(tmp_path, a1=np.diag([0.0, 1.0]), a2=np.diag([0.5, 2.0]))
        self._fails(capsys, ["tensor", "conv", "--a1", p["a1"], "--a2", p["a2"], "--omega", "0.3", "--eps", "0.2",
                             "--cutoff", cutoff], ArgumentError, "cutoff must be finite and at least 10")


def _eig_coefficients(tmp_path, a, b, index):
    p = _save(tmp_path, a=a, b=b)
    out = tmp_path / "eig.csv"
    code = cli.main(["--out", str(out), "eig-perturb", "--a", p["a"], "--b", p["b"], "--index", str(index),
                     "--order", "4"])
    lines = out.read_text().splitlines()
    rows = lines[lines.index("k,coefficient,oracle,residual,tolerance") + 1:lines.index("# residuals")]
    return code, np.array([float(r.split(",")[1]) for r in rows]), lines


def test_eig_perturb_checks_the_level_it_follows_on_a_permuted_diagonal(tmp_path):
    # the series follows the ascending level 0 (lambda = 0, matrix index 1);
    # the closed forms used to take matrix index 0 (lambda = 3) and all failed
    lam = np.array([3.0, 0.0, 1.5, 5.0])
    b = random_hermitian(4, 1.0, 3)
    b *= 0.2 / matcore.op_norm(b)
    code, coeffs, lines = _eig_coefficients(tmp_path, np.diag(lam), b, 0)
    order = np.argsort(lam)
    sorted_code, sorted_coeffs, _ = _eig_coefficients(tmp_path, np.diag(lam[order]), b[np.ix_(order, order)], 0)
    assert code == sorted_code == 0
    checks = [line.split(",")[0] for line in lines[lines.index("# residuals") + 1:]]
    assert {"first_order_diagonal", "second_order_diagonal", "fourth_order_closed_form"} <= set(checks)
    np.testing.assert_allclose(coeffs, sorted_coeffs, rtol=0, atol=1e-12)


def test_the_cli_uses_only_public_library_names():
    # every name a module reads from another pertkit module is public API (the
    # CLI's included); a private one is flagged as the module attribute it is
    # read from, or as the name it imports; a dunder such as __version__ is public
    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    private = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.level == 1 and node.module is None for alias in node.names}
        private += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and is_private(node.attr)]
        private += [f"{path.stem}: {node.module}.{alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names if is_private(alias.name)]
        if path.stem in ("cli", "symdiag"):
            assert {"matcore", "scattering"} <= modules
    assert private == []


def _leaf_parsers(parser, dests=frozenset()):
    """``(runner, dests)`` of every leaf subcommand: its ``run`` default and
    the dests of its parser and of the parsers above it."""
    dests = dests | {action.dest for action in parser._actions}
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield parser.get_default("run"), dests
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child, dests)


def test_every_runner_reads_only_the_options_of_its_subcommand():
    # argparse is the one source of every default: a runner reads its typed
    # namespace and never restates a default through .get
    leaves = list(_leaf_parsers(cli.build_parser()))
    runners = {fn for name, fn in vars(cli).items() if name.startswith("_run_")}
    assert sorted(fn.__name__ for fn, _ in leaves) == sorted(fn.__name__ for fn in runners)
    for fn, dests in leaves:
        (func,) = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
        ns = func.args.args[0].arg
        read = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == ns}
        assert read and read <= dests, (fn.__name__, read - dests)
        assert not [node for node in ast.walk(func) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.func.attr == "get"], fn.__name__

"""Tests for the benchmark's tracer, tail statistic and job verdicts.

Run from the repository root: ``python3 -m pytest -q perfbench/test_tracer.py``.
"""

import gzip
import inspect
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pertkit  # noqa: E402
from pertkit import cli, iotools, matcore  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import END, ERROR, NAME, PARENT, START  # noqa: E402


def _span(name, parent, start, end, error=0):
    return [name, "job", parent, start, end, error]


def _bindings():
    """Every function object bound in a pertkit module or spanned class."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "pertkit" or name.startswith("pertkit."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for qual in tracer.METHODS:
        owner, attr, fn = tracer._resolve(qual)
        out[(qual, attr)] = owner.__dict__[attr]
    return out


class TestSelfTime:
    def test_synthetic_tree(self):
        # root [0, 100] with children [10, 30] and [40, 90]; the second has a
        # grandchild [50, 60] and a child reaching past its end [85, 95]
        spans = [
            _span("cli.main", -1, 0, 100),
            _span("matcore.inverse", 0, 10, 30),
            _span("spectral.eigenvalue_coefficients", 0, 40, 90),
            _span("matcore.op_norm", 2, 50, 60),
            _span("matcore.solve", 2, 85, 95),
        ]
        got = tracer.self_times(spans)
        assert got == pytest.approx([30e-9, 20e-9, 35e-9, 10e-9, 10e-9])

    def test_overlapping_children_count_once(self):
        spans = [_span("cli.main", -1, 0, 100), _span("iotools.load_matrix", 0, 10, 50),
                 _span("iotools.load_model", 0, 30, 70)]
        assert tracer.self_times(spans)[0] == pytest.approx(40e-9)

    def test_layer_metrics(self):
        spans = [
            _span("cli.main", -1, 0, 100),
            _span("matcore.eig_hermitian", 0, 10, 50),
            _span("matcore.op_norm", 1, 20, 30),
            _span("matcore.inverse", 0, 60, 80, error=1),
        ]
        m = tracer.layer_metrics(spans, {"matcore.as_matrix.calls": 6}, passes=2)
        assert m["cli.self_s"][0] == pytest.approx(40e-9 / 2)
        assert m["matcore.self_s"][0] == pytest.approx(60e-9 / 2)
        # busy time counts nested spans of one layer once
        assert m["matcore.busy_s"][0] == pytest.approx(60e-9 / 2)
        assert m["matcore.errors"][0] == 0.5
        assert m["matcore.calls"][0] == 1.5
        assert m["matcore.as_matrix.calls"][0] == 3
        # guards (op_norm + inverse) over factorizations (inverse + eig_hermitian)
        assert m["matcore.svd_per_factorization"][0] == 1.0


class TestNames:
    @pytest.mark.parametrize("qual", tracer.NAMED + tracer.COUNTED)
    def test_named_function_exists(self, qual):
        owner, attr, fn = tracer._resolve(qual)
        assert inspect.isfunction(fn) and not attr.startswith("_")

    def test_every_layer_is_spanned(self):
        layers = {q.split(".", 1)[0] for q in tracer.spanned_names()}
        assert layers == set(tracer.LAYERS)

    def test_rename_fails_loudly(self):
        with pytest.raises(LookupError):
            tracer._resolve("matcore.no_such_function")
        with pytest.raises(LookupError):
            tracer._resolve("evolution._rk4_system")


def _small_job(tmp_path):
    rng = np.random.default_rng(3)
    a = np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    iotools.save_matrix(str(tmp_path / "a.json"), a)
    iotools.save_matrix(str(tmp_path / "b.json"), 0.05 * (g + g.conj().T))
    return ["eig-perturb", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
            "--index", "1", "--order", "4"]


class TestPatching:
    def test_wrappers_removed_and_results_identical(self, tmp_path):
        before = _bindings()
        argv = _small_job(tmp_path)
        m = np.arange(9.0).reshape(3, 3) + 1j
        bare_norm = matcore.op_norm(m)
        assert cli.main(["--out", str(tmp_path / "bare.csv")] + argv) == 0

        tr = tracer.Tracer()
        with tr:
            assert matcore.op_norm is not before[("pertkit.matcore", "op_norm")]
            # the copy cli imported from iotools is patched too
            assert cli.load_matrix is not before[("pertkit.cli", "load_matrix")]
            assert matcore.op_norm(m) == bare_norm
            assert cli.main(["--out", str(tmp_path / "traced.csv")] + argv) == 0
        assert _bindings() == before
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()

        names = {s[NAME] for s in tr.spans}
        assert {"cli.main", "iotools.load_matrix", "spectral.eigenvalue_coefficients",
                "matcore.contour_integrate", "reporting.Report.to_csv"} <= names
        assert tr.counts["matcore.as_matrix.calls"] > 0
        assert tr.counts["iotools.matrix_entries"] == 32
        assert tr.counts["matcore.contour_nodes"] == 256 * 5  # winding check + orders 1..4
        assert all(s[END] >= s[START] for s in tr.spans)
        assert all(s[PARENT] < i for i, s in enumerate(tr.spans))

    def test_errors_are_recorded_and_propagate(self):
        original = matcore.inverse
        tr = tracer.Tracer()
        with tr:
            with pytest.raises(pertkit.errors.SingularMatrixError):
                matcore.inverse(np.zeros((2, 2)))
        assert [s[ERROR] for s in tr.spans if s[NAME] == "matcore.inverse"] == [1]
        assert matcore.inverse is original

    def test_double_install_refused(self):
        tr = tracer.Tracer().install()
        try:
            with pytest.raises(RuntimeError):
                tr.install()
        finally:
            tr.uninstall()

    def test_spans_written(self, tmp_path):
        tr = tracer.Tracer()
        with tr:
            matcore.op_norm(np.eye(2))
        tr.write(str(tmp_path / "spans.csv.gz"))
        with gzip.open(tmp_path / "spans.csv.gz", "rt") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "name,job,parent,start_ns,end_ns,error"
        assert lines[1].startswith("matcore.op_norm,")


class TestTail:
    def test_ten_beyond(self):
        value, pct, n = run.tail(list(range(100)))
        assert (value, n) == (89, 100)
        assert sum(1 for x in range(100) if x > value) == 10
        assert pct == pytest.approx(90.0)

    def test_small_sample_falls_back_to_minimum(self):
        assert run.tail([3.0, 1.0, 2.0])[0] == 1.0



class TestVerdict:
    REPORT = "# command: x\neta,error\n10.0,0.1\n# residuals\nname,value,tolerance,ok\n{},0.5,0.3,0\nother,0.0,1.0,1\n"

    def _exit_ok(self, kind, code, body):
        runner = run.Runner("unused")
        job = workloads.Job(label=f"00-{kind}", kind=kind, argv=["x"])
        return runner._exit_ok(job, code, body), runner.wrong

    def test_failed_checks(self):
        assert run.failed_checks(self.REPORT.format("a")) == {"a"}
        assert run.failed_checks("a,b\n1,2\n") == set()

    def test_known_slope_failure_fails_but_stays_correct(self):
        body = self.REPORT.format(run.SLOPE_CHECK).encode()
        assert self._exit_ok("adiabatic", 1, body) == (False, set())

    def test_other_failed_check_is_wrong(self):
        body = self.REPORT.format("second_order_diagonal").encode()
        assert self._exit_ok("eig-perturb", 1, body) == (False, {"00-eig-perturb"})
        body = self.REPORT.format(run.SLOPE_CHECK).encode()
        assert self._exit_ok("dyson", 1, body) == (False, {"00-dyson"})

    def test_exit_without_report_is_wrong(self):
        assert self._exit_ok("adiabatic", 5, b"") == (False, {"00-adiabatic"})
        assert self._exit_ok("dyson", 0, b"") == (False, {"00-dyson"})

    def test_clean_exit_is_ok(self):
        assert self._exit_ok("dyson", 0, b"x") == (True, set())

    def test_byte_mismatch_and_oracle_are_wrong(self):
        outputs = iter([b"a", b"a", b"b"])
        job = workloads.Job(label="00-lib", kind="lib", call=lambda: (next(outputs), 1.0),
                            oracle=lambda value: "off" if value != 2.0 else None)
        runner = run.Runner("unused")
        assert [runner.run(job, "t")[1] for _ in range(3)] == [True, True, False]
        assert runner.wrong == {"00-lib"}
        runner.wrong.clear()
        assert runner.check_oracles() == {"00-lib"}
        assert runner.wrong == {"00-lib"}

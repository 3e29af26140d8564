import argparse
import ast
import inspect
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ensembles import random_diagonal, random_ensemble, random_hermitian
from pertkit import cli, evolution, iotools, matcore, resolvent, symdiag
from pertkit.errors import (ArgumentError, EnumerationLimitError, MatrixFormatError, NotHermitianError, ShapeError,
                            SingularMatrixError)
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

    @pytest.mark.parametrize("m", [
        np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
                  [5e-324, -0.0, -1.7976931348623157e308, 0.0]]).view(complex),
        np.array([[1, -2, 0], [3, 2**53 + 1, -(2**62)]]),
        np.array([[0.1 + 0.2j]]),
    ], ids=["float-extremes", "integers", "one-by-one"])
    def test_roundtrip_is_bit_exact(self, tmp_path, m):
        path = tmp_path / "m.json"
        iotools.save_matrix(path, m)
        got = iotools.load_matrix(str(path))
        assert got.dtype == complex and got.shape == m.shape
        assert got.tobytes() == np.asarray(m, dtype=complex).tobytes()

    F = 1.7976931348623157e308
    GENERAL = {
        "integers": ({"rows": 1, "cols": 4, "data": [2**53 + 1, 2**64 + 7, 10**300, -3]},
                     [[9007199254740992.0, 0.0], [1.8446744073709552e19, 0.0], [1e300, 0.0], [-3.0, 0.0]]),
        "float-extremes": ({"rows": 1, "cols": 5, "data": [math.nan, math.inf, -0.0, 5e-324, F]},
                           [[math.nan, 0.0], [math.inf, 0.0], [-0.0, 0.0], [5e-324, 0.0], [F, 0.0]]),
        "nested-pairs": ({"rows": 2, "cols": 2,
                          "data": [[[1.5, -0.0], [-0.0, 5e-324]], [[-F, 2**53 + 1], [0, -math.inf]]]},
                         [[1.5, -0.0], [-0.0, 5e-324], [-F, 9007199254740992.0], [0.0, -math.inf]]),
        "one-item-rows": ({"rows": 2, "cols": 1, "data": [[5], [[1, -0.0]]]}, [[5.0, 0.0], [1.0, -0.0]]),
        "one-by-one-row": ({"rows": 1, "cols": 1, "data": [[7]]}, [[7.0, 0.0]]),
        "mixed": ({"rows": 1, "cols": 3, "data": [1, [0, 1], [2.5, -0.0]]}, [[1.0, 0.0], [0.0, 1.0], [2.5, -0.0]]),
        "tuples": ({"rows": 1, "cols": 2, "data": [(1, 2), (3.5, -0.0)]}, [[1.0, 2.0], [3.5, -0.0]]),
        "int-past-the-float-range": ({"rows": 1, "cols": 1, "data": [10**400]},
                                     f"bad matrix entry at index 0 (row 0, col 0): {10**400!r}"),
        "pair-past-the-float-range": ({"rows": 1, "cols": 2, "data": [[1, -10**400], 2]},
                                      f"bad matrix entry at index 0 (row 0, col 0): [1, {-10**400!r}]"),
        "bool-in-a-one-item-row": ({"rows": 2, "cols": 1, "data": [[1], [[1, True]]]},
                                   "bad matrix entry at index 1 (row 1, col 0): [1, True]"),
        "list-in-a-one-item-row": ({"rows": 2, "cols": 1, "data": [[[1]], [2]]},
                                   "bad matrix entry at index 0 (row 0, col 0): [1]"),
        "null-and-string": ({"rows": 1, "cols": 3, "data": [1, None, "3"]},
                            "bad matrix entry at index 1 (row 0, col 1): None"),
        "three-list": ({"rows": 2, "cols": 2, "data": [1, 2, 3, [1, 2, 3]]},
                       "bad matrix entry at index 3 (row 1, col 1): [1, 2, 3]"),
        "three-tuple": ({"rows": 1, "cols": 2, "data": [(1, 2, 3), 1]},
                        "bad matrix entry at index 0 (row 0, col 0): (1, 2, 3)"),
        "ragged-rows": ({"rows": 2, "cols": 2, "data": [[1, 2], [3]]},
                        "ragged or malformed data: expected 4 flat entries or 2 rows of 2"),
        "short-flat": ({"rows": 2, "cols": 3, "data": [1, 2, 3, 4, 5]},
                       "ragged or malformed data: expected 6 flat entries or 2 rows of 3"),
    }

    @pytest.mark.parametrize("obj, expected", GENERAL.values(), ids=GENERAL.keys())
    def test_the_general_reader_keeps_its_bits_and_messages(self, obj, expected):
        # one conversion, entry by entry: the same bits as numpy's float conversion, -0.0 and NaN included
        if isinstance(expected, str):
            with pytest.raises(MatrixFormatError) as info:
                iotools.matrix_from_json(obj)
            assert str(info.value) == expected
        else:
            m = iotools.matrix_from_json(obj)
            assert m.dtype == complex and m.shape == (obj["rows"], obj["cols"])
            assert m.tobytes() == np.array(expected, dtype=float).tobytes()

    def test_an_indented_pairs_file_keeps_its_bits(self, tmp_path):
        m = np.array([[1.5, -0.0, 5e-324, 2.0], [-self.F, 10.19, 3.0, -1e-05]]).view(complex)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(iotools.matrix_to_json(m), indent=2))
        assert iotools._pair_layout(path.read_bytes()) is None
        assert iotools.load_matrix(str(path)).tobytes() == m.tobytes()

    @staticmethod
    def _outcome(path):
        """The bits of the loaded matrix, or the error it was refused with."""
        try:
            m = iotools.load_matrix(str(path))
        except (MatrixFormatError, ValueError) as exc:
            return type(exc), str(exc)
        return m.shape, m.tobytes()

    def _both_readers(self, path, monkeypatch):
        """``load_matrix``'s outcome for ``path``, and the general reader's."""
        got = self._outcome(path)
        with monkeypatch.context() as mp:
            mp.setattr(iotools, "_pair_layout", lambda raw: None)
            return got, self._outcome(path)

    PAIRS = (b'{"rows": 2, "cols": 2, "data": '
             b'[[1.5, -0.0], [5e-324, 2], [-1.7976931348623157e+308, 10.19], [3, -1e-05]]}')

    @pytest.mark.parametrize("content, saved_layout", [
        (PAIRS, True),
        (PAIRS + b" \t\r\n", True),
        (b'{"rows": 1, "cols": 2, "data": [[1.0, 2.0], 10.19[, -1e-05]]}', False),
        (b'{"rows": 1, "cols": 2, "data": [[NaN, 2.0], [Infinity, -Infinity]]}', False),
        (b'{"rows": 1, "cols": 2, "data": [[true, 2.0], [3.0, 4.0]]}', False),
        (b'{"rows": 1, "cols": 2, "data": [[1.0, null], [3.0, 4.0]]}', False),
        (PAIRS + "\u00a0".encode(), False),
        (PAIRS.replace(b"], [", "],\u00a0[".encode(), 1), False),
        (PAIRS.replace(b"1.5, -0.0]", b"1.5,-0.0 ]"), False),
        (PAIRS.replace(b", ", b",\t", 3), False),
        (PAIRS.replace(b"], [", b"],\n[", 1), False),
        (b'{"cols": 1, "rows": 1, "data": [[1.0, 2.0]]}', False),
        (b'{"rows": 1, "cols": 1, "data": [[1.0, 2.0]], "note": "x"}', False),
        (b"\xef\xbb\xbf" + PAIRS, False),
        (b'{"rows": 1, "cols": 1, "data": [[1' + b"0" * 400 + b', 0]]}', False),
        (b'{"rows": 1, "cols": 1, "data": [[' + b"1" * 5000 + b', 0]]}', False),
        (b'{"rows": 1, "cols": 1, "data": [[' + b'{"a":' * 10**5 + b"1" + b"}" * 10**5 + b', 0]]}', False),
    ], ids=["saved", "trailing-whitespace", "bracket-past-a-number", "nan-and-infinity", "true", "null",
            "trailing-nbsp", "nbsp", "space-after-a-number", "tab", "newline", "reordered-keys", "extra-key",
            "byte-order-mark", "int-past-the-float-range", "int-past-the-digit-limit",
            "nested-past-the-recursion-limit"])
    def test_the_saved_layout_reads_as_the_general_reader_does(self, tmp_path, monkeypatch, content, saved_layout):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        assert (iotools._pair_layout(content) is not None) == saved_layout
        got, general = self._both_readers(path, monkeypatch)
        assert got == general

    EDITS = [b"[", b"]", b",", b" ", b"\t", b"\n", b"0", b"9", b".", b"e", b"-", b"+", b'"', b"{", b"}", b":",
             b"NaN", b"Infinity", b"true", b"null", "\u00a0".encode(), b"\xef\xbb\xbf", b"1" * 400, b"], [", b", "]

    def test_mutated_files_read_as_the_general_reader_does(self, tmp_path, monkeypatch):
        # 1,000 seeded edits of one to three bytes or tokens each, about 0.5 s; an order check of the brackets
        # and commas alone accepted "[10.19[, -1e-05]", a bracket moved past a number
        draw = random.Random(28)
        bases = [self.PAIRS, json.dumps(iotools.matrix_to_json(np.arange(6).reshape(3, 2) * (0.5 - 1j))).encode()]
        path = tmp_path / "m.json"
        saved_layout = 0
        for _ in range(1000):
            b = bytearray(draw.choice(bases))
            for _ in range(draw.randint(1, 3)):
                i = draw.randrange(len(b))
                edit = draw.randrange(4)
                if edit == 0:
                    del b[i]
                elif edit == 1:
                    b[i:i] = draw.choice(self.EDITS)
                elif edit == 2:
                    b[i:i + 1] = draw.choice(self.EDITS)
                else:
                    c = b.pop(i)
                    b.insert(draw.randrange(len(b) + 1), c)
            path.write_bytes(b)
            saved_layout += iotools._pair_layout(bytes(b)) is not None
            got, general = self._both_readers(path, monkeypatch)
            assert got == general, bytes(b)
        assert saved_layout >= 20

    def test_a_file_in_the_saved_layout_never_reaches_the_general_reader(self, tmp_path, monkeypatch, rng):
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        iotools.save_matrix(tmp_path / "m.json", m)

        def refuse(*args, **kwargs):
            raise AssertionError("the general reader was reached")

        monkeypatch.setattr(iotools.json, "load", refuse)
        monkeypatch.setattr(iotools, "matrix_from_json", refuse)
        assert iotools.load_matrix(str(tmp_path / "m.json")).tobytes() == m.tobytes()

    def test_a_saved_256_matrix_loads_in_half_the_general_readers_memory(self, tmp_path, monkeypatch, rng):
        # 12.0 MB traced by the general reader: one list and two floats per entry
        path = tmp_path / "m.json"
        iotools.save_matrix(path, rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))

        def peak():
            tracemalloc.start()
            try:
                iotools.load_matrix(str(path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        saved_layout = peak()
        with monkeypatch.context() as mp:
            mp.setattr(iotools, "_pair_layout", lambda raw: None)
            general = peak()
        assert saved_layout <= general / 2

    def test_a_header_past_the_file_is_refused_within_3_gb(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1000000, "cols": 1000000, "data": [[1.0, 0.0]]}')

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        timed = ("import sys, time; from pertkit import iotools; from pertkit.errors import MatrixFormatError\n"
                 "start = time.perf_counter()\n"
                 "try:\n    iotools.load_matrix(sys.argv[1])\nexcept MatrixFormatError as exc:\n    print(exc)\n"
                 "print(time.perf_counter() - start)")
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", timed, str(path)], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, preexec_fn=limit_address_space, timeout=60)
        message, elapsed = proc.stdout.splitlines()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert message == (f"{path}: ragged or malformed data: expected 1000000000000 flat entries "
                           "or 1000000 rows of 1000000")
        assert float(elapsed) < 1.0

    @pytest.mark.parametrize("load, what", [(iotools.load_matrix, "matrix"), (iotools.load_schedule, "schedule"),
                                            (iotools.load_model, "model")], ids=["matrix", "schedule", "model"])
    def test_one_reader_names_the_kind_of_file(self, tmp_path, load, what):
        path = tmp_path / "in.json"
        name = re.escape(str(path))
        for content, message in [(None, f"cannot read {what} {name}: .*No such file"),
                                 (b"{", f"{what} {name}: invalid JSON at line 1"),
                                 (b"\xff{}", f"cannot read {what} {name}: 'utf-8' codec can't decode"),
                                 (b"[" * 100000, f"cannot read {what} {name}: maximum recursion depth"),
                                 (b"[1, 2]", f"{what} {name}: expected a JSON object, got list"),
                                 (b"null", f"{what} {name}: expected a JSON object, got NoneType")]:
            if content is not None:
                path.write_bytes(content)
            with pytest.raises(MatrixFormatError, match=f"^{message}"):
                load(str(path))

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
        # the running partial sums are the prefix sums, bit for bit
        a, b = iotools.load_matrix(pa), iotools.load_matrix(pb)
        exp_terms, dyson_terms = evolution.exp_series_terms(a, b, 0.8, 6), evolution.dyson_terms(a, b, 0.8, 6)
        exact_exp, exp_ita = matcore.expm(0.8 * (a + b)), matcore.expm(0.8j * a)
        exact_dyson = exp_ita @ matcore.expm(-0.8j * (a + b))
        assert [(r[1], r[3]) for r in rows] == [(matcore.op_norm(sum(exp_terms[: k + 1]) - exact_exp),
                                                 matcore.op_norm(sum(dyson_terms[: k + 1]) - exact_dyson))
                                                for k in range(7)]
        assert check == f"defects_within_budgets,{worst!r},1.0,1"
        assert 0.0 < worst <= 1.0

    def test_dyson_computes_the_free_exponential_once(self, fixtures, monkeypatch):
        pa, pb, _ = fixtures
        calls = []
        expm = matcore.expm
        monkeypatch.setattr(matcore, "expm", lambda m: calls.append(m.shape) or expm(m))
        assert cli.main(["dyson", "--a", pa, "--b", pb, "--t", "0.8", "--orders", "6"]) == 0
        assert len(calls) == 3  # e^{itA}, e^{t(A+B)} and e^{-it(A+B)}

    def test_scatter(self, fixtures, capsys):
        pa, pb, _ = fixtures
        code = cli.main(
            ["scatter", "--a", pa, "--b", pb, "--i", "1", "--j", "3", "--tau", "0.2",
             "--order", "8", "--tau-sweep", "0.05:0.5:4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "abel_vs_direct" in out

    def test_scatter_with_a_short_time_average(self, tmp_path, capsys):
        # 40 steps per unit time would give no step at all below t_max = 0.025; the grid keeps eight
        iotools.save_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "b.json", 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        code = cli.main(["scatter", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                         "--i", "0", "--j", "1", "--tau", "0.2", "--t-max", "0.01"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "" and "abel_vs_direct" in captured.out

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

    @staticmethod
    def _gapped_ramp(n, ramp, seed):
        """Traceless ``A``, ``B`` scaled to a minimum ground-state gap of 1
        along ``A + f(t) B``, so eta is in gap units, with ``|eig H(t)|``
        at most 8 gaps: the shape of the benchmark's adiabatic draws."""
        f = {"linear": lambda t: t, "smoothstep": lambda t: t * t * (3.0 - 2.0 * t)}[ramp]
        a, b = (m - np.trace(m).real / n * np.eye(n) for m in (random_hermitian(n, 1.0, seed + k) for k in (0, 1)))
        w = np.array([np.linalg.eigvalsh(a + f(t) * b) for t in np.linspace(0.0, 1.0, 201)])
        gap = np.min(w[:, 1] - w[:, 0])
        assert np.max(np.abs(w)) <= 8.0 * gap
        return a / gap, b / gap

    def _step_doubling_run(self, tmp_path, n, ramp, seed):
        """The rows and the ``adiabatic_step_doubling`` check of a default-grid run at eta 10, 20, 40."""
        a, b = self._gapped_ramp(n, ramp, seed)
        iotools.save_matrix(tmp_path / "ha.json", a)
        iotools.save_matrix(tmp_path / "hb.json", b)
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": ramp}))
        out = tmp_path / "adiabatic.csv"
        code = cli.main(["--out", str(out), "adiabatic", "--schedule", str(tmp_path / "sched.json"),
                         "--eta-list", "10,20,40", "--index", "0"])
        lines = out.read_text().splitlines()  # written: no grid was refused
        assert code in (0, 1) and "steps_per_eta=24" in lines[1]
        header = lines.index("eta,error_vs_eigenpath,tracked_phase,steps")
        (check,) = [line.split(",") for line in lines if line.startswith("adiabatic_step_doubling,")]
        return [line.split(",") for line in lines[header + 1:header + 4]], check

    @pytest.mark.parametrize("n, ramp, seed", [(2, "linear", 3), (4, "smoothstep", 5), (8, "linear", 8),
                                               (4, "linear", 13), (2, "smoothstep", 17), (8, "smoothstep", 22)])
    def test_the_default_grid_passes_the_step_doubling_row(self, tmp_path, n, ramp, seed):
        rows, check = self._step_doubling_run(tmp_path, n, ramp, seed)
        assert [row[-1] for row in rows] == ["240", "480", "960"]
        assert check[-1] == "1" and float(check[1]) <= float(check[2]) / 10  # at least a 10x margin

    def test_a_second_order_step_fails_the_step_doubling_row(self, tmp_path, monkeypatch):
        # equal end matrices (H0 + H1)/2 keep S and drop the commutator term of the Magnus
        # step: its final states are then about 2 thousandths of the smallest error off
        magnus = evolution._magnus
        monkeypatch.setattr(evolution, "_magnus", lambda h0, hm, h1, c: magnus((h0 + h1) / 2, hm, (h0 + h1) / 2, c))
        _, check = self._step_doubling_run(tmp_path, 8, "smoothstep", 22)
        assert check[-1] == "0"

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

    def test_first_order_diagrams_check_their_identity(self, tmp_path, capsys):
        # one vertex a + b -> c: one one-link path, checked against the dense index sum like every order
        (tmp_path / "model.json").write_text(json.dumps(self.DIAGRAM_MODEL))
        code = cli.main(["diagrams", "--model", str(tmp_path / "model.json"),
                         "--i", "a:1,b:-1", "--j", "c:0", "--ell", "1", "--tau", "0.05"])
        out = capsys.readouterr().out
        assert code == 0 and "num_diagrams=1" in out
        row = next(line for line in out.splitlines() if line.startswith("diagram_partition_identity,"))
        assert row.endswith(",1")

    @pytest.mark.parametrize("args, message", [
        (["--ell", "0", "--tau", "0.1"], "ell must be at least 1"),
        (["--ell=-1", "--tau", "0.1"], "ell must be at least 1"),  # not the closure's negative depth, -1 // 2
        (["--ell", "2", "--tau", "-0.1"], "tau must be positive"),
    ], ids=["zero-order", "negative-order", "negative-tau"])
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

    def test_a_model_states_its_fock_cutoff(self, tmp_path):
        # at radius 0 the depth-2 closure of a:0,b:0 holds 49 order-4 paths under the default
        # cutoff of 7 particles; a cutoff of 4 keeps fewer of them
        i = iotools.parse_state("a:0,b:0")
        counts = {}
        for cutoff in (None, 7, 4):
            model = dict(self.DIAGRAM_MODEL, grid={"dim": 1, "radius": 0})
            if cutoff is not None:
                model["max_particles"] = cutoff
            (tmp_path / "model.json").write_text(json.dumps(model))
            rule = iotools.load_model(str(tmp_path / "model.json"))
            bop = symdiag.build_interaction(rule, [i], depth=2)
            counts[cutoff] = (rule.max_particles, len(list(resolvent.index_paths(bop.neighbors, i, i, 4))))
        assert counts[None] == counts[7] == (7, 49)
        assert counts[4][0] == 4 and 0 < counts[4][1] < 49

    @pytest.mark.parametrize("cutoff", [True, 7.0, "7", 0, -1, None], ids=["bool", "float", "string", "zero",
                                                                            "negative", "null"])
    def test_a_bad_fock_cutoff_is_a_format_error(self, tmp_path, cutoff):
        (tmp_path / "model.json").write_text(json.dumps(dict(self.DIAGRAM_MODEL, max_particles=cutoff)))
        with pytest.raises(MatrixFormatError, match="max_particles must be a positive int"):
            iotools.load_model(str(tmp_path / "model.json"))

    def test_diagrams_half_order_closure_holds_every_path(self, tmp_path):
        # no move leaves the Fock space of max_particles, so the rule is reversible and
        # every state of an order-ell path lies within ell // 2 moves of an endpoint
        model = tmp_path / "model.json"
        model.write_text(json.dumps(dict(self.DIAGRAM_MODEL, grid={"dim": 1, "radius": 0})))
        i = iotools.parse_state("a:0,b:0")
        half, full = (symdiag.build_interaction(iotools.load_model(str(model)), [i], depth=d) for d in (2, 4))
        paths = [list(resolvent.index_paths(bop.neighbors, i, i, 4)) for bop in (half, full)]
        assert paths[0] == paths[1] and len(paths[0]) == 49
        out = tmp_path / "diagrams.csv"
        code = cli.main(["--out", str(out), "diagrams", "--model", str(model), "--i", "a:0,b:0", "--j", "a:0,b:0",
                         "--ell", "4", "--tau", "0.1"])
        lines = out.read_text().splitlines()
        rows = lines[lines.index("diagram,multiplicity,value_re,value_im") + 1:lines.index("# residuals")]
        assert code == 0 and sum(int(row.split(",")[1]) for row in rows) == len(paths[1])

    @pytest.mark.parametrize("ell", [3, 4], ids=["ell-3-runs", "ell-4-runs"])
    def test_two_dimensional_diagrams_run_within_3_gb(self, tmp_path, ell):
        # a closure of depth max(2, ell) held 16,107 states at ell = 3: a 3.9 GiB dense reference
        model = tmp_path / "model.json"
        model.write_text(json.dumps(dict(self.DIAGRAM_MODEL, grid={"dim": 2, "radius": 1})))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "pertkit.cli", "--out", str(tmp_path / "report.csv"), "diagrams", "--model",
             str(model), "--i", "a:1;0,b:-1;0", "--j", "a:-1;0,b:1;0", "--ell", str(ell), "--tau", "0.1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, preexec_fn=limit_address_space,
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert next(r for r in rows if r.startswith("diagram_partition_identity,")).endswith(",1")

    @pytest.mark.parametrize("argv, nodes", [
        (["adiabatic", "--schedule", "sched.json", "--eta-list", "10,20,1e7", "--index", "0"], "[0-9]+"),
        (["adiabatic", "--schedule", "sched.json", "--eta-list", "10,20,1e300", "--index", "0"], "[0-9]+"),
        (["adiabatic", "--schedule", "sched.json", "--eta-list", "10,20,1e307", "--index", "0"], "inf"),
        (["scatter", "--a", "a.json", "--b", "b.json", "--i", "0", "--j", "1", "--tau", "0.2", "--t-max", "1e7"],
         "[0-9]+"),
        (["scatter", "--a", "a.json", "--b", "b.json", "--i", "0", "--j", "1", "--tau", "0.2", "--t-max", "1e300"],
         "[0-9]+"),
        (["scatter", "--a", "a.json", "--b", "b.json", "--i", "0", "--j", "1", "--tau", "0.2", "--t-max", "1e308"],
         "inf"),
    ], ids=["adiabatic-eta-1e7", "adiabatic-eta-1e300", "adiabatic-eta-1e307", "scatter-t-max-1e7",
            "scatter-t-max-1e300", "scatter-t-max-1e308"])
    def test_a_time_grid_too_large_to_hold_is_refused_within_3_gb(self, tmp_path, argv, nodes):
        # at 1e7 the nodes array alone took 1.79 GiB (adiabatic) and 2.98 GiB (scatter), an untyped
        # MemoryError under the limit; at 1e300 numpy refused the array size with a ValueError; at 1e307
        # (times 24 steps per unit eta) and 1e308 (times 40) the step count overflows to infinity, which
        # int() refused with an untyped OverflowError
        iotools.save_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))
        iotools.save_matrix(tmp_path / "b.json", 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "a.json", "b": "b.json", "ramp": "linear"}))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        timed = ("import sys, time; from pertkit import cli; start = time.perf_counter(); code = cli.main(sys.argv[1:]); "
                 "print(time.perf_counter() - start); sys.exit(code)")
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", timed] + argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, preexec_fn=limit_address_space, timeout=120)
        assert proc.returncode == EnumerationLimitError.exit_code not in (0, 1)
        assert re.fullmatch(rf"error\[5\]: time grid of {nodes} nodes x [0-9]+ entries exceeds cap 67108864\n", proc.stderr)
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize("argv, grid, message", [
        (["demo", "three-particle", "--grid-radius", "30000"], None, "momentum box exceeds cap 1000 momenta"),
        (["demo", "three-particle", "--grid-radius", "500"], None, "momentum box exceeds cap 1000 momenta"),
        (["diagrams"], {"dim": 4, "radius": 50}, "momentum box exceeds cap 1000 momenta"),
        (["diagrams"], {"dim": 3, "radius": 10**4000}, "momentum box exceeds cap 1000 momenta"),
        (["diagrams"], {"dim": 10**20, "radius": 1}, "momentum box of more than 1000 dimensions"),
        (["diagrams"], {"dim": 1001, "radius": 0}, "momentum box of more than 1000 dimensions"),
    ], ids=["demo-radius-30000", "demo-radius-500", "dim-4-radius-50", "radius-4001-digits", "dim-1e20",
            "dim-1001-radius-0"])
    def test_a_momentum_box_too_large_to_list_is_refused_within_3_gb(self, tmp_path, argv, grid, message):
        # the box used to be listed whole: radius 30000 ran past 300 s, dim 4 radius 50 asks for 1e8 tuples,
        # and dim 1e20 ended in an untyped OverflowError
        if grid is not None:
            (tmp_path / "model.json").write_text(json.dumps(dict(self.DIAGRAM_MODEL, grid=grid)))
            argv = argv + ["--model", "model.json", "--i", "a:1,b:-1", "--j", "a:-1,b:1", "--ell", "2", "--tau", "0.1"]

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        timed = ("import sys, time; from pertkit import cli; start = time.perf_counter(); code = cli.main(sys.argv[1:]); "
                 "print(time.perf_counter() - start); sys.exit(code)")
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", timed] + argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, preexec_fn=limit_address_space, timeout=120)
        assert proc.returncode == EnumerationLimitError.exit_code not in (0, 1)
        assert proc.stderr == f"error[5]: {message}\n"
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize("argv, option", [
        (["tensor", "dirac", "--p", "0.3,0.2", "--m", "1.0", "--z", "0.4,0.2"], "--p"),
        (["tensor", "dirac", "--p", "0.3,0.2,0.1,0.0", "--m", "1.0", "--z", "0.4,0.2"], "--p"),
        (["demo", "rutherford", "--p0", "3,2"], "--p0"),
        (["demo", "rutherford", "--q0", "1,2,3,4"], "--q0"),
    ], ids=["dirac-two", "dirac-four", "rutherford-p0", "rutherford-q0"])
    def test_a_three_vector_of_another_length_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage:")
        assert f"error: argument {option}: expected three comma-separated floats" in captured.err

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

    def test_demo_harmonic_oscillator_rows(self, capsys):
        code = cli.main(["demo", "harmonic-oscillator", "--grid-size", "80", "--epsilon", "0.01"])
        rows = {line.split(",")[0]: line.split(",")[1:] for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")}
        assert code == 0
        assert rows["quantity"] == ["value", "oracle", "tolerance"]
        energy, quartic, split = (float(rows[q][0]) for q in ("ground_energy", "quartic_first_order",
                                                               "split_first_order"))
        assert abs(energy - 1.0) < 0.01 and rows["ground_energy"][1:] == ["1.0", "grid-dependent"]
        assert abs(quartic - 0.75) < 0.015 and rows["quartic_first_order"][1:] == ["0.75", "0.015"]
        assert split == pytest.approx(0.01 * quartic, rel=1e-9)  # at eta = 0 the split is eps X^4
        assert rows["quartic_vs_gaussian_moment"] == [str(abs(quartic - 0.75)), "0.015", "1"]

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

    @pytest.mark.parametrize("schedule, message", [
        ([1, 2], "expected a JSON object, got list"),
        ({"a": 5, "b": "hb.json"}, "'a' must be a string, got 5"),
        ({"a": "ha.json", "b": "hb.json", "ramp": 3}, "'ramp' must be a string, got 3"),
        ({"a": "ha.json", "b": "hb.json", "ramp": None}, "'ramp' must be a string, got None"),
        ({"a": "ha.json"}, "missing key 'b'"),
    ], ids=["a-list", "a-number-for-a-path", "a-number-for-a-ramp", "a-null-ramp", "no-b"])
    def test_adiabatic_with_a_malformed_schedule(self, tmp_path, capsys, schedule, message):
        _save(tmp_path, ha=np.diag([0.0, 1.0]), hb=self.X2)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule))
        self._fails(capsys, ["adiabatic", "--schedule", str(path), "--eta-list", "10,20,40", "--index", "0"],
                    MatrixFormatError, f"schedule {path}: {message}")

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_adiabatic_with_a_non_finite_eta(self, tmp_path, capsys, eta):
        _save(tmp_path, ha=np.diag([0.0, 1.0]), hb=self.X2)
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        self._fails(capsys, ["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", f"{eta},20,40",
                             "--index", "0"], ArgumentError, "eta must be positive")

    @pytest.mark.parametrize("steps_per_eta, t", [("149", "0.42953"), ("75", "0.433333")],
                             ids=["block-edge", "mid-block"])
    def test_adiabatic_with_a_sum_that_is_not_hermitian(self, tmp_path, capsys, steps_per_eta, t):
        # A and B are each Hermitian to 1e-10, and the anti-Hermitian K of norm 2e-5 in each is
        # below 1e-10 of their norms, 1e6; past t = 0.4286 the norm of H(t) = A + t B has fallen
        # and 2 (1 + t) K has grown past it.  At 149 steps the first node that fails is the last
        # of the first block, 64/149; at 75 steps the midpoint of step 32, 32.5/75
        k = 2e-5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        _save(tmp_path, ha=np.diag([0.0, 1e6]) + k, hb=k - np.diag([0.0, 1e6 - 1.0]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "linear"}))
        self._fails(capsys, ["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", "1,2,4",
                             "--index", "0", "--steps-per-eta", steps_per_eta],
                    NotHermitianError, f"H(t={t}) is not Hermitian to relative 1e-10")

    @pytest.mark.parametrize("a, b, ramp", [(1e308, 1e308, "linear"), (np.finfo(float).max - 1e308, 1e308, "linear"),
                                            (1.7e308, 1.7e308, "smoothstep"), (1.79e308, 1e308, "linear")],
                             ids=["past-the-range", "at-the-largest-float", "smoothstep", "a-near-the-largest-float"])
    def test_adiabatic_with_a_sum_that_overflows(self, tmp_path, capsys, a, b, ramp):
        # A + B is infinite, or at the largest float, which the last end node (t = 1 + 2^-52)
        # passes; the run used to end in a step estimate of NaN (exit 5) or, for the last case,
        # a non-finite node (exit 2)
        _save(tmp_path, ha=np.diag([0.0, a]), hb=np.diag([0.0, b]))
        (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": ramp}))
        self._fails(capsys, ["adiabatic", "--schedule", str(tmp_path / "sched.json"), "--eta-list", "10,20,40",
                             "--index", "0"], ArgumentError,
                    "A + B overflows the float range: H(t) = A + f(t) B is not finite on [0, 1]")

    def test_three_particle_demo_with_a_nan_tau(self, capsys):
        self._fails(capsys, ["demo", "three-particle", "--tau", "nan"], ArgumentError, "tau must be positive")

    @pytest.mark.parametrize("route, mass, shown", [
        ("demo", "0", "0"), ("demo", "1e200", "1e+200"), ("demo", "nan", "nan"), ("demo", "-1", "-1"),
        ("model", 0.0, "0"),
    ], ids=["demo-0", "demo-1e200", "demo-nan", "demo-negative", "model-0"])
    def test_a_mass_outside_the_float_range_is_refused(self, tmp_path, capsys, route, mass, shown):
        # --mc 0 ended in a ZeroDivisionError traceback and 1e200 in an OverflowError one, nan reached a
        # failing row and -1 ran as if the mass were 1; a model mass of 0.0 went the way of --mc 0
        if route == "demo":
            argv = ["demo", "three-particle", "--mc", mass]
        else:
            (tmp_path / "model.json").write_text(json.dumps(dict(self.MODEL, species=self._species(2, mass=mass))))
            argv = ["diagrams", "--model", str(tmp_path / "model.json"), "--i", "a:1,b:-1", "--j", "a:-1,b:1",
                    "--ell", "2", "--tau", "0.05"]
        start = time.perf_counter()
        self._fails(capsys, argv, ArgumentError, f"mass of 'c' is {shown}; it must lie in [1e-150, 1e+150]")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("route", ["diagrams", "demo"])
    def test_a_momentum_past_the_float_range_is_refused(self, tmp_path, capsys, route):
        # the square of a 201-digit component has no float: both routes ended in an OverflowError traceback
        # from the dispersion, exit 1
        huge = "1" + "0" * 200
        if route == "demo":
            argv = ["demo", "three-particle", "--momentum", huge]
        else:
            (tmp_path / "model.json").write_text(json.dumps(self.MODEL))
            argv = ["diagrams", "--model", str(tmp_path / "model.json"), "--i", f"a:{huge},b:-{huge}",
                    "--j", f"a:-{huge},b:{huge}", "--ell", "2", "--tau", "0.1"]
        start = time.perf_counter()
        self._fails(capsys, argv, ArgumentError,
                    "momentum component 0 of particle 'a' is 1.000e+200; its magnitude must be at most 1e+150")
        assert time.perf_counter() - start < 1.0

    def test_scatter_with_an_overflowing_series_is_refused_without_a_warning(self, tmp_path, capsys):
        # the series formed one more product after its last term: with B = 1e150 H its two numpy overflow
        # warnings came before the singularity refusal, and B = 1e200 H left non-finite terms to the report
        a = np.diag([0.0, 1.0, 2.0, 3.0])
        h = random_hermitian(4, 1.0, 7)
        for scale, error, message in [(1e150, SingularMatrixError, "tau = 5.000e-01 is not above 1e-13 ||A+B||_F"),
                                      (1e200, ArgumentError, "scattering series overflows the float range at order 2")]:
            p = _save(tmp_path, a=a, b=scale * h)
            self._fails(capsys, ["scatter", "--a", p["a"], "--b", p["b"], "--i", "0", "--j", "1", "--tau", "0.5",
                                 "--order", "2"], error, message)

    def test_resolvent_entry_with_a_negative_seed(self, tmp_path, capsys):
        # the lattice shifts are drawn from seed + m, and numpy seeds no generator from a negative integer:
        # --seed -5 ended in a ValueError traceback, exit 1
        p = _save(tmp_path, a=np.diag([1.0, 2.0]), b=self.X2)
        self._fails(capsys, ["--seed", "-5", "resolvent", "--a", p["a"], "--b", p["b"], "--order", "2", "--tau", "0.5",
                             "--entry", "0,1"], ArgumentError, "seed must be nonnegative")

    @pytest.mark.parametrize("flag", [["--tau", "0.5"], ["--entry", "0,1"]], ids=["tau-alone", "entry-alone"])
    def test_resolvent_refuses_tau_or_entry_alone(self, tmp_path, capsys, flag):
        # either flag alone exited 0 with no Feynman row, while the config line echoed it
        p = _save(tmp_path, a=np.diag([1.0, 2.0]), b=self.X2)
        self._fails(capsys, ["resolvent", "--a", p["a"], "--b", p["b"], "--order", "2", *flag], ArgumentError,
                    "--tau and --entry go together: the Feynman row needs both")

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

    @pytest.mark.parametrize("t, code", [("1000", ArgumentError.exit_code), ("400", 0)])
    def test_dyson_refuses_an_exponential_past_the_float_range(self, tmp_path, capsys, t, code):
        # n = 8, ||A|| = 1, ||B|| = 0.5: e^{t(A+B)} reaches e^{1.5 t} > e^{709.8}, the largest float, at
        # t = 1000; the squaring's overflow used to be a MatrixFormatError that blamed the input
        a, b = random_hermitian(8, 1.0, 1), random_hermitian(8, 1.0, 2)
        p = _save(tmp_path, a=a / matcore.op_norm(a), b=0.5 * b / matcore.op_norm(b))
        start = time.perf_counter()
        got = cli.main(["dyson", "--a", p["a"], "--b", p["b"], "--t", t, "--orders", "3"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert got == code and elapsed < 1.0
        if code:
            assert re.fullmatch(r"error\[7\]: exponential overflows: t \(\|\|A\|\|_F \+ \|\|B\|\|_F\) = \S+\n",
                                captured.err) and captured.out == ""

    @pytest.mark.parametrize("command, args, message", [
        ("resolvent", ["--order", "3"], "resolvent series overflows the float range at order 3"),
        ("eig-perturb", ["--index", "1", "--order", "3"], "eigenvalue coefficient overflows the float range at order 3"),
    ], ids=["resolvent", "eig-perturb"])
    def test_a_series_past_the_float_range_is_refused(self, tmp_path, capsys, command, args, message):
        # B = 1e150 H: the order-3 terms hold B^3 ~ 1e450; resolvent used to blame the input (exit 2) and
        # eig-perturb to report a nan coefficient and exit 0
        h = random_hermitian(4, 1.0, 3)
        p = _save(tmp_path, a=h, b=1e150 * h)
        self._fails(capsys, [command, "--a", p["a"], "--b", p["b"]] + args, ArgumentError, message)

    @pytest.mark.parametrize("a, b, message", [
        (1e150, 1e300, "the Feynman row's tail term ratio^3 overflows the float range (ratio 1e+150)"),
        (1e200, 1e200, "Feynman-parameter entry overflows the float range at order 2"),
    ], ids=["tail-term", "entry"])
    def test_a_feynman_row_past_the_float_range_is_refused(self, tmp_path, capsys, a, b, message):
        # the tail term used to end in an untyped OverflowError, the entry in a nan row that failed with exit 1
        p = _save(tmp_path, a=np.array([[a]]), b=np.array([[b]]))
        start = time.perf_counter()
        self._fails(capsys, ["resolvent", "--a", p["a"], "--b", p["b"], "--order", "2", "--tau", "0.5",
                             "--entry", "0,0"], ArgumentError, message)
        assert time.perf_counter() - start < 1.0

    MODEL = TestCliCommands.DIAGRAM_MODEL

    @staticmethod
    def _species(k, **field):
        species = [dict(sp) for sp in TestCliCommands.DIAGRAM_MODEL["species"]]
        species[k].update(field)
        return species

    @staticmethod
    def _digit_limit():
        try:
            int("1" * 5000)
        except ValueError as exc:
            return str(exc)

    DIGITS = "1" * 5000
    FIELDS = {
        "rows-true": ("matrix", {"rows": True, "cols": 1, "data": [1]}, "{path}: 'rows' must be a positive int, got True"),
        "rows-float": ("matrix", {"rows": 1.9, "cols": 1, "data": [1]}, "{path}: 'rows' must be a positive int, got 1.9"),
        "rows-whole-float": ("matrix", {"rows": 2.0, "cols": 1, "data": [1, 2]},
                             "{path}: 'rows' must be a positive int, got 2.0"),
        "rows-string": ("matrix", {"rows": "1", "cols": 1, "data": [1]}, "{path}: 'rows' must be a positive int, got '1'"),
        "rows-zero": ("matrix", {"rows": 0, "cols": 1, "data": []}, "{path}: 'rows' must be a positive int, got 0"),
        "cols-float": ("matrix", {"rows": 1, "cols": 2.5, "data": [1, 2]},
                       "{path}: 'cols' must be a positive int, got 2.5"),
        "no-data": ("matrix", {"rows": 1, "cols": 1}, "{path}: missing key 'data'"),
        "data-number": ("matrix", {"rows": 1, "cols": 1, "data": 5}, "{path}: 'data' must be a list, got 5"),
        "mass-true": ("model", dict(MODEL, species=_species(0, mass=True)),
                      "model {path}: species[0].mass must be a finite number, got True"),
        "mass-string": ("model", dict(MODEL, species=_species(1, mass="1")),
                        "model {path}: species[1].mass must be a finite number, got '1'"),
        "mass-past-the-float-range": ("model", json.dumps(dict(MODEL, species=_species(2, mass=0.5))).replace(
            "0.5", "1e400"), "model {path}: species[2].mass must be a finite number, got inf"),
        "name-number": ("model", dict(MODEL, species=_species(2, name=5)),
                        "model {path}: species[2].name must be a string, got 5"),
        "names-repeated": ("model", dict(MODEL, species=_species(1, name="a")),
                           "model {path}: species names must be distinct, got ('a', 'a', 'c')"),
        "two-species": ("model", dict(MODEL, species=MODEL["species"][:2]),
                        "model {path}: 'species' must be a list of three objects, got "
                        "[{'name': 'a', 'mass': 1.0}, {'name': 'b', 'mass': 2.0}]"),
        "dim-true": ("model", dict(MODEL, grid={"dim": True, "radius": 1.7}),
                     "model {path}: grid.dim must be a positive int, got True"),
        "radius-float": ("model", dict(MODEL, grid={"dim": 1, "radius": 1.7}),
                         "model {path}: grid.radius must be a non-negative int, got 1.7"),
        "radius-negative": ("model", dict(MODEL, grid={"dim": 1, "radius": -1}),
                            "model {path}: grid.radius must be a non-negative int, got -1"),
        "no-grid": ("model", {"species": MODEL["species"]}, "model {path}: missing key 'grid'"),
        # a huge value is shown abbreviated: in full these lines ran to 100,000 characters and more
        "rows-of-100000-chars": ("matrix", {"rows": "x" * 100000, "cols": 1, "data": [1]},
                                 "{path}: 'rows' must be a positive int, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        "entry-of-100000-items": ("matrix", {"rows": 1, "cols": 1, "data": [list(range(100000))]},
                                  "{path}: bad matrix entry at index 0 (row 0, col 0): [0, 1, 2, 3, 4, 5, ...]"),
        "names-of-100000-chars": ("model", dict(MODEL, species=[dict(sp, name="a" * 100000) if k < 2 else sp
                                                                for k, sp in enumerate(MODEL["species"])]),
                                  "model {path}: species names must be distinct, got ('aaaaaaaaaaaa...aaaaaaaaaaaaa', "
            "'aaaaaaaaaaaa...aaaaaaaaaaaaa', 'c')"),
        "matrix-digits": ("matrix", '{"rows": 1, "cols": 1, "data": [' + DIGITS + "]}",
                          "cannot read matrix {path}: " + _digit_limit()),
        "schedule-digits": ("schedule", '{"a": "ha.json", "b": "hb.json", "n": ' + DIGITS + "}",
                            "cannot read schedule {path}: " + _digit_limit()),
        "model-digits": ("model", '{"species": [], "n": ' + DIGITS + "}", "cannot read model {path}: " + _digit_limit()),
    }

    @pytest.mark.parametrize("kind, content, message", FIELDS.values(), ids=FIELDS.keys())
    def test_a_field_of_the_wrong_type_is_refused(self, tmp_path, capsys, kind, content, message):
        # nothing is coerced: int() used to read "rows": true as 1 and "radius": 1.7 as 1, float() "mass": "1"
        # as 1.0; a name that is not a string and an int past 4,300 digits ended in tracebacks
        p = _save(tmp_path, ha=np.diag([0.0, 1.0]), hb=self.X2)
        path = tmp_path / f"{kind}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = {"matrix": ["resolvent", "--a", str(path), "--b", p["hb"], "--order", "1"],
                "schedule": ["adiabatic", "--schedule", str(path), "--eta-list", "10,20,40", "--index", "0"],
                "model": ["diagrams", "--model", str(path), "--i", "a:1,b:-1", "--j", "a:-1,b:1", "--ell", "2",
                          "--tau", "0.05"]}[kind]
        start = time.perf_counter()
        self._fails(capsys, argv, MatrixFormatError, message.replace("{path}", str(path)))
        assert time.perf_counter() - start < 1.0

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


#: One small job of every CLI command and library call the benchmark workloads run, then the scipy
#: modules loaded; run in a fresh interpreter, since the test process itself imports scipy.
NO_SCIPY_JOBS = textwrap.dedent("""
    import json, sys
    import numpy as np
    from pertkit import cli, matcore, scattering, spectral
    codes = [cli.main(["--out", "report.csv"] + argv) for argv in json.load(open("jobs.json"))]
    a, b = np.diag([0.0, 1.0, 2.5, 4.0]), 0.05 * np.ones((4, 4))
    spectral.projection_coefficients(a, b, matcore.ContourSpec(center=1.0, radius=0.5, num_points=64), 2)
    scattering.s_matrix_unitarity_defect(a, b, 0.5)
    print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
""")


def test_no_workload_command_loads_scipy(tmp_path):
    # scipy is a test-only dependency: pertkit computes e^M and Frobenius norms with numpy alone
    a, b = np.diag([1.0, 1.5, 2.0, 3.0]), 0.1 * random_hermitian(4, 1.0, 2)
    _save(tmp_path, a=a, b=b, a1=random_hermitian(3, 1.0, 5), a2=random_hermitian(3, 1.0, 6),
          ha=np.diag([0.0, 1.0]), hb=0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    (tmp_path / "sched.json").write_text(json.dumps({"a": "ha.json", "b": "hb.json", "ramp": "smootherstep"}))
    (tmp_path / "model.json").write_text(json.dumps(TestCliCommands.DIAGRAM_MODEL))
    pair = ["--a", "a.json", "--b", "b.json"]
    jobs = [
        ["resolvent", *pair, "--order", "3", "--tau", "0.5", "--entry", "0,1"],
        ["eig-perturb", *pair, "--index", "1", "--order", "4"],
        ["scatter", *pair, "--i", "0", "--j", "1", "--tau", "0.5", "--order", "3"],
        ["tensor", "conv", "--a1", "a1.json", "--a2", "a2.json", "--omega", "0.3", "--eps", "0.5", "--cutoff", "200"],
        ["demo", "harmonic-oscillator", "--grid-size", "80", "--epsilon", "0.01"],
        ["demo", "three-particle", "--grid-radius", "1"],
        ["dyson", *pair, "--t", "1.0", "--orders", "4"],
        ["adiabatic", "--schedule", "sched.json", "--eta-list", "50,100,200", "--index", "0", "--steps-per-eta", "40"],
        ["diagrams", "--model", "model.json", "--i", "a:1,b:-1", "--j", "a:-1,b:1", "--ell", "2", "--tau", "0.05"],
    ]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_JOBS], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(jobs), []]


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


def test_one_parser_serves_consecutive_calls(fixtures, capsys):
    # main parses with one parser per process: a sequence of calls, an argparse
    # error among them, gives the bytes of each call made in a process of its own
    pa, pb, _ = fixtures
    calls = [
        ["--seed", "3", "demo", "born", "--sites", "16", "--tau", "0.2"],
        ["resolvent", "--a", pa, "--b", pb, "--order", "3", "--tau", "1.0", "--entry", "0,2"],
        ["tensor", "kg", "--a", "1.0", "--z", "0.3,0.1"],
        ["demo", "born"],  # none of the first call's options or seed carries over
        ["resolvent", "--a", pa, "--b", pb, "--order", "3"],  # nor the second's --tau and --entry
    ]
    src = str(Path(cli.__file__).parents[1])
    alone = [subprocess.run([sys.executable, "-m", "pertkit.cli"] + argv, env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120) for argv in calls]
    assert [(proc.returncode, proc.stderr) for proc in alone] == [(0, "")] * len(calls)
    for argv, proc in zip(calls, alone):
        with pytest.raises(SystemExit) as exc:
            cli.main(["demo", "born", "--sites", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == proc.stdout
    assert "sites=32 tau=0.1" in alone[3].stdout.splitlines()[1]
    assert "# seed: 0" in alone[3].stdout and "tau=" not in alone[4].stdout.splitlines()[1]

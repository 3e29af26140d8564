"""Every public function, class and method of the library is reached by a
command, a check row, a benchmark job or an acceptance criterion.

A top-level public function or class of a ``src/pertkit`` module is reached
when its own module mentions it past its definition, or when one of these
mentions it: ``cli.py``, another library module, a ``perfbench`` module other
than its tracer test, or ``tests/test_acceptance.py``.  A public method of a
public class is reached when one of the library modules or these readers takes
it as an attribute, ``.name``.  A name that only its own unit tests call is
either removed with its tests or listed in :data:`TEST_ONLY` with the reason it
stays.  The files are read, never imported or written; the scan's own check
writes a copy of the library to a temporary directory.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pertkit"

#: the public names that only tests reach, and why each stays
TEST_ONLY = {
    "connected_component_conservation": "the oracle of tree_solve's momentum assignment in two tests",
    "eigenvector_tilde": "the Schur split's eigenvector, checked against eigh",
}


def _words(path: Path) -> Counter:
    return Counter(re.findall(r"[A-Za-z_]\w*", path.read_text()))


def _files(src: Path = SRC) -> tuple:
    """The library modules, and the readers past them."""
    readers = [ROOT / "tests" / "test_acceptance.py"]
    readers += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_tracer.py"]
    return sorted(src.glob("*.py")), readers


def _unreached() -> dict:
    """Each unreached public name, with its module."""
    modules, readers = _files()
    words = {p: _words(p) for p in modules + readers}
    unreached = {}
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if words[path][node.name] == 1 and not any(node.name in w for p, w in words.items() if p != path):
                    unreached[node.name] = path.stem
    return unreached


def _unreached_methods(src: Path = SRC) -> dict:
    """Each public method of a public class that no library module or reader takes as an attribute, as
    ``Class.method``, with its module."""
    modules, readers = _files(src)
    taken = {node.attr for p in modules + readers for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute)}
    unreached = {}
    for path in modules:
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in taken:
                        unreached[f"{cls.name}.{node.name}"] = path.stem
    return unreached


def test_only_the_listed_names_are_reached_by_tests_alone():
    unreached = _unreached()
    assert unreached.keys() == TEST_ONLY.keys(), unreached


def test_every_public_method_is_reached_beyond_its_tests():
    assert _unreached_methods() == {}


def test_the_method_scan_finds_a_method_only_tests_call(tmp_path):
    # a copy of the library with one extra public method, which nothing takes as an attribute
    copy = tmp_path / "pertkit"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (copy / "spectral.py").write_text((copy / "spectral.py").read_text()
                                      + "\n\nclass Probe:\n    def never_taken(self):\n        return 0\n")
    assert _unreached_methods(copy) == {"Probe.never_taken": "spectral"}

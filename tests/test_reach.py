"""Every public function and class of the library is reached by a command, a
check row, a benchmark job or an acceptance criterion.

A top-level public function or class of a ``src/pertkit`` module is reached
when its own module mentions it past its definition, or when one of these
mentions it: ``cli.py``, another library module, a ``perfbench`` module other
than its tracer test, or ``tests/test_acceptance.py``.  A name that only its
own unit tests call is either removed with its tests or listed in
:data:`TEST_ONLY` with the reason it stays.  The files are read, never
imported or written.
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


def _unreached() -> dict:
    """Each unreached public name, with its module."""
    modules = sorted(SRC.glob("*.py"))
    readers = [ROOT / "tests" / "test_acceptance.py"]
    readers += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_tracer.py"]
    words = {p: _words(p) for p in modules + readers}
    unreached = {}
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if words[path][node.name] == 1 and not any(node.name in w for p, w in words.items() if p != path):
                    unreached[node.name] = path.stem
    return unreached


def test_only_the_listed_names_are_reached_by_tests_alone():
    unreached = _unreached()
    assert unreached.keys() == TEST_ONLY.keys(), unreached

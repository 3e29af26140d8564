"""File formats: JSON matrices, schedules, interaction models, state specs.

Matrix files are ``{"rows": n, "cols": m, "data": [...]}`` with JSON ints
``n, m >= 1`` and row-major ``data`` whose entries are ``[re, im]`` pairs or
bare numbers for real matrices; a nested list of rows is also accepted.  JSON
booleans are rejected.  The layout :func:`save_matrix` writes (pairs,
``json.dumps`` separators) is read in bounded chunks straight into one float
array; every other file goes to the general JSON reader, which converts entry
by entry, and both give the same values, or the same error, for the same file.
Every field a loader reads is checked for its JSON type; nothing is coerced.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import reprlib

import numpy as np

from .errors import MatrixFormatError
from .symdiag import MultisetState, TrilinearVertex, box_grid


def _entry(x) -> complex | None:
    """A number or an ``[re, im]`` pair as complex; None if malformed.

    JSON booleans are malformed, not 0 and 1."""
    parts = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0)
    if all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in parts):
        try:
            return complex(parts[0], parts[1])
        except OverflowError:
            pass
    return None


_ABBREVIATION = reprlib.Repr()  # a few items of each string, list and object, two levels deep
_ABBREVIATION.maxlevel = 2


def _shown(value) -> str:
    """``repr(value)`` for a refusal message, abbreviated past 500 characters,
    so that a huge value gives a bounded line."""
    text = repr(value)
    return text if len(text) <= 500 else _ABBREVIATION.repr(value)


def _finite_number(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


#: What a typed field may hold, as (description, test).  Nothing is coerced:
#: a JSON true is a bool, neither an int nor a number, and 2.0 is not an int.
_POSITIVE_INT = ("a positive int", lambda v: type(v) is int and v >= 1)
_NATURAL = ("a non-negative int", lambda v: type(v) is int and v >= 0)
_FINITE = ("a finite number", _finite_number)
_STRING = ("a string", lambda v: isinstance(v, str))
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_THREE_OBJECTS = ("a list of three objects", lambda v: isinstance(v, list) and len(v) == 3
                  and all(isinstance(x, dict) for x in v))


def _field(obj, key: str, kind: tuple, where: str = "", name: str | None = None):
    """``obj[key]`` when ``kind`` accepts it; otherwise a :class:`MatrixFormatError`
    that starts with ``where`` and names the field (``name``, ``repr(key)`` by
    default) and the value."""
    name = name or repr(key)
    if not isinstance(obj, dict) or key not in obj:
        raise MatrixFormatError(f"{where}missing key {name}")
    want, ok = kind
    if not ok(obj[key]):
        raise MatrixFormatError(f"{where}{name} must be {want}, got {_shown(obj[key])}")
    return obj[key]


def matrix_from_json(obj) -> np.ndarray:
    rows = _field(obj, "rows", _POSITIVE_INT)
    cols = _field(obj, "cols", _POSITIVE_INT)
    data = _field(obj, "data", _LIST)
    # both layouts fit only when cols == 1 and every item is a one-item list, never a flat entry
    if len(data) == rows and all(isinstance(row, list) and len(row) == cols for row in data):
        cells = list(itertools.chain.from_iterable(data))
    elif len(data) == rows * cols:
        cells = data
    else:
        raise MatrixFormatError(
            f"ragged or malformed data: expected {rows * cols} flat entries or {rows} rows of {cols}"
        )
    values = [_entry(x) for x in cells]
    if None in values:
        k = values.index(None)
        raise MatrixFormatError(f"bad matrix entry at index {k} (row {k // cols}, col {k % cols}): {_shown(cells[k])}")
    return np.array(values, dtype=complex).reshape(rows, cols)


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the ``what`` file ``path``; :class:`MatrixFormatError`
    naming it when it cannot be read, is not JSON or is not an object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:  # a ValueError, so caught before the clause below
        raise MatrixFormatError(f"{what} {path}: invalid JSON at line {exc.lineno}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # and bytes past UTF-8, ints past 4,300 digits, deep nesting
        raise MatrixFormatError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"{what} {path}: expected a JSON object, got {type(obj).__name__}")
    return obj


_PAIR_HEAD = re.compile(rb'\{"rows": ([1-9][0-9]{0,15}), "cols": ([1-9][0-9]{0,15}), "data": \[\[')
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b"[], \t\n\r")))
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
_CHUNK = 1 << 18  # bytes of number text per decode
_NUMBERS = json.JSONDecoder(parse_constant=int)  # int() refuses NaN and Infinity with a ValueError


def _pair_layout(raw: bytes) -> np.ndarray | None:
    """The matrix in ``raw`` when it is ASCII in :func:`save_matrix`'s layout,
    ``{"rows": R, "cols": C, "data": [[re, im], [re, im], ...]}`` with
    ``json.dumps``'s separators and optional trailing JSON whitespace; None
    for any other file.

    The layout is proven before a number is read: the skeleton of brackets,
    commas and whitespace must be that of ``R*C`` pairs (its length compared
    first, so a header that claims more entries than the file holds
    allocates nothing), every comma must be followed by its space, and every
    bracket must sit in the leading ``[[``, one of the ``R*C - 1`` separators
    ``], [`` or the closing ``]]``.  The text between brackets, blanked, is
    then decoded in chunks of about ``_CHUNK`` bytes into one float array.
    A value that is not a JSON int or float (NaN, true, null, a string) or
    an int past the float range returns None too, so the general reader
    gives its own value or error."""
    head = _PAIR_HEAD.match(raw)
    end = len(raw.rstrip(b" \t\n\r"))
    if head is None or not raw.isascii() or raw[end - 3:end] != b"]]}":
        return None
    rows, cols = int(head[1]), int(head[2])
    n = rows * cols
    skeleton, trailer = raw.translate(None, _NOT_SKELETON), raw[end:]
    if len(skeleton) != 7 + 6 * n + len(trailer):
        return None
    if (skeleton != b" ,  ,  [[, ]" + b", [, ]" * (n - 1) + b"]" + trailer
            or raw.count(b", ") != 2 * n + 1 or raw.count(b"], [") != n - 1):
        return None
    out = np.empty(2 * n)
    k, start, stop = 0, head.end(), end - 3
    try:
        while start < stop:
            cut = raw.find(b"], [", start + _CHUNK, stop)
            cut = stop if cut < 0 else cut
            values = _NUMBERS.decode("[" + raw[start:cut].translate(_BLANK_BRACKETS).decode() + "]")
            if not set(map(type, values)) <= {int, float}:
                return None
            out[k:k + len(values)] = values
            k += len(values)
            start = cut + 4
    except (ValueError, OverflowError, RecursionError):  # bad JSON, a constant, an int past the float range
        return None
    return out.view(complex).reshape(rows, cols) if k == out.size else None


def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file; errors carry file and field context.

    A file in :func:`save_matrix`'s layout is read once, by
    :func:`_pair_layout`; any other, and any file that cannot be read, goes
    to the general reader, which gives the same values and every error."""
    try:
        with open(path, "rb") as fh:
            values = _pair_layout(fh.read())
    except OSError:
        values = None
    if values is not None:
        return values
    obj = _read_json(path, "matrix")
    try:
        return matrix_from_json(obj)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def save_matrix(path: str, m) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)


def load_schedule(path: str):
    """Schedule file: ``{"a": "A.json", "b": "B.json", "ramp": "linear"}``.

    Matrix paths are resolved relative to the schedule file, and all three
    values are strings; ``ramp`` defaults to ``"linear"``.  Returns the pair
    of matrices and the ramp name.
    """
    obj = {"ramp": "linear", **_read_json(path, "schedule")}
    a, b, ramp = (_field(obj, key, _STRING, f"schedule {path}: ") for key in ("a", "b", "ramp"))
    base = os.path.dirname(os.path.abspath(path))
    return load_matrix(os.path.join(base, a)), load_matrix(os.path.join(base, b)), ramp


def load_model(path: str) -> TrilinearVertex:
    """Interaction model file.

    ``{"species": [{"name": "a", "mass": 1.0}, ...], "grid": {"dim": 1, "radius": 2},
       "max_particles": 7}`` with the trilinear vertex rule and dispersion
    ``sqrt(m^2 + p^2)``; the Fock cutoff ``max_particles`` is optional (7).
    """
    obj = {"max_particles": TrilinearVertex.max_particles, **_read_json(path, "model")}
    where = f"model {path}: "
    species = _field(obj, "species", _THREE_OBJECTS, where)
    names = tuple(_field(sp, "name", _STRING, where, f"species[{k}].name") for k, sp in enumerate(species))
    if len(set(names)) != 3:
        raise MatrixFormatError(f"{where}species names must be distinct, got {_shown(names)}")
    masses = {names[k]: float(_field(sp, "mass", _FINITE, where, f"species[{k}].mass")) for k, sp in enumerate(species)}
    grid = _field(obj, "grid", _OBJECT, where)
    grid = box_grid(_field(grid, "dim", _POSITIVE_INT, where, "grid.dim"),
                    _field(grid, "radius", _NATURAL, where, "grid.radius"))
    cutoff = _field(obj, "max_particles", _POSITIVE_INT, where, "max_particles")
    return TrilinearVertex(masses=masses, grid=grid, species=names, max_particles=cutoff)


def parse_state(spec: str) -> MultisetState:
    """State literal ``"a:1,b:-1"``; momentum components separated by ';'.

    Example in two dimensions: ``"a:1;0,b:0;1"``.
    """
    particles = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            species, momentum = item.split(":")
            p = tuple(int(c) for c in momentum.split(";"))
        except ValueError as exc:
            raise MatrixFormatError(f"bad state item {item!r}: {exc}") from exc
        particles.append((species, p))
    if not particles:
        raise MatrixFormatError("empty state literal")
    return MultisetState.of(*particles)

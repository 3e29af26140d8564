"""The operand contract of the public API, found from signatures.

Every public function of the library modules that takes an operand pair
(``a`` or ``a_diag`` with ``b``, or ``u`` with ``m``) raises
:class:`ShapeError` when the two shapes differ, every one that takes a rate
(``tau``, ``eta``, ``eps``, ``t_max``) raises :class:`ArgumentError` unless
the rate is positive and finite, and every one that takes an order
(``order``, ``m_max`` or an integer ``k``) raises :class:`ArgumentError` when
it is negative.  Every one that takes a float time ``t`` raises
:class:`ArgumentError` when it is NaN or infinite, every one that takes an
``int`` index ``i`` or ``j`` raises it at ``-1``, at ``n`` and at the
non-integer ``0.5``.  A NaN or infinite entry in either operand, or an
operand that is not a non-empty 2-D matrix, raises
:class:`MatrixFormatError`, and a non-square one raises
:class:`ShapeError`.  A time grid is a :class:`matcore.TimeGrid` of
an integer count of at least 8 steps, and every function that takes one
(``g``) and holds arrays over its nodes raises :class:`EnumerationLimitError`
on a grid past :data:`matcore.GRID_CAP` before it allocates them.  Every
other required parameter is filled from
:data:`FILL`, keyed by parameter name: new API registers its parameters
there.
"""

import inspect
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from pertkit import cli, evolution, matcore, resolvent, scattering, spectral, symdiag, tensor
from pertkit.errors import ArgumentError, EnumerationLimitError, MatrixFormatError, PertkitError, ShapeError

MODULES = (matcore, resolvent, spectral, evolution, scattering, symdiag, tensor)
PAIRS = (("a", "b"), ("a_diag", "b"), ("u", "m"))
#: a valid value of each rate
RATES = {"tau": 0.5, "eta": 10.0, "eps": 0.2, "t_max": 5.0}
BAD_RATES = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}
#: the names of an order; a ``k`` is one only when it is an ``int``
ORDERS = ("order", "m_max", "k")
#: the name of a time, when it is a ``float``, and the names of an index, when it is an ``int``
TIMES = ("t",)
INDICES = ("i", "j")
#: the oscillator's ``eta`` shifts its split, ``A = -Lap + (1 + eta) X^2``; 0 is its default
NOT_RATES = {"spectral.harmonic_oscillator_operators", "spectral.harmonic_oscillator_demo"}

A = np.diag([1.0, 2.0])
B = 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
MISMATCHED_B = {"1x1": np.array([[0.1]]), "3x3": 0.1 * np.ones((3, 3))}


class ByAnnotation(dict):
    """The values of a parameter name that means different things in
    different functions, keyed by the parameter's annotation."""


I_STATE = symdiag.MultisetState.of(("a", (1,)), ("b", (-1,)))
J_STATE = symdiag.MultisetState.of(("a", (-1,)), ("b", (1,)))
RULE = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 2))
BOP = symdiag.build_interaction(RULE, [I_STATE, J_STATE], depth=2)

#: Every required parameter of the covered API other than its operands and rates.
FILL = {
    "bop": BOP,
    "charge": 1.0,
    "contour": matcore.ContourSpec(center=1.0, radius=0.5),  # encloses one level of A
    "dispersion": lambda p: p * p,
    "eigenvalues": np.array([1.0, 2.0]),
    "ell": 2,
    "eps_shell": 1.0,
    "g": evolution.TimeGrid(64),
    "grid_radius": 1,
    "grid_spec": (1, 2),
    "groups": symdiag.group_terms_by_diagram(BOP, I_STATE, J_STATE, 2),
    "i": 0,
    "i_state": I_STATE,
    "j": 1,
    "j_state": J_STATE,
    "k": ByAnnotation({"int": 3, "KroneckerSum": tensor.KroneckerSum((A, A))}),
    "lam_i": 1.0,
    "lam_j": 2.0,
    "lam": [1.0, 2.0],
    "lambda_series": spectral.eigenvalue_coefficients(A, B, 0, 3),
    "links": resolvent.dense_links(B).__getitem__,
    "m_a": 1.0,
    "m_b": 2.0,
    "m_c": 0.5,
    "m_max": 3,
    "n": 2,
    "name": "k",  # the order that matcore.check_order checks is its own k
    "norm_a": 2.0,
    "norm_b": 0.1,
    "num_sites": 8,
    "omega": 0.3,
    "order": 2,
    "p": 1,
    "p0": (2.5, 0.5, 0.5),
    "potential": lambda x: 0.1 * math.cos(x),
    "q": ByAnnotation({
        "int": 2,
        "ScatteringQuery": scattering.ScatteringQuery(0, 1, 0.5),
        "SimplexQuadrature": resolvent.SimplexQuadrature("recursive-grid", 4),
        "LineQuadrature": tensor.LineQuadrature(cutoff=10.0, nodes=200),
    }),
    "q0": (0.0, 0.0, 0.0),
    "s": spectral.schur_split(A, B, 0),
    "sched": evolution.ramped_schedule(A, B),
    "t": 0.5,
    "u": np.eye(2),
    "v": np.ones(2),
}


def _public_functions():
    for mod in MODULES:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{layer}.{name}", fn


def _pair(fn) -> tuple:
    params = inspect.signature(fn).parameters
    return next((p for p in PAIRS if set(p) <= params.keys()), ())


def _rates(qual, fn) -> list:
    params = inspect.signature(fn).parameters
    return [] if qual in NOT_RATES else [r for r in RATES if r in params]


def _named(fn, names, annotation) -> list:
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params if p.name in names and p.annotation == annotation]


def _orders(fn) -> list:
    return _named(fn, ORDERS, "int")


PAIR_API = {q: fn for q, fn in _public_functions() if _pair(fn)}
RATE_API = {q: fn for q, fn in _public_functions() if _rates(q, fn)}
ORDER_API = {q: fn for q, fn in _public_functions() if _orders(fn)}
TIME_API = {q: fn for q, fn in _public_functions() if _named(fn, TIMES, "float")}
INDEX_API = {q: fn for q, fn in _public_functions() if _named(fn, INDICES, "int")}
GRID_API = {q: fn for q, fn in _public_functions() if "g" in inspect.signature(fn).parameters}
API = PAIR_API | RATE_API | ORDER_API | TIME_API | INDEX_API | GRID_API


def _others(fn):
    """The required parameters that are neither operands nor rates."""
    return [p for p in inspect.signature(fn).parameters.values()
            if p.name not in _pair(fn) and p.name not in RATES and p.default is inspect.Parameter.empty]


def _call(fn, a=A, b=B, **values):
    """``fn`` on the pair ``(a, b)`` if it takes one, the given values, valid
    values of its other rates and :data:`FILL` for everything else."""
    kwargs = dict(zip(_pair(fn), (a, b)))
    kwargs |= {r: RATES[r] for r in RATES if r in inspect.signature(fn).parameters}
    for p in _others(fn):
        value = FILL[p.name]
        kwargs[p.name] = value[p.annotation] if isinstance(value, ByAnnotation) else value
    return fn(**(kwargs | values))


def test_the_contract_finds_the_operand_and_rate_api():
    assert {
        "matcore.as_pair", "resolvent.exact_remainder", "resolvent.feynman_parameter_entry",
        "scattering.s_term_index_sum", "spectral.spectral_measure", "spectral.eigenvalue_coefficients",
        "symdiag.commute_check", "symdiag.restricted_inverse",
    } <= PAIR_API.keys()
    assert {
        "scattering.s_matrix_unitarity_defect", "evolution.adiabatic_evolve", "symdiag.diagram_values",
        "symdiag.three_particle_demo", "tensor.convolution_resolvent",
    } <= RATE_API.keys()
    assert {
        "resolvent.series_terms", "resolvent.feynman_parameter_entry", "spectral.unit_eigenvector_expansion",
        "evolution.remainder_bound", "evolution.dyson_terms", "scattering.s_series",
    } <= ORDER_API.keys()
    assert "scattering.s_entry_time_average" in RATE_API and "tensor.convolution_resolvent" not in ORDER_API
    assert {
        "evolution.remainder_bound", "evolution.exp_series_terms", "evolution.dyson_terms", "matcore.cascade",
    } == TIME_API.keys()
    assert {
        "matcore.check_index", "resolvent.feynman_parameter_entry", "spectral.default_contour",
        "spectral.eigenvalue_coefficients", "spectral.schur_split", "evolution.adiabatic_evolve",
        "symdiag.restricted_inverse",
    } <= INDEX_API.keys()
    assert {
        "evolution.laplace_resolvent_bridge", "evolution.adiabatic_evolve", "scattering.s_entry_time_average",
    } == GRID_API.keys()


@pytest.mark.parametrize("qual", sorted(API))
def test_every_other_parameter_is_registered(qual):
    missing = [p.name for p in _others(API[qual]) if p.name not in FILL]
    assert not missing, f"register {missing} of {qual} in FILL"


@pytest.mark.parametrize("qual", sorted(API))
def test_the_filled_call_is_valid(qual):
    # without it, the checks below could pass on an error of the filling
    _call(API[qual])


@pytest.mark.parametrize("shape", MISMATCHED_B)
@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_a_mismatched_pair_raises_a_shape_error(qual, shape):
    with pytest.raises(ShapeError):
        _call(PAIR_API[qual], b=MISMATCHED_B[shape])


@pytest.mark.parametrize("bad", BAD_RATES)
@pytest.mark.parametrize("qual", sorted(RATE_API))
def test_a_rate_that_is_not_positive_and_finite_raises_an_argument_error(qual, bad):
    for rate in _rates(qual, RATE_API[qual]):
        with pytest.raises(ArgumentError, match=f"^{rate} must be positive$"):
            _call(RATE_API[qual], **{rate: BAD_RATES[bad]})


@pytest.mark.parametrize("qual", sorted(ORDER_API))
def test_a_negative_order_raises_an_argument_error(qual):
    for order in _orders(ORDER_API[qual]):
        with pytest.raises(ArgumentError, match=f"^{order} must be nonnegative$"):
            _call(ORDER_API[qual], **{order: -1})


@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_a_one_by_one_pair_returns_a_value_or_raises_a_typed_error(qual):
    try:
        _call(PAIR_API[qual], a=np.array([[1.0]]), b=np.array([[0.1]]))
    except PertkitError:
        pass


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("qual", sorted(TIME_API))
def test_a_time_that_is_not_finite_raises_an_argument_error(qual, bad):
    for time in _named(TIME_API[qual], TIMES, "float"):
        with pytest.raises(ArgumentError, match="must be finite"):
            _call(TIME_API[qual], **{time: bad})


@pytest.mark.parametrize("bad", [A.shape[0], -1, 0.5], ids=["n", "-1", "0.5"])
@pytest.mark.parametrize("qual", sorted(INDEX_API))
def test_an_index_out_of_range_raises_an_argument_error(qual, bad):
    for index in _named(INDEX_API[qual], INDICES, "int"):
        with pytest.raises(ArgumentError):
            _call(INDEX_API[qual], **{index: bad})


@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_a_nan_entry_raises_a_matrix_format_error(qual, operand):
    pair = {"a": A.copy(), "b": B.copy()}
    pair[operand][0, 1] = math.nan
    with pytest.raises(MatrixFormatError):
        _call(PAIR_API[qual], **pair)


@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_an_infinite_entry_raises_a_matrix_format_error(qual, operand):
    pair = {"a": A.copy(), "b": B.copy()}
    pair[operand][1, 0] = math.inf
    with pytest.raises(MatrixFormatError, match="^matrix contains non-finite entries$"):
        _call(PAIR_API[qual], **pair)


@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_a_non_square_operand_raises_a_shape_error(qual, operand):
    # refused as not square, before the two shapes are compared
    pair = {"a": A, "b": B} | {operand: np.ones((2, 3))}
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        _call(PAIR_API[qual], **pair)


NOT_MATRICES = {"vector": np.ones(2), "empty": np.zeros((0, 0))}


@pytest.mark.parametrize("shape", NOT_MATRICES)
@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("qual", sorted(PAIR_API))
def test_an_operand_that_is_not_a_non_empty_matrix_raises_a_matrix_format_error(qual, operand, shape):
    pair = {"a": A, "b": B} | {operand: NOT_MATRICES[shape]}
    got = re.escape(str(NOT_MATRICES[shape].shape))
    with pytest.raises(MatrixFormatError, match=f"^expected a 2-D matrix, got shape {got}$"):
        _call(PAIR_API[qual], **pair)


@pytest.mark.parametrize("steps", [64.0, 10.5, "64", None, 7, 0, -8],
                         ids=["float", "fractional", "string", "none", "7", "0", "-8"])
def test_a_grid_that_is_not_an_integer_count_of_at_least_8_steps_is_refused(steps):
    with pytest.raises(ArgumentError, match="^need an integer count of at least 8 steps, got "):
        matcore.TimeGrid(steps)


@pytest.mark.parametrize("steps", [matcore.GRID_CAP, 10**301], ids=["cap", "1e301"])
@pytest.mark.parametrize("qual", sorted(GRID_API))
def test_a_grid_past_the_cap_is_refused_before_its_nodes_are_allocated(qual, steps):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(EnumerationLimitError, match=f"^time grid of {steps + 1} nodes x [0-9]+ entries exceeds cap"):
            _call(GRID_API[qual], g=matcore.TimeGrid(steps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 2**20


@pytest.mark.parametrize("count", [math.inf, math.nan, 40 * 1e308, 24 * 1e307, 1e300, float(matcore.GRID_CAP)],
                         ids=["inf", "nan", "40x1e308", "24x1e307", "1e300", "cap"])
def test_a_float_step_count_past_the_cap_is_refused_before_int(count):
    # the CLI's rate-times-length step counts: int() of infinity is an untyped OverflowError
    nodes = math.floor(count) + 1 if math.isfinite(count) else count
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match=f"^time grid of {nodes} nodes x 1 entries exceeds cap 67108864$"):
        matcore.TimeGrid.of(count)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("count, at_least, steps", [(matcore.GRID_CAP - 0.5, 8, matcore.GRID_CAP - 1), (100.9, 8, 100),
                                                    (7.9, 8, 8), (100.0, 640, 640)])
def test_a_float_step_count_within_the_cap_is_truncated_and_floored(count, at_least, steps):
    assert matcore.TimeGrid.of(count, at_least) == matcore.TimeGrid(steps)


@pytest.mark.parametrize("refuse, message", [
    (lambda: evolution.remainder_bound(1000.0, 1.0, 0.5, 3), r"^remainder bound overflows: e\^1517 at t=1000, order 3$"),
    (lambda: evolution.exp_series_terms(A, B, 1000.0, 3), "^exponential overflows: t "),
    (lambda: evolution.dyson_terms(1j * A, B, 1000.0, 3), "^exponential overflows: t "),
    (lambda: resolvent.series_terms(A, 1e150 * B, 4), "^resolvent series overflows the float range at order 3$"),
    (lambda: spectral.eigenvalue_coefficients(A, 1e150 * B, 0, 4),
     "^eigenvalue coefficient overflows the float range at order 4$"),
    (lambda: resolvent.feynman_parameter_entry([[1e200]], [[1e200]], 0, 0, 0.5, 2, resolvent.SimplexQuadrature()),
     "^Feynman-parameter entry overflows the float range at order 2$"),
    (lambda: scattering.s_series(A, 1e200 * B, scattering.ScatteringQuery(0, 0, 0.5), 2),
     "^scattering series overflows the float range at order 2$"),
], ids=["remainder-bound", "exp-series", "dyson-non-hermitian", "resolvent-series", "eigenvalue-coefficients",
        "feynman-entry", "scattering-series"])
def test_a_result_past_the_float_range_is_refused(refuse, message):
    # e^x passes the largest float at x = 709.8: an untyped OverflowError, or a non-finite result
    start = time.perf_counter()
    with pytest.raises(ArgumentError, match=message):
        refuse()
    assert time.perf_counter() - start < 1.0


def test_an_empty_enumeration_sums_to_zero():
    zero = np.zeros((2, 2))
    entry = _call(resolvent.feynman_parameter_entry, b=zero)  # i != j: no path at any order
    assert entry.order_values == (0,) * (FILL["m_max"] + 1) and entry.value == 0
    assert _call(scattering.s_term_index_sum, b=zero) == 0
    c_state = symdiag.MultisetState.of(("c", (1,)))  # total momentum 1, not 0
    assert symdiag.group_terms_by_diagram(BOP, I_STATE, c_state, 1) == {}


def _full_interaction(n):
    """``n`` states of total momentum 0, every pair of them (and every state with itself) linked."""
    basis = [symdiag.MultisetState.of(("a", (p,)), ("b", (-p,))) for p in range(n)]
    return symdiag.SparseInteraction(basis, {(s, t): 0.01 for s in basis for t in basis}, RULE.dispersion)


@pytest.mark.parametrize("n, order", [(100, 4), (10, 7)])
def test_a_huge_enumeration_is_refused_up_front(n, order):
    # the diagram walk extends 1 + n + ... + n**(order - 1) partial paths, past PATH_CAP = 10**6 at both
    # sizes: refused before the walk.  The sweep of the two dense sums follows 100 + 10**4 + 10**6 links into
    # its third layer at n = 100, past the cap before that layer is built; at n = 10, order 7 it follows
    # 120,130 in all and runs (TestMultisetColumns)
    a, b, bop = np.diag(np.arange(1.0, n + 1.0)), 0.01 * np.ones((n, n)), _full_interaction(n)
    routes = [lambda: symdiag.group_terms_by_diagram(bop, bop.basis[0], bop.basis[1], order)]
    if n == 100:
        routes += [lambda: resolvent.feynman_parameter_entry(a, b, 0, 1, 0.5, order, resolvent.SimplexQuadrature()),
                   lambda: scattering.s_term_index_sum(a, b, scattering.ScatteringQuery(0, 1, 0.5), order)]
    for refuse in routes:
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError):
            refuse()
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shifts", [66, 80])
def test_a_simplex_integrand_past_2_gib_is_refused(shifts):
    # n = 45, order 4: the 45**3 paths fall into C(47, 3) = 16,215 multiset columns, and those times
    # 251 points per shift are past the 2**28-entry work bound from 66 shifts on (65 make 264,533,725
    # sample-columns), which a 2 GiB float64 x @ lam_rows.T would hold were the integrand formed at once
    a, b = np.diag(np.arange(1.0, 46.0)), 0.001 * np.ones((45, 45))
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError,
                       match=f"^order 4: {251 * shifts} samples x 16215 columns exceed cap 268435456$"):
        resolvent.feynman_parameter_entry(a, b, 0, 1, 0.5, 4, resolvent.SimplexQuadrature("lattice", shifts))
    assert time.perf_counter() - start < 1.0
    assert 251 * 65 * 16215 <= resolvent.INTEGRAND_CAP < 251 * 66 * 16215


def test_an_integrand_within_the_cap_by_columns_runs():
    # n = 8, order 6: 8**5 = 32,768 paths times 33 shifts of 251 points, 8,283, pass the cap when it counted
    # paths; the integrand runs over C(12, 5) = 792 columns, 6.6e6 sample-columns
    rng = np.random.default_rng(0)
    lam, b = np.linspace(1.0, 3.0, 8), rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = 0.3 * (b + b.conj().T) / np.linalg.norm(b + b.conj().T, 2)
    assert 251 * 33 * 8**5 > resolvent.INTEGRAND_CAP
    start = time.perf_counter()
    q = resolvent.SimplexQuadrature("lattice", 33)
    entry = resolvent.feynman_parameter_entry(np.diag(lam), b, 0, 1, 0.5, 6, q)
    assert time.perf_counter() - start < 2.0
    want = resolvent.series_terms(np.diag(lam) + 0.5j * np.eye(8), b, 7).terms[:, 0, 1].sum()
    assert abs(entry.value - want) <= 3.0 * entry.std_error  # measured 0.71 of the standard error


def test_a_diagrams_job_with_no_paths_exits_zero(tmp_path, capsys):
    # every vertex flips the parity of all three species, so a + b -> a + b has no odd-order path
    model = {"species": [{"name": s, "mass": m} for s, m in zip("abc", (1.0, 2.0, 0.5))],
             "grid": {"dim": 1, "radius": 1}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    code = cli.main(["diagrams", "--model", str(tmp_path / "model.json"), "--i", "a:1,b:-1", "--j", "a:-1,b:1",
                     "--ell", "3", "--tau", "0.1"])
    out = capsys.readouterr().out
    assert code == 0 and "num_diagrams=0" in out and "\ndiagram_partition_identity,0.0,1e-11,1\n" in out

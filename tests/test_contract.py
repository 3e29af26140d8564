"""The operand contract of the public API, found from signatures.

Every public function of the library modules that takes an operand pair
(``a`` or ``a_diag`` with ``b`` or ``b_of_t``, or ``u`` with ``m``) raises
:class:`ShapeError` when the two shapes differ, every one that takes a rate
(``tau``, ``eta``, ``eps``, ``t_max``) raises :class:`ArgumentError` unless
the rate is positive and finite, and every one that takes an order
(``order``, ``m_max`` or an integer ``k``) raises :class:`ArgumentError` when
it is negative.  Every one that takes a float time (``t``, or the start
``s``) raises :class:`ArgumentError` when it is NaN or infinite, every one
that takes an ``int`` index ``i`` or ``j`` raises it at ``-1``, at ``n`` and
at the non-integer ``0.5``, and a NaN entry in either operand raises
:class:`MatrixFormatError`.  Every other required parameter is filled from
:data:`FILL`, keyed by parameter name: new API registers its parameters
there.
"""

import inspect
import json
import math

import numpy as np
import pytest

from pertkit import cli, evolution, matcore, resolvent, scattering, spectral, symdiag, tensor
from pertkit.errors import ArgumentError, MatrixFormatError, PertkitError, ShapeError

MODULES = (matcore, resolvent, spectral, evolution, scattering, symdiag, tensor)
PAIRS = (("a", "b"), ("a_diag", "b"), ("a", "b_of_t"), ("u", "m"))
#: a valid value of each rate
RATES = {"tau": 0.5, "eta": 10.0, "eps": 0.2, "t_max": 5.0}
BAD_RATES = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}
#: the names of an order; a ``k`` is one only when it is an ``int``
ORDERS = ("order", "m_max", "k")
#: the names of a time, when it is a ``float``, and of an index, when it is an ``int``
TIMES = ("t", "s")
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
    "c": matcore.ContourSpec(center=1.5, radius=3.0),  # encloses the spectrum of A + B
    "charge": 1.0,
    "contour": matcore.ContourSpec(center=1.0, radius=0.5),  # encloses one level of A
    "dispersion": lambda p: p * p,
    "eigenvalues": np.array([1.0, 2.0]),
    "ell": 2,
    "eps_shell": 1.0,
    "f": lambda x: x,  # a ramp, and a holomorphic function
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
    "lambda_series": spectral.eigenvalue_coefficients(A, B, 0, 3),
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
    "s": ByAnnotation({"float": 0.0, "SchurData": spectral.schur_split(A, B, 0)}),
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
API = PAIR_API | RATE_API | ORDER_API | TIME_API | INDEX_API


def _others(fn):
    """The required parameters that are neither operands nor rates."""
    return [p for p in inspect.signature(fn).parameters.values()
            if p.name not in _pair(fn) and p.name not in RATES and p.default is inspect.Parameter.empty]


def _call(fn, a=A, b=B, **values):
    """``fn`` on the pair ``(a, b)`` if it takes one, the given values, valid
    values of its other rates and :data:`FILL` for everything else."""
    kwargs = dict(zip(_pair(fn), (a, b)))
    if "b_of_t" in kwargs:
        kwargs["b_of_t"] = lambda t: b
    kwargs |= {r: RATES[r] for r in RATES if r in inspect.signature(fn).parameters}
    for p in _others(fn):
        value = FILL[p.name]
        kwargs[p.name] = value[p.annotation] if isinstance(value, ByAnnotation) else value
    return fn(**(kwargs | values))


def test_the_contract_finds_the_operand_and_rate_api():
    assert {
        "matcore.as_pair", "resolvent.exact_remainder", "resolvent.feynman_parameter_entry",
        "scattering.s_term_index_sum", "spectral.spectral_measure", "spectral.eigenvalue_coefficients",
        "evolution.propagator_time_dependent", "evolution.holomorphic_calculus",
        "symdiag.commute_check", "symdiag.restricted_inverse",
    } <= PAIR_API.keys()
    assert {
        "scattering.s_matrix_unitarity_defect", "evolution.adiabatic_evolve", "evolution.adiabatic_eigvec_series",
        "symdiag.diagram_values", "symdiag.three_particle_demo", "tensor.convolution_resolvent_symmetric",
    } <= RATE_API.keys()
    assert {
        "resolvent.series_terms", "resolvent.feynman_parameter_entry", "spectral.unit_eigenvector_expansion",
        "evolution.remainder_bound", "evolution.dyson_terms", "scattering.s_series",
    } <= ORDER_API.keys()
    assert "scattering.s_entry_time_average" in RATE_API and "tensor.convolution_resolvent" not in ORDER_API
    assert {
        "evolution.remainder_bound", "evolution.exp_series_terms", "evolution.dyson_terms",
        "evolution.propagator_time_dependent", "tensor.exp_factorization_check",
    } == TIME_API.keys()
    assert {
        "matcore.check_index", "resolvent.feynman_parameter_entry", "spectral.default_contour",
        "spectral.eigenvalue_coefficients", "spectral.schur_split", "evolution.adiabatic_evolve",
        "symdiag.restricted_inverse",
    } <= INDEX_API.keys()


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


def test_an_empty_enumeration_sums_to_zero():
    zero = np.zeros((2, 2))
    entry = _call(resolvent.feynman_parameter_entry, b=zero)  # i != j: no path at any order
    assert entry.order_values == (0,) * (FILL["m_max"] + 1) and entry.value == 0
    assert _call(scattering.s_term_index_sum, b=zero) == 0
    c_state = symdiag.MultisetState.of(("c", (1,)))  # total momentum 1, not 0
    assert symdiag.group_terms_by_diagram(BOP, I_STATE, c_state, 1) == {}


def test_a_diagrams_job_with_no_paths_exits_zero(tmp_path, capsys):
    # every vertex flips the parity of all three species, so a + b -> a + b has no odd-order path
    model = {"species": [{"name": s, "mass": m} for s, m in zip("abc", (1.0, 2.0, 0.5))],
             "grid": {"dim": 1, "radius": 1}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    code = cli.main(["diagrams", "--model", str(tmp_path / "model.json"), "--i", "a:1,b:-1", "--j", "a:-1,b:1",
                     "--ell", "3", "--tau", "0.1"])
    out = capsys.readouterr().out
    assert code == 0 and "num_diagrams=0" in out and "\ndiagram_partition_identity,0.0,1e-11,1\n" in out

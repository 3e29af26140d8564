"""Every module's argument checks raise a typed :class:`PertkitError` that
is still a ``ValueError``, so ``except ValueError`` callers keep working."""

import re

import numpy as np
import pytest

from pertkit import evolution, iotools, matcore, reporting, resolvent, scattering, spectral, symdiag, tensor
from pertkit.errors import (ArgumentError, ContourEnclosureError, MatrixFormatError, NotHermitianError, PertkitError,
                            ShapeError)

NOT_DIAGONAL = np.array([[0.0, 1.0], [1.0, 2.0]])
#: diagonal to 1e-13 relative: accepted by the old 1e-12 test of ``lambda4_closed_form``
NEARLY_DIAGONAL = np.array([[0.0, 1e-13], [1e-13, 2.0]])
LEVELS = np.diag([0.0, 1.0, 3.0])
#: diagonal but not Hermitian: its real part alone is not the operator
COMPLEX_LEVELS = np.diag([1.0 + 0.5j, 2.0, 3.0])
#: each finite, twice itself not: the sum of a schedule's pair overflows
HUGE_LEVELS = np.diag([0.0, 1e308])

BAD_CALLS = {
    "matcore": (lambda: matcore.simpson_weights(3, 0.1), ArgumentError),
    "matcore-index": (lambda: matcore.check_index(3, 3), ArgumentError),
    "matcore-diagonal": (lambda: matcore.diagonal_of(NOT_DIAGONAL), MatrixFormatError),
    "matcore-complex-diagonal": (lambda: matcore.diagonal_of(COMPLEX_LEVELS), NotHermitianError),
    "evolution-ramp": (lambda: evolution.ramped_schedule(LEVELS, LEVELS, "bogus"), ArgumentError),
    "evolution-ramp-number": (lambda: evolution.ramped_schedule(LEVELS, LEVELS, 3), ArgumentError),
    "evolution-ramp-none": (lambda: evolution.ramped_schedule(LEVELS, LEVELS, None), ArgumentError),
    "evolution-ramp-list": (lambda: evolution.ramped_schedule(LEVELS, LEVELS, ["linear"]), ArgumentError),
    "evolution-overflow": (lambda: evolution.ramped_schedule(HUGE_LEVELS, HUGE_LEVELS), ArgumentError),
    "reporting": (lambda: reporting.Report("cmd", {}, 0, ["a", "b"]).add_row(1.0), ArgumentError),
    "resolvent": (lambda: resolvent.SimplexQuadrature(method="recursive-grid", samples_or_depth=1), ArgumentError),
    "resolvent-diagonal": (
        lambda: resolvent.feynman_parameter_entry(NOT_DIAGONAL, np.eye(2), 0, 1, 0.5, 2, resolvent.SimplexQuadrature()),
        MatrixFormatError,
    ),
    "resolvent-complex-diagonal": (
        lambda: resolvent.feynman_parameter_entry(COMPLEX_LEVELS, np.eye(3), 0, 1, 0.5, 2, resolvent.SimplexQuadrature()),
        NotHermitianError,
    ),
    "spectral": (lambda: spectral.harmonic_oscillator_operators(4), ArgumentError),
    "spectral-diagonal": (lambda: spectral.lambda4_closed_form(NOT_DIAGONAL, np.eye(2), 0), MatrixFormatError),
    "spectral-nearly-diagonal": (lambda: spectral.lambda4_closed_form(NEARLY_DIAGONAL, np.eye(2), 0), MatrixFormatError),
    "spectral-complex-diagonal": (lambda: spectral.lambda4_closed_form(COMPLEX_LEVELS, np.eye(3), 0), NotHermitianError),
    "spectral-contour-index": (lambda: spectral.default_contour([0.0, 1.0], 5), ArgumentError),
    "spectral-coefficients-index": (lambda: spectral.eigenvalue_coefficients(LEVELS, LEVELS, -1, 2), ArgumentError),
    "spectral-split-index": (lambda: spectral.schur_split(LEVELS, np.zeros((3, 3)), -1), ArgumentError),
    "spectral-measure-probe": (lambda: spectral.spectral_measure(LEVELS, LEVELS, np.ones(2)), ShapeError),
    "spectral-lambda4-index": (lambda: spectral.lambda4_closed_form(LEVELS, LEVELS, 3), ArgumentError),
    "tensor": (lambda: tensor.LineQuadrature(cutoff=5.0, nodes=400), ArgumentError),
    "scattering": (lambda: scattering.born_demo(3, abs, lambda x: 0.0, 0, 0, 0.1), ArgumentError),
    "scattering-diagonal": (
        lambda: scattering.s_term_index_sum(NOT_DIAGONAL, np.eye(2), scattering.ScatteringQuery(0, 1, 0.1), 2),
        MatrixFormatError,
    ),
    "scattering-complex-diagonal": (
        lambda: scattering.s_term_index_sum(COMPLEX_LEVELS, np.eye(3), scattering.ScatteringQuery(0, 1, 0.1), 2),
        NotHermitianError,
    ),
}


@pytest.mark.parametrize("call, error", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_a_bad_call_raises_a_typed_value_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, PertkitError) and isinstance(info.value, ValueError)


TWO_DOTS = symdiag.Diagram.of(2, [("x", symdiag.EXT_IN, 1), ("x", 1, 2), ("x", 2, 3)])
TWO_DOT_EXTERNALS = dict.fromkeys(TWO_DOTS.external_indices(), (2,))
LEVEL_B = 0.1 * np.ones((3, 3))


def _short_series_expansion():
    split = spectral.schur_split(LEVELS, LEVEL_B, 0)
    return spectral.unit_eigenvector_expansion(split, spectral.eigenvalue_coefficients(LEVELS, LEVEL_B, 0, 1), 3)


def _three_particle(i_spec, j_spec):
    return symdiag.three_particle_demo((1, 1), 1.0, 1.0, 0.5, iotools.parse_state(i_spec),
                                       iotools.parse_state(j_spec), 0.1)


#: guarded branches that no other tier-1 test reaches, each with the outcome that shows it ran
BRANCHES = {
    "contour-not-isolated": (lambda: spectral.default_contour([1.0, 1.0], 0),
                             (ContourEnclosureError, "^target eigenvalue is not isolated$")),
    "contour-around-another-level": (
        lambda: spectral.eigenvalue_coefficients(LEVELS, LEVEL_B, 0, 2, contour=matcore.ContourSpec(1.0, 0.5, 64)),
        (ContourEnclosureError, "^contour does not enclose the target eigenvalue$")),
    "eigenvector-series-too-short": (_short_series_expansion,
                                     (ArgumentError, "^eigenvalue series too short for the requested order$")),
    "tree-external-keys": (lambda: symdiag.tree_solve(TWO_DOTS, {0: (2,)}, (2,)),
                           (ArgumentError, "^external momenta must cover exactly the external lines$")),
    "tree-dimension": (lambda: symdiag.tree_solve(TWO_DOTS, TWO_DOT_EXTERNALS, (2, 0)),
                       (ShapeError, "^momentum dimension mismatch$")),
    "three-particle-no-a": (lambda: _three_particle("b:1,b:-1", "a:-1,b:1"),
                            (ArgumentError, r"must contain exactly one 'a' particle$")),
    "three-particle-totals": (lambda: _three_particle("a:1,b:-1", "a:1,b:0"),
                              (ArgumentError, "^states must carry the same total momentum$")),
    "kronecker-no-factor": (lambda: tensor.KroneckerSum(()), (ArgumentError, "^need at least one factor$")),
    "dirac-two-vector": (lambda: tensor.dirac_block_matrix([0.3, 0.2], 1.0, 0.4),
                         (ShapeError, "^momentum must be a 3-vector$")),
    "born-mode-out-of-range": (lambda: scattering.born_demo(8, abs, lambda x: 0.0, 4, 0, 0.1),
                               (ArgumentError, "^mode numbers out of range$")),
    "rutherford-on-the-shell": (lambda: scattering.rutherford_demo(1, 1.0, (1, 0, 0), (1, 0, 0), 0.5, 0.1),
                                (ArgumentError, "^Coulomb kernel pole: p0 lies on the shell$")),
    "measure-nan-probe": (lambda: spectral.spectral_measure(LEVELS, LEVEL_B, [np.nan, 0.0, 0.0]),
                          (MatrixFormatError, "^expected a finite, non-empty vector$")),
    "empty-state-literal": (lambda: iotools.parse_state(","), (MatrixFormatError, "^empty state literal$")),
}


@pytest.mark.parametrize("call, outcome", BRANCHES.values(), ids=BRANCHES.keys())
def test_each_guarded_branch_gives_its_outcome(call, outcome):
    error, message = outcome
    with pytest.raises(error, match=message):
        call()


ROW_STATE = symdiag.MultisetState.of(("a", (1,)), ("b", (-1,)))
COL_STATE = symdiag.MultisetState.of(("a", (-1,)), ("b", (1,)))
RULE = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 1))
#: counts that are not integers, each refused by name; before, a float order ended in an untyped TypeError,
#: 16.5 contour points took 17 nodes weighted by 1/16.5 (1.0303 for a residue of 1), 2.5 shifts reported
#: 627.5 points, a 1.5 seed ended in numpy's TypeError and remainder_bound(1, 1, 1, 2.5) returned 2.22
FRACTIONAL_COUNTS = {
    "contour-points": (lambda: matcore.contour_integrate(lambda z: 1 / (z - 1), matcore.ContourSpec(1, 0.5, 16.5)),
                       "contour num_points must be an integer, got 16.5"),
    "eigenvalue-contour-points": (
        lambda: spectral.eigenvalue_coefficients(LEVELS, LEVEL_B, 1, 2, contour=matcore.ContourSpec(1.0, 0.5, 16.5)),
        "contour num_points must be an integer, got 16.5"),
    "series-terms": (lambda: resolvent.series_terms(LEVELS + np.eye(3), LEVEL_B, 2.0), "k must be an integer, got 2.0"),
    "eigenvalue-order": (lambda: spectral.eigenvalue_coefficients(LEVELS, LEVEL_B, 1, 2.0),
                         "order must be an integer, got 2.0"),
    "projection-order": (lambda: spectral.projection_coefficients(LEVELS, LEVEL_B, spectral.default_contour(
        [0.0, 1.0, 3.0], 1), 2.0), "order must be an integer, got 2.0"),
    "scattering-series": (lambda: scattering.s_series(LEVELS, LEVEL_B, scattering.ScatteringQuery(0, 1, 0.1), 2.0),
                          "order must be an integer, got 2.0"),
    "exp-series": (lambda: evolution.exp_series_terms(LEVELS, LEVEL_B, 0.5, 2.0), "m_max must be an integer, got 2.0"),
    "dyson": (lambda: evolution.dyson_terms(LEVELS, LEVEL_B, 0.5, 2.0), "m_max must be an integer, got 2.0"),
    "eigenvector-order": (lambda: spectral.unit_eigenvector_expansion(
        spectral.schur_split(LEVELS, LEVEL_B, 0), spectral.eigenvalue_coefficients(LEVELS, LEVEL_B, 0, 3), 2.0),
        "order must be an integer, got 2.0"),
    "feynman-order": (lambda: resolvent.feynman_parameter_entry(LEVELS, LEVEL_B, 0, 1, 0.5, 2.0,
                                                                resolvent.SimplexQuadrature()),
                      "m_max must be an integer, got 2.0"),
    "index-sum-order": (lambda: scattering.s_term_index_sum(LEVELS, LEVEL_B, scattering.ScatteringQuery(0, 1, 0.1), 2.0),
                        "ell must be an integer, got 2.0"),
    "diagram-order": (lambda: symdiag.group_terms_by_diagram(
        symdiag.build_interaction(RULE, [ROW_STATE, COL_STATE], 1), ROW_STATE, COL_STATE, 2.0),
        "ell must be an integer, got 2.0"),
    "simplex-shifts": (lambda: resolvent.SimplexQuadrature(samples_or_depth=2.5),
                       "samples_or_depth must be an integer, got 2.5"),
    "simplex-seed": (lambda: resolvent.SimplexQuadrature(seed=1.5), "seed must be an integer, got 1.5"),
    "remainder-bound": (lambda: evolution.remainder_bound(1, 1, 1, 2.5), "k must be an integer, got 2.5"),
    "line-nodes": (lambda: tensor.LineQuadrature(cutoff=10.0, nodes=200.5), "nodes must be an integer, got 200.5"),
    "box-radius": (lambda: symdiag.box_grid(1, 1.5), "radius must be an integer, got 1.5"),
    "box-dimension": (lambda: symdiag.box_grid(1.0, 1), "dim must be an integer, got 1.0"),
    "closure-depth": (lambda: symdiag.build_interaction(RULE, [ROW_STATE], 1.5), "depth must be an integer, got 1.5"),
}


@pytest.mark.parametrize("call, message", FRACTIONAL_COUNTS.values(), ids=FRACTIONAL_COUNTS.keys())
def test_a_count_that_is_not_an_integer_is_refused_by_name(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()


#: a count below its own bound keeps that bound's message, fraction or not, and a negative seed keeps its own
KEPT_REFUSALS = {
    "few-contour-points": (lambda: matcore.ContourSpec(1, 0.5, 8.5), "contour needs at least 16 quadrature points"),
    "few-shifts": (lambda: resolvent.SimplexQuadrature(samples_or_depth=1.5), "lattice needs at least 2 shifts"),
    "few-nodes": (lambda: tensor.LineQuadrature(cutoff=10.0, nodes=199.5), "need at least 200 nodes"),
    "negative-seed": (lambda: resolvent.SimplexQuadrature(seed=-1), "seed must be nonnegative"),
    "negative-ell": (lambda: scattering.s_term_index_sum(LEVELS, LEVEL_B, scattering.ScatteringQuery(0, 1, 0.1), -1),
                     "ell must be at least 1"),
}


@pytest.mark.parametrize("call, message", KEPT_REFUSALS.values(), ids=KEPT_REFUSALS.keys())
def test_the_integer_rule_keeps_each_earlier_refusal(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()

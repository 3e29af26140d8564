"""Every module's argument checks raise a typed :class:`PertkitError` that
is still a ``ValueError``, so ``except ValueError`` callers keep working."""

import numpy as np
import pytest

from pertkit import evolution, matcore, reporting, resolvent, scattering, spectral, tensor
from pertkit.errors import ArgumentError, MatrixFormatError, NotHermitianError, PertkitError, ShapeError

NOT_DIAGONAL = np.array([[0.0, 1.0], [1.0, 2.0]])
#: diagonal to 1e-13 relative: accepted by the old 1e-12 test of ``lambda4_closed_form``
NEARLY_DIAGONAL = np.array([[0.0, 1e-13], [1e-13, 2.0]])
LEVELS = np.diag([0.0, 1.0, 3.0])
#: diagonal but not Hermitian: its real part alone is not the operator
COMPLEX_LEVELS = np.diag([1.0 + 0.5j, 2.0, 3.0])

BAD_CALLS = {
    "matcore": (lambda: matcore.simpson_weights(3, 0.1), ArgumentError),
    "matcore-index": (lambda: matcore.check_index(3, 3), ArgumentError),
    "matcore-diagonal": (lambda: matcore.diagonal_of(NOT_DIAGONAL), MatrixFormatError),
    "matcore-complex-diagonal": (lambda: matcore.diagonal_of(COMPLEX_LEVELS), NotHermitianError),
    "evolution-index": (
        lambda: evolution.adiabatic_eigvec_series(LEVELS, 0.01 * np.ones((3, 3)), "linear", 3, 10.0, 4, evolution.TimeGrid(8)),
        ArgumentError,
    ),
    "evolution-ramp": (lambda: evolution.ramped_schedule(LEVELS, LEVELS, "bogus"), ArgumentError),
    "evolution-series-ramp": (
        lambda: evolution.adiabatic_eigvec_series(LEVELS, 0.01 * LEVELS, "bogus", 0, 10.0, 4, evolution.TimeGrid(8)),
        ArgumentError,
    ),
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

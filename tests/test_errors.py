"""Every module's argument checks raise a typed :class:`PertkitError` that
is still a ``ValueError``, so ``except ValueError`` callers keep working."""

import numpy as np
import pytest

from pertkit import matcore, reporting, resolvent, scattering, spectral, tensor
from pertkit.errors import ArgumentError, MatrixFormatError, PertkitError

NOT_DIAGONAL = np.array([[0.0, 1.0], [1.0, 2.0]])

BAD_CALLS = {
    "matcore": (lambda: matcore.simpson_weights(3, 0.1), ArgumentError),
    "reporting": (lambda: reporting.Report("cmd", {}, 0, ["a", "b"]).add_row(1.0), ArgumentError),
    "resolvent": (lambda: resolvent.SimplexQuadrature(method="recursive-grid", samples_or_depth=1), ArgumentError),
    "resolvent-diagonal": (
        lambda: resolvent.feynman_parameter_entry(NOT_DIAGONAL, np.eye(2), 0, 1, 0.5, 2, resolvent.SimplexQuadrature()),
        MatrixFormatError,
    ),
    "spectral": (lambda: spectral.harmonic_oscillator_operators(4), ArgumentError),
    "spectral-diagonal": (lambda: spectral.lambda4_closed_form(NOT_DIAGONAL, np.eye(2), 0), MatrixFormatError),
    "tensor": (lambda: tensor.LineQuadrature(cutoff=5.0, nodes=400), ArgumentError),
    "scattering": (lambda: scattering.born_demo(3, abs, lambda x: 0.0, 0, 0, 0.1), ArgumentError),
    "scattering-diagonal": (
        lambda: scattering.s_term_index_sum(NOT_DIAGONAL, np.eye(2), scattering.ScatteringQuery(0, 1, 0.1), 2),
        MatrixFormatError,
    ),
}


@pytest.mark.parametrize("call, error", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_a_bad_call_raises_a_typed_value_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, PertkitError) and isinstance(info.value, ValueError)

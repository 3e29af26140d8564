"""Exception hierarchy shared by all pertkit modules.

Every error carries a stable ``exit_code`` so the CLI can map failures to
machine-readable process statuses.
"""


class PertkitError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ArgumentError(PertkitError, ValueError):
    """An argument outside its domain: a nonpositive rate, an index out of range."""

    exit_code = 7


class MatrixFormatError(PertkitError, ValueError):
    """Malformed matrix/model file or in-memory matrix of the wrong shape."""

    exit_code = 2


class ShapeError(PertkitError, ValueError):
    """Operands with incompatible or non-square shapes."""

    exit_code = 3


class NotHermitianError(PertkitError, ValueError):
    """An operand required to be Hermitian is not, beyond tolerance."""

    exit_code = 3


class DefinitenessError(PertkitError, ValueError):
    """A matrix required to be positive definite has an eigenvalue <= 0."""

    exit_code = 3


class SingularMatrixError(PertkitError, ValueError):
    """Matrix singular to working tolerance (or evaluated at a pole)."""

    exit_code = 4


class ConvergenceError(PertkitError, RuntimeError):
    """An iteration failed to converge or an error budget is >= 1."""

    exit_code = 5


class ContourEnclosureError(PertkitError, ValueError):
    """A contour does not enclose exactly the spectrum it is required to."""

    exit_code = 6


class GapCollapseError(PertkitError, RuntimeError):
    """Spectral gap fell below the tracking threshold along a schedule."""

    exit_code = 6


class StepSizeError(PertkitError, RuntimeError):
    """A step's local error estimate exceeded its limit; refine the grid."""

    exit_code = 5


class NotATreeError(PertkitError, ValueError):
    """Diagram is not a connected acyclic multigraph over its dots."""

    exit_code = 3


class EnumerationLimitError(PertkitError, RuntimeError):
    """An exhaustive enumeration or a time grid would exceed its safety guard."""

    exit_code = 5

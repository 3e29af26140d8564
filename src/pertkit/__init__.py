"""pertkit: finite-dimensional perturbation theory for dense complex matrices.

Resolvent (Neumann) series with exact remainders, contour-integral
eigenvalue and projector perturbation, Schur-complement eigenvector
machinery, exponential/Dyson time series, scattering entries at finite
regularization, time-ordered diagram bookkeeping over momentum-conserving
models, Kronecker-sum convolution identities, and adiabatic evolution --
each validated against exact linear-algebra oracles.
"""

__version__ = "0.1.0"

from . import evolution, iotools, matcore, resolvent, scattering, spectral, symdiag, tensor
from .errors import PertkitError

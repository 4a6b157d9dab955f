"""Truncated Wiener chaos expansion solver for scalar SDEs.

The expansion X_t = sum_a x_a(t) Psi^a turns a scalar SDE into a coupled
system of deterministic coefficient ODEs; truncating in chaos order p and
basis count k (optionally further by sparse per-coordinate caps) yields a
finite system whose first two moments are explicit in the coefficients.
This package enumerates the index sets, assembles and integrates the
coefficient system, evaluates moments and error curves against closed
forms, and cross-checks everything with Monte Carlo sampling and an Euler
scheme.

The names below solve and check one model; everything else is imported
from its module (``chaossde.multiindex``, ``chaossde.basis``, ...).
"""

__version__ = "0.1.0"

from . import errors
from .analysis import error_curve, moments, third_moment
from .basis import make_basis
from .integrator import ToleranceSpec
from .multiindex import FullTruncation, SparseFirstOrder, SparseSecondOrder
from .oracle import RngSpec, euler_maruyama, sample_expansion
from .propagator import SdeModel, solve

__all__ = [
    "__version__", "errors", "FullTruncation", "RngSpec", "SdeModel",
    "SparseFirstOrder", "SparseSecondOrder", "ToleranceSpec", "error_curve",
    "euler_maruyama", "make_basis", "moments", "sample_expansion", "solve",
    "third_moment",
]

"""Exception types raised by the library."""


class ChaosError(Exception):
    """Base class for all library errors."""


class InvalidSparseIndex(ChaosError):
    """Sparse index violates the required monotonicity or shape."""


class IndexSetTooLarge(ChaosError):
    """Truncation has more indices, or a higher order, than the supported caps."""


class OutOfDomain(ChaosError):
    """Time argument outside the basis horizon [0, T]."""


class OrderTooLarge(ChaosError):
    """Hermite order beyond the supported cap."""


class NotGbm(ChaosError):
    """Closed form requires a model of geometric Brownian motion shape."""


class NotBm(ChaosError):
    """Closed form requires a model of Brownian-motion-with-drift shape."""


class TimeNotOnGrid(ChaosError):
    """Requested time is not a point of the solution grid."""


class NotATrajectory(ChaosError):
    """Solution solved with ``observe`` holds observed rows, not coefficients."""


class NonPositiveValue(ChaosError):
    """Log-log fit requires strictly positive values."""


class IntegratorFailure(ChaosError):
    """Adaptive integration failed; ``time`` holds the offending time."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t={time!r})")
        self.time = time


class StepSizeUnderflow(IntegratorFailure):
    """Step size shrank below the representable resolution."""


class MaxStepsExceeded(IntegratorFailure):
    """Step budget exhausted before reaching the end of the interval."""


class NonFiniteValue(IntegratorFailure):
    """A moment, exact variance or error value overflowed to inf or NaN."""

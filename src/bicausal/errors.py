"""Exception types shared across the package."""


class BicausalError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BicausalError, ValueError):
    """A parameter object or configuration violates its invariants."""


class InsufficientDataError(BicausalError):
    """Not enough usable samples/rows to perform the requested operation."""


class InsufficientPointsError(BicausalError):
    """A neighbour query asked for more points than are available."""


class DistanceOverflowError(BicausalError):
    """Sums of squared distances between the points overflow the float range."""


class DegenerateSeriesError(BicausalError):
    """A series is constant (or otherwise has no usable variance)."""


class NumericalEscapeError(BicausalError):
    """A simulated orbit diverged beyond the escape threshold."""


class NonStationaryError(BicausalError):
    """Autoregressive coefficients outside the stationary region."""


class UndefinedStatisticError(BicausalError):
    """A summary statistic is undefined for the given inputs (e.g. 0/0)."""

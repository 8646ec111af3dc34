"""Exception hierarchy shared across the package."""


class StochTransportError(Exception):
    """Base class for all errors raised by this package."""


class GridError(StochTransportError, ValueError):
    """Invalid time grid (non-positive horizon, too few steps, off-grid time)."""


class DomainError(StochTransportError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ResolutionError(StochTransportError, ValueError):
    """Grid or schedule too coarse for the requested computation."""


class UnsupportedOrderError(StochTransportError, ValueError):
    """Hermite rank not supported by the exact simulator."""


class ConvergenceError(StochTransportError, RuntimeError):
    """An iterative solver failed to reach its tolerance; the message
    carries the last change it saw."""


class SampleSizeError(StochTransportError, ValueError):
    """Not enough Monte Carlo samples for the requested statistic."""


class NumericError(StochTransportError, RuntimeError):
    """A numerical result landed outside its validity envelope."""

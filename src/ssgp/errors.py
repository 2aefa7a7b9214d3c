"""Exception types shared across the package, and the integer rule."""

from numbers import Integral


class NotPositiveDefiniteError(Exception):
    """Cholesky factorization found a non-positive (or below-tolerance) pivot."""


class IllConditionedError(Exception):
    """Correlation matrix could not be factorized even at the maximum nugget."""


class OptimizerFailedError(Exception):
    """Every likelihood-optimization start failed."""


class SamplerError(Exception):
    """An MCMC update failed irrecoverably; carries the offending scan index."""

    def __init__(self, scan: int, message: str):
        # Both arguments in args, so the error survives pickling (a
        # process-pool worker sends it back that way).
        super().__init__(scan, message)
        self.scan = scan
        self.message = message

    def __str__(self):
        return f"scan {self.scan}: {self.message}"


class BenchmarkError(Exception):
    """Too many benchmark replicates failed; carries the partial report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def integer(name: str, value, minimum) -> int:
    """value as a Python int, or ValueError naming `name`.

    The one rule for an integer setting or seed: a bool (an int subclass),
    float, str or None is rejected, a numpy integer is accepted, and the
    value must be at least `minimum`.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)

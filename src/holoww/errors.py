"""Exception types shared across the package."""


class HolowwError(Exception):
    """Base class for all package-specific failures."""


class GridMismatch(HolowwError):
    """Two fields living on different grids were combined."""


class NegativePowerOnMean(HolowwError):
    """A negative fractional derivative was applied to a field with nonzero mean."""


class DegenerateJacobian(HolowwError):
    """The conformal map degenerated: min J dropped below the safety floor."""


class StabilityViolation(HolowwError):
    """Time step too large for the explicit stability region."""


class InconsistentTimes(HolowwError):
    """Snapshots handed to a time-difference routine are not equally spaced."""


class TimeTooSmall(HolowwError):
    """The space-time decomposition needs t >= 1."""


class OutOfDomain(HolowwError):
    """Wave-packet parameters leave the admissible velocity/time region."""


class WrapAround(HolowwError):
    """A localized object does not fit inside the torus with the required margin."""


class InsufficientSamples(HolowwError):
    """Not enough samples (or not enough time span) for a fit."""


class UsageError(HolowwError):
    """Bad command-line or configuration input."""

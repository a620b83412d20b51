"""Exception types shared across the package."""


class HorizonExceededError(ValueError):
    """A quantity was requested beyond the horizon a finite object knows about."""


class EmptySetError(ValueError):
    """An operation needs at least one element and got none."""


class DimensionError(ValueError):
    """Vector/operator/measure dimensions do not agree."""


class SizeCapError(ValueError):
    """A construction would exceed a hard size cap."""


class SingularOperatorError(ValueError):
    """Inverse requested for a singular (or numerically singular) operator."""


class NotPowerBoundedError(ValueError):
    """Operation requires a power-bounded operator and the estimate says otherwise."""


class NotAPowerFixedPointError(ValueError):
    """x fails the T^n x = alpha x precondition at the stated tolerance."""


class InsufficientHorizonError(ValueError):
    """Horizon too short for the requested classification to mean anything."""


class NumericalFailureError(RuntimeError):
    """A numerical routine produced residuals beyond its budget; the message
    names the residual and the budget."""


class ConfigError(ValueError):
    """Experiment configuration failed validation."""

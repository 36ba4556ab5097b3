"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, StabilityError
(and subclasses) -> 3, FitFailureError -> 4, any other SqzbandError
(GridError for malformed or non-finite data or a singular fit basis) -> 1.
"""


class SqzbandError(Exception):
    """Base class for all package errors."""


class ConfigError(SqzbandError):
    """Malformed or inconsistent configuration input."""


class ZeroPumpError(SqzbandError):
    """Both pump tones are zero: intracavity power ratio is undefined."""


class StabilityError(SqzbandError):
    """Requested operating point is outside the stable model domain."""


class AntiDampingError(StabilityError):
    """Total damping is not positive (net anti-damping)."""


class ParametricInstabilityError(StabilityError):
    """|s| >= 1: above the parametric instability threshold."""


class SelfConsistencyError(StabilityError):
    """Fixed-point iteration for the effective resonance did not converge."""


class InternalConsistencyError(SqzbandError):
    """A model identity that must hold numerically was violated."""


class GridError(SqzbandError):
    """Frequency grid does not satisfy an operation's requirements."""


class FitFailureError(SqzbandError):
    """Too many fits failed for a batch result to be meaningful."""

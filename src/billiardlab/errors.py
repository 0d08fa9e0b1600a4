"""Exception and warning types shared across the library."""


class BilliardLabError(Exception):
    """Base class for all library-specific errors."""


class RationalDetected(BilliardLabError):
    """A continued-fraction expansion hit an exact rational within precision."""


class DepthExceeded(BilliardLabError):
    """A convergent index beyond the validated depth was requested."""


class OrbitPoint(BilliardLabError):
    """A target point lies on the rotation orbit within the precision floor."""


class CapTooSmall(BilliardLabError):
    """The integer cap is too small for the requested truncation depth."""


class InsufficientScales(BilliardLabError):
    """A slope fit was requested with fewer than three scales."""


class NotGeneralizedParallelogram(BilliardLabError):
    """A polygon has a side parallel to neither admissible direction."""


class DegenerateDirection(BilliardLabError):
    """A ray direction is parallel to a polygon side within the guard."""


class DepthUnreachable(BilliardLabError):
    """No validated convergent satisfies the selection conditions."""


class EmptyLevel(BilliardLabError):
    """A hierarchy parent produced no full-length children."""


class ScheduleNotFound(BilliardLabError):
    """No Diophantine solutions were found within the scan range."""


class ConfigError(BilliardLabError):
    """An experiment configuration is malformed or out of bounds."""


class RationalAngle(UserWarning):
    """The ratio alpha/pi is rational within working precision."""


class RationalRotation(UserWarning):
    """A rotation number is rational within working precision."""

"""Exception types shared across the solver pipeline."""


class AratHomotopyError(Exception):
    """Base class for all solver errors."""


class InvalidGame(AratHomotopyError, ValueError):
    """The game breaks an invariant that ``game_model.validate`` checks."""


class SizeGuardExceeded(AratHomotopyError):
    """Problem is too large for exhaustive support enumeration."""


class SingularJacobian(AratHomotopyError):
    """A linear system inside the path tracer is numerically singular."""


class NoInteriorPointFound(AratHomotopyError):
    """The computed starting point is not strictly feasible."""


class NotConverged(AratHomotopyError):
    """Solution extraction was requested from a trace that did not converge."""


class MaxIterExceeded(AratHomotopyError):
    """Fixed-point iteration hit its iteration cap before reaching tolerance."""

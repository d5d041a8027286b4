"""Exception types shared across the solver modules."""


class MrbsdeError(Exception):
    """Base class for all library errors."""


class ConfigError(MrbsdeError):
    """A problem or run configuration violates a hard constraint."""


class ParseError(MrbsdeError):
    """A config document could not be parsed (unknown key, bad type, missing field)."""


class SimulationError(MrbsdeError):
    """Forward simulation produced non-finite states."""


class LengthMismatch(MrbsdeError):
    """Paired sample arrays or grid functions have different lengths."""


class QuadratureError(MrbsdeError):
    """Quadrature rule too coarse for the mollifier kernel."""


class RankDeficient(MrbsdeError):
    """Regression design is numerically singular even after regularization."""


class NonFinite(MrbsdeError):
    """Backward induction produced a non-finite value."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NotConverged(MrbsdeError):
    """Level schedule exhausted above tolerance; carries the convergence trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class ConstraintInfeasible(MrbsdeError):
    """Terminal mean lies below the obstacle's terminal value."""


class NoSelfConvergence(MrbsdeError):
    """Reference solver failed its refinement-doubling acceptance check."""


class NonPositiveError(MrbsdeError):
    """Rate fit received an error value that is not strictly positive."""

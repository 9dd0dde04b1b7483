"""Exception types shared across the package."""


class PontusError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(PontusError):
    """A field, rate, or state component is NaN or infinite."""


class NegativeEndpointRate(PontusError):
    """A static endpoint (S/A/F) was defined with a negative dissipation rate."""


class BallViolation(PontusError):
    """A Bloch vector left the unit ball beyond the admitted tolerance."""


class SingularGenerator(PontusError):
    """The drift matrix is not invertible; no steady state exists."""


class StepSizeUnderflow(PontusError):
    """The adaptive integrator failed to make progress."""


class NotConverged(PontusError):
    """The trace distance never settled below the cutoff within the time cap."""


class NoSolution(PontusError):
    """The tangency equation for the Markovian boundary has no positive root."""


class DivergentIntervalCount(PontusError):
    """The rate has infinitely many negative windows (vanishing final rate)."""


class ConfigError(PontusError):
    """A run configuration failed schema validation."""

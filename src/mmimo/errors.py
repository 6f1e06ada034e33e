"""Exception types shared across the simulator."""


class SimulationError(ValueError):
    """Base class for domain errors raised while simulating."""


class DomainError(SimulationError):
    """An argument is outside the physically meaningful range."""


class DimensionError(SimulationError):
    """Array shapes do not match the operation's contract."""


class NumericError(SimulationError):
    """Non-finite values where finite numbers are required."""


class RankError(SimulationError):
    """Matrix is numerically rank-deficient for the requested operation."""


class DegenerateChannelError(SimulationError):
    """A channel column is identically zero, so no beam can be formed."""


class GeometryError(SimulationError):
    """Scene geometry is invalid (coincident points, empty scatterer set)."""


class ParseError(SimulationError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(Exception):
    """Invalid experiment configuration (bad key, value, or pinned scenario)."""

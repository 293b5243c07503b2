"""Exception types shared across the package."""


class TtError(Exception):
    """Base class for all package errors."""


class GraphError(TtError):
    """Malformed graph or edge path."""


class MapError(TtError):
    """Malformed graph self-map."""


class NotExpandingError(TtError):
    """Operation requires an expanding map."""


class NotTrainTrackError(TtError):
    """Operation requires a train track map."""


class NotPrimitiveError(TtError):
    """Operation requires a primitive transition matrix."""


class ConvergenceError(TtError):
    """Iterative solver exceeded its iteration cap."""


class BudgetExceededError(TtError):
    """A search exhausted its budget; the result is inconclusive, not negative."""


class SubdivisionError(TtError):
    """Subdivision produced an inconsistent map."""


class IncompatibleGraphsError(TtError):
    """Cross-map analysis requires both maps to live on the same marked graph."""


class ParseError(TtError):
    """Map file or path literal could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

"""Exception types shared across the package."""


class TtError(Exception):
    """Base class for all package errors.  Its `kind` sets the command
    line's exit code: "input" 3, "property" 1, "inconclusive" 2."""

    kind = "input"


class GraphError(TtError):
    """Malformed graph or edge path."""


class MapError(TtError):
    """Malformed graph self-map."""


class NotExpandingError(TtError):
    """Operation requires an expanding map."""

    kind = "property"


class NotTrainTrackError(TtError):
    """Operation requires a train track map."""

    kind = "property"


class NotPrimitiveError(TtError):
    """Operation requires a primitive transition matrix."""

    kind = "property"


class ConvergenceError(TtError):
    """Iterative solver exceeded its iteration cap."""

    kind = "inconclusive"


class BudgetExceededError(TtError):
    """A search exhausted its budget; the result is inconclusive, not negative."""

    kind = "inconclusive"


class SubdivisionError(TtError):
    """Subdivision produced an inconsistent map."""

    kind = "property"


class IncompatibleGraphsError(TtError):
    """Cross-map analysis requires both maps to live on the same marked graph."""


class ParseError(TtError):
    """Map file or path literal could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

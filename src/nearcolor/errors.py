"""Exception types shared across the package, and the excerpt their messages echo."""


class NearcolorError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(NearcolorError, ValueError):
    """A structural parameter is outside its documented range."""


class InvalidColoringError(NearcolorError, ValueError):
    """A coloring does not structurally match the graph it is applied to."""


class InfeasibleError(NearcolorError):
    """No valid coloring exists for the requested parameters."""


class SizeLimitError(NearcolorError):
    """The instance exceeds a configured exact-search limit."""


class GraphFormatError(NearcolorError, ValueError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _excerpt(value: object) -> str:
    """``repr`` of a string or ``str`` of anything else; past 60 characters
    only its first and last 28 are kept, around an ellipsis, so an error
    message that echoes input stays one line long however long the input."""
    text = repr(value) if isinstance(value, str) else str(value)
    return text if len(text) <= 60 else f"{text[:28]}...{text[-28:]}"

"""Exception hierarchy shared across the package."""


class SofregError(Exception):
    """Base class for all library errors."""


class GridMismatchError(SofregError):
    """Curves or samples do not live on the same grid."""


class DegenerateSampleError(SofregError):
    """A sample carries no usable variation (identical curves, zero spread)."""


class ConfigError(SofregError):
    """Invalid user-supplied configuration."""


class NumericalError(SofregError):
    """A numerical procedure failed beyond its retry budget."""


class CsvFormatError(SofregError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line

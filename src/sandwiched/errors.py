"""Exception types shared across the package."""


class ClusterError(ValueError):
    """Invalid input: malformed skeleton, weights, or operation arguments."""


class ParseError(ClusterError):
    """DSL or graph-file syntax error, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InternalCheckError(RuntimeError):
    """A cross-check between two independent computations failed.

    This is a bug trap, never a user error: every quantity the analyzer
    reports is computed along two routes that must agree.
    """


class CapExceededError(RuntimeError):
    """An iteration safety cap was exceeded; carries the partial trace.

    `trace` holds the unloading steps taken, or, from the Cartier builder,
    the stages done before the overrun, the start first.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class OracleInstanceTooLarge(ValueError):
    """Brute-force oracle refused an instance above its search budget."""

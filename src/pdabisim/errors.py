"""Error types shared across the package."""


class InputError(ValueError):
    """Raised for malformed or undeclared input data.

    Parse errors carry an optional source line so the CLI can point at the
    offending line.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class BudgetError(RuntimeError):
    """Raised when an analysis exceeds one of its resource guardrails.

    ``partial`` optionally carries whatever was computed before the limit hit,
    so callers can degrade to a lower-bound answer instead of losing the work.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

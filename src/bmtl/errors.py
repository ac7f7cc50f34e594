"""Exception types shared across the toolkit.

Every error carries a stable ``code`` string so callers (and the CLI)
can dispatch without matching on message text.
"""

from __future__ import annotations


class BmtlError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"


class ParseError(BmtlError):
    """Malformed formula or trace text; carries a source position when known."""

    code = "SYNTAX_ERROR"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)


class MissingHorizonError(ParseError):
    code = "MISSING_HORIZON"


class FactOutsideHorizonError(ParseError):
    code = "FACT_OUTSIDE_HORIZON"


class OutputTooLargeError(BmtlError):
    code = "OUTPUT_TOO_LARGE"


class ConfigError(BmtlError, ValueError):
    """Campaign settings out of range (negative trial count, zero bound, ...)."""

    code = "CONFIG_ERROR"


class NegativeBoundError(BmtlError):
    code = "NEGATIVE_BOUND"


class InvertedBoundError(BmtlError):
    code = "INVERTED_BOUND"


class PointOutsideHorizonError(BmtlError):
    code = "POINT_OUTSIDE_HORIZON"


class RewriteError(BmtlError):
    """Base class for rewrite-rule precondition failures."""

    code = "REWRITE_ERROR"


class NotApplicableError(RewriteError):
    code = "NOT_APPLICABLE"


class DegenerateBoundError(RewriteError):
    code = "DEGENERATE_BOUND"


class MitlPreconditionError(RewriteError):
    code = "MITL_PRECONDITION"


class NonpositiveSlackError(RewriteError):
    code = "NONPOSITIVE_SLACK"


class OracleGridError(BmtlError, MemoryError):
    """The oracle's sample grid would be too large to build."""

    code = "ORACLE_GRID_TOO_FINE"


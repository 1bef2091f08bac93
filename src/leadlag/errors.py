"""Shared exception types, mapped to CLI exit codes."""


class LeadLagError(Exception):
    """Base class for all package errors."""


class UsageError(LeadLagError):
    """Bad command-line invocation or inconsistent flags (exit code 1)."""


class DataError(LeadLagError):
    """Invalid input data or configuration (exit code 2)."""


class NumericError(LeadLagError):
    """Numerical failure, e.g. an invalid spectral embedding (exit code 3)."""


def int_text(name: str, value: int) -> str:
    """``name=value`` for an error message, or ``name`` with the value's bit
    length when the value has more digits than Python converts to text."""
    try:
        return f"{name}={value}"
    except ValueError:
        return f"{name} of {value.bit_length()} bits"

"""Shared exception types, mapped to CLI exit codes, and the checks of
integer inputs that raise them."""

import numpy as np


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


def json_integer(value, what: str) -> int:
    """``value`` as an int if it is a JSON integer (not a boolean), else a
    DataError saying that ``what`` must be an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{what} must be an integer, got {value!r}")
    return int(value)

"""Shared exception types, and the JSON decoding that raises them."""

import json


class MinPlusError(Exception):
    """Base class for library errors."""


class CapExceeded(MinPlusError):
    """An enumeration exceeded its configured size cap.

    Carries enough context for the caller to retry with a larger cap or a
    cheaper algorithm.
    """

    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count


class ParseError(MinPlusError, ValueError):
    """Malformed textual input (value, matrix, or polynomial)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            location = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({location})"
        super().__init__(message)
        self.line = line
        self.column = column


def decode_json(text: str):
    """json.loads, with malformed or too deeply nested input as a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None

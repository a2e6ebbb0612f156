"""Shared exception types.

Precondition violations (mismatched chains, bad shapes, unknown symbols) use
plain ValueError.  The classes here cover the failure modes a caller is
expected to catch and act on: resource ceilings and document problems.
"""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An enumeration or a stored set outgrew its budget: refused or cut short.

    count is an int, or a text such as "5^7320" for a grid too large to write
    out in digits.
    """

    def __init__(self, count: int | str, limit: int, context: str = ""):
        self.count = count
        self.limit = limit
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(f"size {count} exceeds budget {limit}{where}")


class NonBooleanValueError(ValueError):
    """An automaton was used as an NFA but carries values other than 0 and 1."""


class DocumentError(ValueError):
    """A document failed to parse or validate."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)

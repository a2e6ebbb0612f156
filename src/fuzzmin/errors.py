"""Shared exception types, and the size arithmetic of budget refusals.

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


# Default ceiling on a grid searched point by point: the candidate grid of
# `decide_k` and the point grid of `solve_points`.
DEFAULT_CANDIDATE_BUDGET = 10_000_000

# Sizes of more than 4,300 decimal digits (Python's default limit on int-to-str
# conversion) are reported as powers and never built.
_SIZE_CAP = 10**4300


def _exceeds(base: int, exp: int, limit: int) -> bool:
    """base**exp > limit, without building a power past the limit's size:
    for base >= 2 the power is at least 2**exp, which passes the limit once
    exp reaches its bit length."""
    if base >= 2 and exp >= limit.bit_length():
        return True
    return base**exp > limit


def _size(base: int, exp: int, minus: int = 0) -> int | str:
    """base**exp - minus as an int, or as the text "<base>^<exp>[-<minus>]"
    once it has more than 4,300 decimal digits.  A power that long is never
    built: its bit length is bounded from below first."""
    if base < 2 or exp * (base.bit_length() - 1) < _SIZE_CAP.bit_length():
        value = base**exp - minus
        if value < _SIZE_CAP:
            return value
    return f"{base}^{exp}" + (f"-{minus}" if minus else "")


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

"""Shared exception types, the default budgets, and the one grid refusal.

Precondition violations (mismatched chains, bad shapes, unknown symbols) use
plain ValueError.  The classes here cover the failure modes a caller is
expected to catch and act on: resource ceilings and document problems.

Every budget default lives here, and so does `_check_grid`, which refuses a
grid searched point by point before any point is tried; its count is the
grid size, written as a power past 4,300 digits, or a one-point grid's values.
"""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An enumeration or a stored set outgrew its budget: refused or cut short.

    count is an int, or a text such as "5^7320" for a grid too large to write
    out in digits.  The message writes an int count of more than 4,300
    digits as "at least 10^4300".
    """

    def __init__(self, count: int | str, limit: int, context: str = ""):
        self.count = count
        self.limit = limit
        self.context = context
        where = f" ({context})" if context else ""
        shown = "at least 10^4300" if isinstance(count, int) and count >= _SIZE_CAP else count
        super().__init__(f"size {shown} exceeds budget {limit}{where}")


# Default ceilings: on the points, or a one-point grid's values, of a grid
# searched point by point (the candidate grids of `decide_k` and its oracle,
# the point grid of `solve_points`); on the vectors, cut subsets, forward
# vector pairs or boxes a decider stores at once; on the boxes `solve_intervals`
# returns times variables; and on the words and monomials of the oracle.
DEFAULT_CANDIDATE_BUDGET = 10_000_000
DEFAULT_VECTOR_BUDGET = 1_000_000
DEFAULT_CELL_BUDGET = 10_000_000
DEFAULT_EQUATION_BUDGET = 100_000

# Sizes of more than 4,300 decimal digits (Python's default limit on int-to-str
# conversion) are reported as powers and never built.
_SIZE_CAP = 10**4300


def _size(base: int, exp: int, less: int = 0) -> int | str:
    """base**exp - less as an int, or as the text "<base>^<exp>" (followed by
    "-<less>" when less is not 0) once base**exp has more than 4,300 decimal
    digits.  A power that long is never built: its bit length is bounded from
    below first.  An exponent too long to write out itself gives the text
    "at least 10^4300"."""
    if base < 2 or exp * (base.bit_length() - 1) < _SIZE_CAP.bit_length():
        value = base**exp
        if value < _SIZE_CAP:
            return value - less
    if exp >= _SIZE_CAP:
        return "at least 10^4300"
    return f"{base}^{exp}-{less}" if less else f"{base}^{exp}"


def _check_grid(
    base: int, exp: int, limit: int, context: str, point_context: str
) -> None:
    """Refuse, before any point is built, a grid of base**exp points of exp
    values each with more than limit points (context), or one point of more
    than limit values (point_context).  For base >= 2 the power is at least
    2**exp, which passes the limit once exp reaches its bit length."""
    if (base >= 2 and exp >= limit.bit_length()) or base**exp > limit:
        raise BudgetExceededError(_size(base, exp), limit, context)
    if base == 1 and exp > limit:
        raise BudgetExceededError(exp, limit, point_context)


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

"""Systems of max-min polynomial equations over a chain.

A monomial is the min of a duplicate-free set of variables, a polynomial is
the max of monomials, and an equation constrains a polynomial to equal one
chain value.  Coefficients are fixed at 1; the solvers rely on that shape.

Two solvers are provided.  `solve_intervals` solves the system as two
sides.  Each polynomial is monotone, so the points where every polynomial
is at or above its right-hand side form an up-set U, the points where
every one is at or below it a down-set D, and the solutions are D & U.  A
box [lo, hi] holds only solutions iff lo lies in U and hi in D, so the
maximal boxes are the [u, m] with u a minimal point of U, m a maximal point
of D and u <= m.  Each side is one cross-intersection (see `chain`) on one
packed layout for the whole system: every box is one int, and each side's
running set is a plain list of boxes, none inside another, in canonical
order.  Each side builds its own boxes: `_ge_box` gives a monomial's one
>= box, `_le_family` its <= family.  The pairs [u, m] are the result, and
only that set, padded, becomes a `SolutionSet`; the system is solvable iff
it is non-empty.  `polynomial_eq_solutions` is `solve_intervals` on one
equation.  Chain values enter only as right-hand sides and when the boxes
are printed.  `solve_points` exploits that a solvable system is already
solvable using only values that appear on some right-hand side, and
searches that finite grid directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .chain import (
    Chain,
    ChainValue,
    SolutionSet,
    _cross,
    _field,
    _layout,
    _sort,
    _unpack,
)
from .errors import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_CELL_BUDGET,
    DEFAULT_VECTOR_BUDGET,
    BudgetExceededError,
    _check_grid,
)


class Relation(Enum):
    # "=" is the only relation; Equation.relation stays as perfbench/corpus.py copies it
    EQ = "="


@dataclass(frozen=True)
class Monomial:
    """Min over a non-empty set of variables, kept sorted and duplicate-free."""

    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(sorted(set(self.vars)))
        if not vs:
            raise ValueError("a monomial needs at least one variable")
        if vs[0] < 0:
            raise ValueError("variable indices must be non-negative")
        object.__setattr__(self, "vars", vs)

    @property
    def max_index(self) -> int:
        return self.vars[-1]


@dataclass(frozen=True)
class Polynomial:
    """Max over monomials; duplicates collapse, first occurrence order kept."""

    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        seen: dict[Monomial, None] = {}
        for m in self.monomials:
            seen.setdefault(m)
        if not seen:
            raise ValueError("a polynomial needs at least one monomial")
        object.__setattr__(self, "monomials", tuple(seen))

    @property
    def max_index(self) -> int:
        return max(m.max_index for m in self.monomials)


@dataclass(frozen=True)
class Equation:
    lhs: Polynomial
    relation: Relation
    rhs: ChainValue


@dataclass(frozen=True)
class EquationSystem:
    chain: Chain
    n_vars: int
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "equations", tuple(self.equations))
        if self.n_vars < 1:
            raise ValueError("a system needs at least one variable")
        if not self.equations:
            raise ValueError("a system needs at least one equation")
        for eq in self.equations:
            if eq.rhs.chain != self.chain:
                raise ValueError("right-hand side from a different chain")
            if eq.lhs.max_index >= self.n_vars:
                raise ValueError(
                    f"variable index {eq.lhs.max_index} outside {self.n_vars} variables"
                )


@dataclass(frozen=True)
class PointAssignment:
    """One chain value per variable."""

    values: tuple[ChainValue, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("empty assignment")
        chain = values[0].chain
        for v in values:
            if v.chain != chain:
                raise ValueError("assignment mixes chains")

    def ranks(self) -> tuple[int, ...]:
        return tuple(v.rank for v in self.values)

    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.values)


def eval_polynomial(p: Polynomial, assignment: PointAssignment) -> ChainValue:
    if p.max_index >= len(assignment.values):
        raise ValueError(
            f"variable index {p.max_index} outside assignment of {len(assignment.values)}"
        )
    ranks = assignment.ranks()
    best = max(min(ranks[i] for i in m.vars) for m in p.monomials)
    return assignment.values[0].chain[best]


def satisfies(system: EquationSystem, assignment: PointAssignment) -> bool:
    if len(assignment.values) != system.n_vars:
        raise ValueError(
            f"assignment has {len(assignment.values)} values, system has {system.n_vars} variables"
        )
    return all(
        eval_polynomial(eq.lhs, assignment).rank == eq.rhs.rank
        for eq in system.equations
    )


def rhs_values(system: EquationSystem) -> tuple[ChainValue, ...]:
    """Distinct right-hand-side values, ascending."""
    ranks = sorted({eq.rhs.rank for eq in system.equations})
    return tuple(system.chain[r] for r in ranks)


def _ge_box(m: Monomial, shift: Mapping[int, int], base: int, rank: int, top: int) -> int:
    """The packed >= box of monomial m at rank: every variable of m in
    [rank, top], every other field as in base, the layout's data mask
    (every field whole); variable v is the field at shift[v].  The ranks
    below rank are cleared from the fields of m by one multiply of their
    bits with an int that has bit s set for each shift s, built from bytes,
    so the box costs time linear in its width where clearing one field at
    a time is quadratic."""
    cut = _field(0, top, top) ^ _field(rank, top, top)
    marks = bytearray(shift[m.vars[0]] // 8 + 1)  # the first shift is the largest
    for v in m.vars:
        marks[shift[v] >> 3] |= 1 << (shift[v] & 7)
    return base ^ cut * int.from_bytes(marks, "little")


def _le_family(
    m: Monomial, shift: Mapping[int, int], base: int, rank: int, top: int
) -> list[int]:
    """The packed <= family of monomial m at a rank below top, in canonical
    order: one box per variable of m, that variable capped to [0, rank],
    every other field as in base (see `_ge_box`).  Two of these boxes
    differ only in the fields of their two variables, each capped in one
    box and whole in the other, so none holds another.  Capping keeps a
    field's lo and lowers its hi, so two boxes first differ at the field of
    the lower variable, which lies further left, and the box of that
    variable sorts first.  m's variables are ascending, and so are the
    boxes, with no sort."""
    cap = _field(0, top, top) ^ _field(0, rank, top)
    return [base ^ cap << shift[v] for v in m.vars]


def polynomial_eq_solutions(
    p: Polynomial, rhs: ChainValue, n_vars: int, *, max_vectors: int | None = None
) -> SolutionSet:
    """Boxes covering the solutions of max(monomials) = rhs over n_vars
    variables: `solve_intervals` on that one equation.  The result has at
    most k * n_vars**k boxes for k monomials.  Raises BudgetExceededError
    as soon as either side or the result holds more than max_vectors
    boxes, or past the default cell ceiling.
    """
    system = EquationSystem(rhs.chain, n_vars, (Equation(p, Relation.EQ, rhs),))
    return solve_intervals(system, max_vectors=max_vectors)


def solve_intervals(
    system: EquationSystem,
    *,
    max_vectors: int | None = DEFAULT_VECTOR_BUDGET,
    _max_cells: int = DEFAULT_CELL_BUDGET,
) -> SolutionSet:
    """Interval cover of the whole system: the boxes [u, m] with u a minimal
    point of the up-set U (every polynomial at or above its right-hand
    side), m a maximal point of the down-set D (every polynomial at or
    below it) and u <= m.  The boxes hold only solutions, cover every
    solution, and none lies inside another; the system is solvable iff the
    set is non-empty.

    The up side holds each u as the box [u, top].  An equation with a
    right-hand side r above 0 is at or above r exactly where some monomial
    has all its variables at or above r: one >= box per monomial
    (`_ge_box`), crossed into the running set (`_cross`) in equation
    order, so the running set keeps the least points.  The down side holds
    each m as the box [0, m].  Each monomial M of an equation with r below
    the top gives the clause "some variable of M is at or below r", whose
    <= family (`_le_family`) caps one variable of M to [0, r] per box.  Per
    set of variables only the least r is kept, and a clause is dropped when
    another one on a subset of its variables, with an r no larger, implies
    it.  The rest are crossed into the running set smallest first, ties in
    order of first appearance (Berge's transversal multiplication); the
    first family is the running set as built, its boxes capping distinct
    variables.  After each clause every m with no u <= m is dropped, since
    later clauses only lower it, and an empty set ends the search with no
    later family built.  Last, every u <= m gives the box u & m.  A u is
    minimal and an m maximal, so no pair lies inside another, and the pairs
    are kept with no store and sorted once.

    Raises BudgetExceededError as soon as a side's running set, or the
    pairs, hold more than max_vectors boxes, and before an equation's >=
    boxes or a clause's family are built when those boxes would hold more
    than _max_cells (lo, hi) pairs (boxes times the variables used).  The
    whole system is solved on one packed layout, over only the variables
    some monomial mentions, in ascending order: each variable's field shift
    comes straight from its place among them.  Every box ranges over the
    whole chain on the unmentioned variables, so those are added once per
    result box, all sharing one (0, top) pair; the boxes and any
    max_vectors refusal are those of the sides solved at full width.  The
    same pair at the same places keeps the boxes maximal and in order, so
    the padded set is not normalized again.  Before padding, it refuses
    when the padded boxes would hold more than _max_cells (boxes times
    n_vars) pairs; the command line passes its own ceiling there.
    """
    used = sorted({i for eq in system.equations for m in eq.lhs.monomials for i in m.vars})
    top, dim = len(system.chain) - 1, len(used)
    shift = {v: (dim - 1 - i) * (top + 2) for i, v in enumerate(used)}
    _, data, guard = _layout(top, dim)
    ups = [data]
    for eq in system.equations:
        if eq.rhs.rank:  # the monomials are distinct, and so are their >= boxes
            cells = len(eq.lhs.monomials) * dim
            if cells > _max_cells:
                raise BudgetExceededError(cells, _max_cells, "interval solution cells")
            ges = [_ge_box(m, shift, data, eq.rhs.rank, top) for m in eq.lhs.monomials]
            ups = _cross(ups, ges, top, dim, max_vectors)
    least: dict[Monomial, int] = {}
    for eq in system.equations:
        for m in eq.lhs.monomials:
            if eq.rhs.rank < least.get(m, top):
                least[m] = eq.rhs.rank
    clauses: list[tuple[frozenset[int], int, Monomial]] = []
    # a clause implied by a dropped one is implied by the one that dropped it
    for m, rank in sorted(least.items(), key=lambda clause: len(clause[0].vars)):
        vs = frozenset(m.vars)
        if not any(r <= rank and ws <= vs for ws, r, _ in clauses):
            clauses.append((vs, rank, m))
    downs = [data]
    for i, (_, rank, m) in enumerate(clauses):
        cells = len(m.vars) * dim
        if cells > _max_cells:
            raise BudgetExceededError(cells, _max_cells, "interval solution cells")
        family = _le_family(m, shift, data, rank, top)
        downs = _cross(downs, family, top, dim, max_vectors) if i else family
        downs = [d for d in downs if any(((u & d) + data) & guard == guard for u in ups)]
        if not downs:
            break
    pairs = []
    for d in downs:
        for u in ups:
            box = u & d
            if (box + data) & guard == guard:
                pairs.append(box)
                if max_vectors is not None and len(pairs) > max_vectors:
                    raise BudgetExceededError(len(pairs), max_vectors, "interval solution set")
    cells = len(pairs) * system.n_vars
    if cells > _max_cells:
        raise BudgetExceededError(cells, _max_cells, "interval solution cells")
    full = (0, top)
    boxes = []
    for box in _sort(pairs, guard):
        padded = [full] * system.n_vars
        for v, pair in zip(used, _unpack(box, top, dim)):
            padded[v] = pair
        boxes.append(tuple(padded))
    return SolutionSet(system.chain, system.n_vars, tuple(boxes))


def solve_points(
    system: EquationSystem, *, max_candidates: int = DEFAULT_CANDIDATE_BUDGET
) -> PointAssignment | None:
    """First satisfying assignment over the right-hand-side values, else None.

    That grid is enough: a system solvable anywhere is solvable there.
    Enumeration is lexicographic by rank with the first variable most
    significant, so the returned witness is deterministic.  Refuses up front
    (budget error carrying the count, or the text "<base>^<n_vars>" past
    4,300 digits) when the grid has more than max_candidates points, and
    when it has one point of more than max_candidates values.
    """
    ranks = [v.rank for v in rhs_values(system)]
    _check_grid(
        len(ranks), system.n_vars, max_candidates, "point-search grid", "point-search weights"
    )
    chain = system.chain
    polys = [
        (tuple(m.vars for m in eq.lhs.monomials), eq.rhs.rank)
        for eq in system.equations
    ]
    for combo in itertools.product(ranks, repeat=system.n_vars):
        for monomials, target in polys:
            best = -1
            for vs in monomials:
                worst = min(combo[i] for i in vs)
                if worst > best:
                    best = worst
            if best != target:
                break
        else:
            return PointAssignment(tuple(chain[r] for r in combo))
    return None

"""Systems of max-min polynomial equations over a chain.

A monomial is the min of a duplicate-free set of variables, a polynomial is
the max of monomials, and an equation constrains a polynomial to equal one
chain value.  Coefficients are fixed at 1; the solvers rely on that shape.

Two solvers are provided.  `solve_intervals` builds, per equation, the finite
family of rank boxes that covers the solutions, then intersects the families
across equations, cheapest first: in the order of a bound on their size,
read off the monomial sizes before any family is built.  It solves the
whole system on one packed layout (see `chain`): every box is one int, and
every family and running set is a plain list of boxes, none inside another,
in canonical order.  A monomial's pin family comes out in that order as it
is built, so it is never sorted, and its cells are charged against the cell
ceiling before it is built.  An equation's family is built by the same
cross-intersection as the running set: its monomials' <= families crossed
one after another, then met with one >= box per monomial.  Two boxes that
share no point build no intersection, so the system is solvable iff the
final set is non-empty; only that set, padded, becomes a `SolutionSet`.
`polynomial_eq_solutions` is `solve_intervals` on one equation.  Chain
values enter only as right-hand sides and when the boxes are printed.
`solve_points` exploits that a solvable system is already solvable using
only values that appear on some right-hand side, and searches that finite
grid directly.
"""

from __future__ import annotations

import functools
import itertools
import math
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


@functools.lru_cache(maxsize=256)
def _cuts(rank: int, top: int) -> tuple[int, int]:
    """The (cut, pin) field bits of a >= box and of a <= family at rank
    (see `_pin_family`): the >= box holds every variable of its monomial
    in [rank, top], and each box of the <= family caps one to [0, rank]."""
    whole = _field(0, top, top)
    return whole ^ _field(rank, top, top), whole ^ _field(0, rank, top)


def _pin_family(
    m: Monomial, shift: Mapping[int, int], base: int, cut: int, pin: int
) -> list[int]:
    """The packed boxes of one monomial's family, one per variable of m, in
    canonical order: its <= family, or with pin 0 its one >= box (see
    `_cuts`).  base is the layout's data mask, every field whole; variable
    v is the field at shift[v].  Every variable of m loses the bits cut
    from its field, and in its own box also the bits pin.  The cuts are
    cleared by one multiply of cut with an int that has bit s set for each
    shift s, built from bytes, so the base costs time linear in its width
    where clearing one field at a time is quadratic.

    Two of these boxes differ only in the two fields where one has pin
    cleared and the other not, so none holds another unless pin is 0, and
    then all are one box.  Otherwise clearing pin keeps a field's lo and
    lowers its hi ([0, top] to [0, rank]), so two boxes first differ at the
    field of the lower variable, which lies further left, and the box of
    that variable sorts first.  m's variables are ascending, and so are the
    boxes, with no sort."""
    shifts = [shift[v] for v in m.vars]
    if cut:
        marks = bytearray(shifts[0] // 8 + 1)  # the first shift is the largest
        for s in shifts:
            marks[s >> 3] |= 1 << (s & 7)
        base ^= cut * int.from_bytes(marks, "little")
    if not pin:
        return [base]
    return [base ^ pin << s for s in shifts]


def _charge_cells(m: Monomial, pin: int, dim: int, max_cells: int) -> None:
    """Refuse, before it is built, a pin family of m whose boxes of
    dimension dim would hold more than max_cells (lo, hi) pairs: one box
    when pin is 0 (see `_pin_family`), one per variable of m otherwise."""
    cells = (len(m.vars) if pin else 1) * dim
    if cells > max_cells:
        raise BudgetExceededError(cells, max_cells, "interval solution cells")


def _size_bound(monomials: tuple[Monomial, ...]) -> int:
    """A bound on the boxes of these monomials' family (`_family`): k * the
    product of their sizes for k monomials, the k >= boxes each met with
    at most that product of transversals."""
    return len(monomials) * math.prod([len(m.vars) for m in monomials])


def _family(
    monomials: tuple[Monomial, ...],
    shift: Mapping[int, int],
    rank: int,
    top: int,
    dim: int,
    max_vectors: int | None,
    max_cells: int,
) -> list[int]:
    """The packed boxes of dimension dim that cover the solutions of
    max(monomials) = the value of rank rank, in canonical order; variable v
    is the field at shift[v].

    The max equals the value exactly when every monomial is at or below it
    and some monomial is at or above it.  So the monomials' <= families are
    crossed one after another (`_cross`), in monomial order: the result is
    the minimal transversals, one variable of each monomial capped to [0,
    rank].  The >= boxes, one per monomial, each holding the monomial's
    variables in [rank, top], are crossed with that set.  No meet is
    empty: a <= field [0, rank] meets a >= field [rank, top] at [rank,
    rank].  The family has at most `_size_bound` boxes.  Raises
    BudgetExceededError as soon as a set it crosses holds more than
    max_vectors boxes, and before any <= family is built whose boxes would
    hold more than max_cells pairs; a >= box holds no more pairs than its
    monomial's <= family.
    """
    data = _layout(top, dim)[1]
    ge, le = _cuts(rank, top)
    boxes = None
    for m in monomials:
        _charge_cells(m, le, dim, max_cells)
        family = _pin_family(m, shift, data, 0, le)
        boxes = family if boxes is None else _cross(boxes, family, top, dim, max_vectors)
    # at rank 0 every >= box is the whole box; a repeated box's meets are all held already
    ges = list(dict.fromkeys(_pin_family(m, shift, data, ge, 0)[0] for m in monomials))
    return _cross(ges, boxes, top, dim, max_vectors)


def polynomial_eq_solutions(
    p: Polynomial, rhs: ChainValue, n_vars: int, *, max_vectors: int | None = None
) -> SolutionSet:
    """Boxes covering the solutions of max(monomials) = rhs over n_vars
    variables: `solve_intervals` on that one equation.  The result has at
    most k * n_vars**k boxes for k monomials.  Raises BudgetExceededError
    as soon as the family or its <= product holds more than max_vectors
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
    """Interval cover of the whole system: the cross-intersection of the
    per-equation families, cheapest first.  The boxes hold only solutions,
    cover every solution, and none lies inside another; the system is
    solvable iff the set is non-empty.  The maximal meets are the maximal
    boxes of the intersection in any order, so the order changes only the
    work done and where a capped run refuses.

    The families are intersected in the order of their size bounds
    (`_size_bound`), ties in equation order, each built only when the
    running set reaches it: small families keep the running set small, and
    an empty one is found sooner.  Raises BudgetExceededError as soon as any
    set it crosses, an equation's <= product, its family or the running
    set, holds more than max_vectors boxes; the running set can grow like
    (k * n**k)**m even though skipping disjoint pairs and dropping
    contained boxes usually keeps it tiny.  Once the running set is empty
    no later family is built, so none is refused.

    The whole system is solved on one packed layout, over only the variables
    some monomial mentions, in ascending order: each variable's field shift
    comes straight from its place among them.  Every family (`_family`) and
    the running set are built by the one cross-intersection `_cross`, as
    plain lists of packed boxes in canonical order, the pin families built
    in that order with no sort; only the padded result is a `SolutionSet`.
    Every box ranges over the whole chain on the unmentioned variables, so
    those are added once per result box, all sharing one (0, top) pair; the
    boxes and any refusal are those of the families built at full width.
    The same pair at the same places keeps the boxes maximal and in order,
    so the padded set is not normalized again.  Before padding, it refuses
    when the padded boxes would hold more than _max_cells (boxes times
    n_vars) pairs, and each pin family is charged against the same ceiling
    before it is built (boxes times the variables used); the command line
    passes its own ceiling there.
    """
    lhss = [eq.lhs.monomials for eq in system.equations]
    used = sorted({i for lhs in lhss for m in lhs for i in m.vars})
    top, dim = len(system.chain) - 1, len(used)
    shift = {v: (dim - 1 - i) * (top + 2) for i, v in enumerate(used)}
    families = (
        _family(eq.lhs.monomials, shift, eq.rhs.rank, top, dim, max_vectors, _max_cells)
        for eq in sorted(system.equations, key=lambda eq: _size_bound(eq.lhs.monomials))
    )
    # no family is empty (all variables at the rhs solve it), so the running
    # set first empties at a cross-intersection, and no later family is built
    result = next(families)
    for family in families:
        result = _cross(result, family, top, dim, max_vectors)
        if not result:
            break
    cells = len(result) * system.n_vars
    if cells > _max_cells:
        raise BudgetExceededError(cells, _max_cells, "interval solution cells")
    full = (0, top)
    boxes = []
    for box in result:
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

"""Shared fixtures-by-hand: compact builders and independent reference code."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import operator
import random
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import fuzzmin as fz
from fuzzmin import equations
from fuzzmin.automaton import EquivalenceResult, Word, _cut_matrix, _levels
from fuzzmin.chain import (
    Box,
    ChainValue,
    SolutionSet,
    _cross,
    _field,
    _layout,
    _pack,
    _unpack,
)
from fuzzmin.errors import DEFAULT_CELL_BUDGET, DEFAULT_VECTOR_BUDGET
from fuzzmin.generate import alphabet_of
from fuzzmin.oracles import (
    all_words_up_to,
    enumerate_boolean_automata,
    joint_vector_equivalent,
    min_nfa_states_brute,
)


def automaton(
    chain: fz.Chain,
    alphabet: Sequence[str],
    pi: Sequence[str],
    eta: Sequence[str],
    delta: Sequence[Sequence[Sequence[str]]],
) -> fz.FuzzyAutomaton:
    """Build an automaton from label grids; delta is one row grid per symbol."""
    return fz.FuzzyAutomaton(
        chain,
        tuple(alphabet),
        matrix(chain, [list(pi)]),
        matrix(chain, [[e] for e in eta]),
        tuple(matrix(chain, rows) for rows in delta),
    )


def matrix(chain: fz.Chain, grid: Sequence[Sequence[str]]) -> fz.FuzzyMatrix:
    """A matrix from a grid of value labels, one list per row."""
    ranks = tuple(chain.rank_of(label) for row in grid for label in row)
    return fz.FuzzyMatrix(chain, len(grid), len(grid[0]), ranks)


# Each alpha-cut has a 2-state NFA, so no cut has a fooling set of 3 pairs,
# yet no 2-state automaton is equivalent: the minimum is 3.
BEYOND_CUTS = automaton(
    fz.Chain(("0", "0.5", "1")),
    "ab",
    ["0", "1", "0"],
    ["0", "0.5", "1"],
    [
        [["0", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]],
        [["0", "0.5", "0"], ["0.5", "0", "0"], ["0", "0", "1"]],
    ],
)


def in_box(box: Sequence[tuple[int, int]], point: Sequence[ChainValue]) -> bool:
    """True when every value of point has a rank within its (lo, hi) pair."""
    if len(point) != len(box):
        raise ValueError(f"point dimension {len(point)} != box dimension {len(box)}")
    return all(lo <= v.rank <= hi for (lo, hi), v in zip(box, point))


def cut_mask(ranks: Sequence[int], alpha: int) -> int:
    """The positions whose rank is at least alpha, as a bit mask: one level
    of `automaton._cut_table`, read entry by entry."""
    return sum(1 << i for i, r in enumerate(ranks) if r >= alpha)


def scaled_chain(labels: Sequence[str]) -> tuple[int, tuple[int, ...]]:
    """Referee for `Chain`'s checks, on integers: each label times 10**d,
    for d the most fractional digits of any label, checked in `Chain`'s
    order with its messages.  Returns 10**d and the scaled labels."""
    labels = tuple(labels)
    for label in labels:
        if not (isinstance(label, str) and re.fullmatch(r"[0-9]+(\.[0-9]+)?", label)):
            raise ValueError(f"chain values must be decimal strings, got {label!r}")
    if len(labels) < 2:
        raise ValueError("a chain needs at least the two endpoints 0 and 1")
    parts = [label.partition(".") for label in labels]
    digits = max(len(frac) for _, _, frac in parts)
    scale = 10**digits
    scaled = tuple(
        int(whole) * scale + (int(frac) * 10 ** (digits - len(frac)) if frac else 0)
        for whole, _, frac in parts
    )
    if any(not left < right for left, right in zip(scaled, scaled[1:])):
        raise ValueError(f"chain labels must be strictly ascending, got {labels!r}")
    if scaled[0] != 0:
        raise ValueError("a chain must start at value 0")
    if scaled[-1] != scale:
        raise ValueError("a chain must end at value 1")
    return scale, scaled


def scaled_rank_of(labels: Sequence[str], value: str | Fraction) -> int:
    """Referee for `Chain.rank_of`: the value as a `Fraction`, times the
    chain's scale, bisected among the scaled labels."""
    scale, scaled = scaled_chain(labels)
    try:
        frac = value if isinstance(value, Fraction) else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {value!r}") from exc
    rank = bisect_left(scaled, frac * scale)
    if rank == len(scaled) or scaled[rank] != frac * scale:
        raise ValueError(f"value {value!r} is not a member of the chain")
    return rank


def _inside(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]) -> bool:
    return all(blo <= alo and ahi <= bhi for (alo, ahi), (blo, bhi) in zip(a, b))


def solution_set(chain: fz.Chain, dim: int, boxes: Iterable[Box]) -> SolutionSet:
    """The `SolutionSet` of the maximal boxes among boxes, in canonical
    order: boxes inside another one are dropped, repeats kept once, and the
    rest sorted by their rank bounds, so sets built from the same boxes in
    any order or multiplicity compare equal.  Bounds that cross, or leave
    the chain, are rejected, and so is a box of another dimension."""
    top = len(chain) - 1
    packed = []
    for box in boxes:
        if len(box) != dim:
            raise ValueError(f"box dimension {len(box)} != set dimension {dim}")
        if not all(0 <= lo <= hi <= top for lo, hi in box):
            raise ValueError(f"bad box bounds {box}")
        packed.append(_pack(box, top))
    # each box is its meet with the whole box, stored as the solver stores it
    kept = _cross(packed, [_layout(top, dim)[1]], top, dim, None)
    return SolutionSet(chain, dim, tuple(_unpack(box, top, dim) for box in kept))


def _full_width(monomials: Iterable[fz.Monomial], n_vars: int, top: int) -> dict[int, int]:
    """The field shift of each variable of the monomials in a box over all
    n_vars variables, as `solve_intervals` would lay them out had every
    variable been used."""
    shift = {}
    for m in monomials:
        if m.max_index >= n_vars:
            raise ValueError(f"variable index {m.max_index} outside {n_vars} variables")
        for v in m.vars:
            shift[v] = (n_vars - 1 - v) * (top + 2)
    return shift


def _full_width_set(chain: fz.Chain, n_vars: int, packed: list[int]) -> SolutionSet:
    top = len(chain) - 1
    return SolutionSet(chain, n_vars, tuple(_unpack(box, top, n_vars) for box in packed))


def monomial_eq_solutions(m: fz.Monomial, rhs: ChainValue, n_vars: int) -> SolutionSet:
    """Boxes covering the solutions of min(vars) = rhs: the solver's own
    boxes for that one-monomial equation (`polynomial_eq_solutions`).

    One box per variable of the monomial: that variable is pinned to
    [rhs, rhs], the other monomial variables range over [rhs, 1], and
    variables absent from the monomial are unconstrained.  The family
    collapses to one box when rhs is the top value.
    """
    return equations.polynomial_eq_solutions(fz.Polynomial((m,)), rhs, n_vars)


def monomial_le_solutions(m: fz.Monomial, rhs: ChainValue, n_vars: int) -> SolutionSet:
    """Boxes covering the solutions of min(vars) <= rhs, from the solver's
    own `_le_family` at full width: one box per variable of the monomial,
    that variable capped to [0, rhs], everything else unconstrained.  At the
    top value every point is a solution, and the solver builds no family:
    the one box is the whole box."""
    top = len(rhs.chain) - 1
    shift = _full_width((m,), n_vars, top)
    data = _layout(top, n_vars)[1]
    family = equations._le_family(m, shift, data, rhs.rank, top) if rhs.rank < top else [data]
    return _full_width_set(rhs.chain, n_vars, family)


def full_width_family(
    p: fz.Polynomial, rhs: ChainValue, n_vars: int, max_vectors: int | None = None
) -> SolutionSet:
    """Referee for `polynomial_eq_solutions`: `TupleBoxSolver` on that one
    equation, over all n_vars variables, instead of packed over the
    variables used and padded."""
    system = fz.EquationSystem(rhs.chain, n_vars, (fz.Equation(p, fz.Relation.EQ, rhs),))
    return SolutionSet(rhs.chain, n_vars, TupleBoxSolver(max_vectors).solve(system))


def _pin_family(
    m: fz.Monomial, shift: dict[int, int], base: int, cut: int, pin: int
) -> list[int]:
    """The case split's packed family of monomial m, one box per variable
    of m, or one box when pin is 0: every variable of m loses the field
    bits cut, and in its own box also the bits pin.  base is the layout's
    data mask; variable v is the field at shift[v].  Cleared one field at a
    time, unlike the solver's `_ge_box`."""
    for v in m.vars:
        base ^= cut << shift[v]
    if not pin:
        return [base]
    return [base ^ pin << shift[v] for v in m.vars]


def case_split_family(
    monomials: tuple[fz.Monomial, ...], shift: dict[int, int], rank: int, top: int, dim: int
) -> list[int]:
    """The packed boxes of dimension dim that cover the solutions of
    max(monomials) = the value of rank rank, by the case split, at default
    budgets: the max equals it exactly when some monomial equals it and
    every other stays at or below it, so the family is the union over that
    case split.  Each case is the product of its monomial's = family (every
    variable in [rank, top], one pinned to [rank, rank]) with every other
    monomial's <= family, and each tuple of boxes meets in one box, stored
    into one antichain.  Each <= family is refused before it is built when
    its boxes would hold more than the default cell ceiling."""
    data = _layout(top, dim)[1]
    whole, upper = _field(0, top, top), _field(rank, top, top)
    eq_cut, eq_pin = whole ^ upper, upper ^ _field(rank, rank, top)
    le_pin = whole ^ _field(0, rank, top)
    eqs, les = [], []
    for m in monomials:
        cells = (len(m.vars) if le_pin else 1) * dim
        if cells > DEFAULT_CELL_BUDGET:
            raise fz.BudgetExceededError(cells, DEFAULT_CELL_BUDGET, "interval solution cells")
        eqs.append(_pin_family(m, shift, data, eq_cut, eq_pin))
        les.append(_pin_family(m, shift, data, 0, le_pin))
    meets = (
        functools.reduce(operator.and_, boxes)
        for i, eq_family in enumerate(eqs)
        for boxes in itertools.product(eq_family, *les[:i], *les[i + 1 :])
    )
    # a meet with the whole box is itself, stored as the solver stores it
    return _cross(meets, [data], top, dim, DEFAULT_VECTOR_BUDGET)


def per_equation_boxes(system: fz.EquationSystem) -> tuple[Box, ...]:
    """Referee for `solve_intervals` at default budgets, by the algorithm
    it replaced: each equation's `case_split_family`, over all n_vars
    variables, crossed into the running set in equation order, stopping
    at an empty set."""
    top, n = len(system.chain) - 1, system.n_vars
    result = None
    for eq in system.equations:
        shift = _full_width(eq.lhs.monomials, n, top)
        family = case_split_family(eq.lhs.monomials, shift, eq.rhs.rank, top, n)
        result = family if result is None else _cross(
            result, family, top, n, DEFAULT_VECTOR_BUDGET
        )
        if not result:
            break
    return tuple(_unpack(box, top, n) for box in result)


def _meet(a: Box, b: Box) -> Box | None:
    """The meet of two tuple boxes, or None when it holds no point."""
    meet = tuple((max(alo, blo), min(ahi, bhi)) for (alo, ahi), (blo, bhi) in zip(a, b))
    return meet if all(lo <= hi for lo, hi in meet) else None


class TupleBoxSolver:
    """Reference interval solver on boxes held as tuples of (lo, hi) rank
    pairs, at the system's full width, in the order `solve_intervals`
    works, with the same meets stored in the same order into the same
    capped antichains.  The up side: each equation with a right-hand side
    r above 0, in equation order, crosses its >= boxes (its monomials'
    variables in [r, top]) into a running set that starts as the whole
    box.  The down side: each monomial's least r below the top among the
    equations it appears in is a clause; a clause is dropped when another
    one on a subset of its variables has an r no larger; the rest, smallest
    monomial first, ties in order of first appearance, cross their <=
    families into a running set, the first family taken as built, each
    followed by dropping every box that meets no up box, and an empty set
    ends it.  Last, every down box met with every up box, the meets that
    hold a point stored into one capped set.  peak is the most boxes any
    capped set held, so every cap below it refuses and every cap from it
    up answers.  clauses_all holds the (variables, r) clauses in crossing
    order, and clauses those whose families were built."""

    def __init__(self, max_vectors: int | None = None) -> None:
        self.max_vectors = max_vectors
        self.peak = 0
        self.clauses: list = []
        self.clauses_all: list = []

    def _store(self, kept: list, box: tuple, capped: bool = True) -> None:
        if any(_inside(box, k) for k in kept):
            return
        kept[:] = [k for k in kept if not _inside(k, box)]
        kept.append(box)
        if capped:
            self.peak = max(self.peak, len(kept))
            if self.max_vectors is not None and len(kept) > self.max_vectors:
                raise fz.BudgetExceededError(
                    len(kept), self.max_vectors, "interval solution set"
                )

    def _cross(self, xs: list, ys: list) -> list:
        """The meet of every pair of boxes, ys varying fastest, stored into
        one capped set, skipping the empty ones; sorted."""
        kept: list = []
        for x, y in itertools.product(xs, ys):
            meet = _meet(x, y)
            if meet is not None:
                self._store(kept, meet)
        return sorted(kept)

    def _pins(self, vars_: Sequence[int], n: int, top: int, pinned, rest) -> list:
        kept: list = []
        for pin in vars_:
            box = [(0, top)] * n
            for i in vars_:
                box[i] = rest
            box[pin] = pinned
            self._store(kept, tuple(box), capped=False)
        return sorted(kept)

    def solve(self, system: fz.EquationSystem) -> tuple:
        """The boxes of the system, sorted, or BudgetExceededError."""
        n, top = system.n_vars, len(system.chain) - 1
        whole = ((0, top),) * n
        ups = [whole]
        for eq in system.equations:
            r = eq.rhs.rank
            if r:
                # each >= box is one box: every pin gives the same one
                ges = [self._pins(m.vars, n, top, (r, top), (r, top))[0] for m in eq.lhs.monomials]
                ups = self._cross(ups, ges)
        least: dict = {}
        for eq in system.equations:
            for m in eq.lhs.monomials:
                if eq.rhs.rank < top:
                    least[m.vars] = min(least.get(m.vars, top), eq.rhs.rank)
        self.clauses_all = sorted(
            [
                (vs, r) for vs, r in least.items()
                if not any(ws != vs and set(ws) <= set(vs) and q <= r for ws, q in least.items())
            ],
            key=lambda clause: len(clause[0]),
        )
        downs = [whole]
        for i, (vs, r) in enumerate(self.clauses_all):
            self.clauses.append((vs, r))
            family = self._pins(vs, n, top, (0, r), (0, top))
            downs = self._cross(downs, family) if i else family
            downs = [d for d in downs if any(_meet(u, d) for u in ups)]
            if not downs:
                break
        pairs: list = []
        for d, u in itertools.product(downs, ups):
            meet = _meet(u, d)
            if meet is not None:
                self._store(pairs, meet)
        return tuple(sorted(pairs))


def random_pair(
    rng: random.Random,
    *,
    max_states: int = 2,
    max_symbols: int = 2,
    max_chain: int = 3,
) -> tuple[fz.FuzzyAutomaton, fz.FuzzyAutomaton]:
    """Two automata sharing a freshly drawn chain and alphabet."""
    chain = fz.Chain(fz.random_chain_labels(rng, rng.randint(2, max_chain)))
    alphabet = alphabet_of(rng.randint(1, max_symbols))
    a1 = fz.random_automaton(rng, chain, alphabet, rng.randint(1, max_states))
    a2 = fz.random_automaton(rng, chain, alphabet, rng.randint(1, max_states))
    return a1, a2


def identity(chain: fz.Chain, n: int) -> fz.FuzzyMatrix:
    """1 on the diagonal, 0 elsewhere: the unit of max-min composition."""
    top = len(chain) - 1
    data = tuple(top if i == j else 0 for i in range(n) for j in range(n))
    return fz.FuzzyMatrix(chain, n, n, data)


def scalar(m: fz.FuzzyMatrix) -> ChainValue:
    """The value of a 1x1 matrix."""
    if (m.rows, m.cols) != (1, 1):
        raise ValueError("scalar() needs a 1x1 matrix")
    return ChainValue(m.chain, m.data[0])


def maxmin_product(a: fz.FuzzyMatrix, b: fz.FuzzyMatrix) -> fz.FuzzyMatrix:
    """Whole-matrix composition where + is max and * is min:
    out[i][j] = max_k min(a[i][k], b[k][j])."""
    if a.chain != b.chain:
        raise ValueError("matrices live on different chains")
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions differ: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    b_cols = tuple(b.data[j :: b.cols] for j in range(b.cols))
    data = tuple(max(map(min, row, col)) for row in a.as_row_tuples() for col in b_cols)
    return fz.FuzzyMatrix(a.chain, a.rows, b.cols, data)


def fraction_maxmin_product(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> list[list[Fraction]]:
    """Reference product over Fractions, written as the definition reads."""
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [max(min(a[i][k], b[k][j]) for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def as_fraction_grid(m: fz.FuzzyMatrix) -> list[list[Fraction]]:
    return [
        [Fraction(m.chain.label(m.rank_at(i, j))) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def delta_word(a: fz.FuzzyAutomaton, word: Sequence[int]) -> fz.FuzzyMatrix:
    """Transition matrix of a word, as a product of whole matrices; the empty
    word maps to the identity."""
    m = identity(a.chain, a.n)
    for s in word:
        m = maxmin_product(m, a.delta[s])
    return m


def literal_suffix_vectors(
    a1: fz.FuzzyAutomaton, a2: fz.FuzzyAutomaton, up_to: int
) -> set[tuple[int, ...]]:
    """All stacked M(x) . eta vectors for words of length <= up_to, by brute
    word enumeration."""
    out = set()
    for word in all_words_up_to(len(a1.alphabet), up_to):
        v1 = maxmin_product(delta_word(a1, word), a1.eta)
        v2 = maxmin_product(delta_word(a2, word), a2.eta)
        out.add(v1.data + v2.data)
    return out


def positive_ranks(*automata: fz.FuzzyAutomaton) -> list[int]:
    """The positive ranks occurring in pi, eta or delta of the automata."""
    ranks = set()
    for a in automata:
        for m in (a.pi, a.eta, *a.delta):
            ranks.update(m.data)
    return sorted(ranks - {0})


def literal_suffix_cuts(
    a1: fz.FuzzyAutomaton, a2: fz.FuzzyAutomaton, up_to: int
) -> set[tuple[int, int]]:
    """(alpha, bitset of the entries >= alpha) for every stacked suffix vector
    of a word of length <= up_to and every positive rank alpha occurring in
    the pair."""
    return {
        (alpha, sum(1 << i for i, r in enumerate(v) if r >= alpha))
        for v in literal_suffix_vectors(a1, a2, up_to)
        for alpha in positive_ranks(a1, a2)
    }


def reference_saturate_cut(
    rows: Sequence[Sequence[int]],
    final: int,
    pi1: int,
    pi2: int,
    stored: int,
    max_vectors: int,
    exhaust: bool,
) -> tuple[dict[int, Word], Word | None, int]:
    """Reference for `automaton._saturate_cut` on cut NFAs given by rows:
    rows[s][i] is the set of states that state i steps to on symbol s, and a
    subset v steps to the states whose row meets v, one row test at a time.
    Same witnesses in the same order, same mismatch, depth and budget
    errors."""
    bits = [1 << i for i in range(len(rows[0]))]
    if stored >= max_vectors:
        raise fz.BudgetExceededError(stored + 1, max_vectors, "cut subsets")
    stored += 1
    witness: dict[int, Word] = {final: ()}
    mismatch: Word | None = None
    if bool(pi1 & final) != bool(pi2 & final):
        mismatch = ()
        if not exhaust:
            return witness, mismatch, 0
    frontier = [final]
    depth = 0
    while frontier:
        new: list[int] = []
        for s, sym_rows in enumerate(rows):
            for v in frontier:
                u = 0
                for row, bit in zip(sym_rows, bits):
                    if row & v:
                        u |= bit
                if u in witness:
                    continue
                if stored >= max_vectors:
                    raise fz.BudgetExceededError(stored + 1, max_vectors, "cut subsets")
                stored += 1
                word = (s,) + witness[v]
                witness[u] = word
                if mismatch is None and bool(pi1 & u) != bool(pi2 & u):
                    mismatch = word
                    if not exhaust:
                        return witness, mismatch, depth + 1
                new.append(u)
        if new:
            depth += 1
        frontier = new
    return witness, mismatch, depth


def reference_joint(rows: Sequence[int], n: int, k: int, code: int):
    """Referee for the last matrix of `minimization._CutDomain._joint`: the
    n input cut rows of one symbol followed by the k candidate rows of the
    block code, row-major after a leading 1 bit with column 0 first, each
    candidate column j the joint state n + j, rebuilt row by row."""
    block = []
    for i in range(k):
        row = code >> k * (k - 1 - i)
        block.append(sum(1 << n + j for j in range(k) if row >> k - 1 - j & 1))
    return _cut_matrix(tuple(rows) + tuple(block))


def reference_later_full(rows: Sequence[Sequence[int]], n: int, k: int) -> list[list]:
    """Referee for the later matrices of `minimization._CutDomain.fits` on
    one level's cut rows per symbol: for i from 0 to the symbol count, the
    distinct joint matrices of symbol i and the symbols after it, each the
    symbol's rows followed by a full candidate block, rebuilt row by row,
    last symbol first."""
    full = (((1 << k) - 1) << n,) * k
    joint = [_cut_matrix(tuple(sym_rows) + full) for sym_rows in rows]
    return [list(dict.fromkeys(joint[i:][::-1])) for i in range(len(rows) + 1)]


def per_level_fixpoint(
    a1: fz.FuzzyAutomaton, a2: fz.FuzzyAutomaton, *, exhaust: bool
) -> EquivalenceResult:
    """Reference for `equivalent_fixpoint` that rebuilds every cut at each
    level from the weights with `cut_mask`, one row at a time, and
    saturates it with `reference_saturate_cut`, every level to its end when
    exhaust is set and each to its first mismatch otherwise."""
    n1 = a1.n
    reached: list = []
    least = None
    depth = 0
    for alpha in _levels(a1, a2):
        rows = [
            tuple(cut_mask(row, alpha) for row in d1.as_row_tuples())
            + tuple(cut_mask(row, alpha) << n1 for row in d2.as_row_tuples())
            for d1, d2 in zip(a1.delta, a2.delta)
        ]
        final = cut_mask(a1.eta.data, alpha) | cut_mask(a2.eta.data, alpha) << n1
        witness, mismatch, level_depth = reference_saturate_cut(
            rows,
            final,
            cut_mask(a1.pi.data, alpha),
            cut_mask(a2.pi.data, alpha) << n1,
            len(reached),
            DEFAULT_VECTOR_BUDGET,
            exhaust=exhaust,
        )
        reached.extend((alpha, subset) for subset in witness)
        depth = max(depth, level_depth)
        if mismatch is not None and (
            least is None or (len(mismatch), mismatch) < (len(least), least)
        ):
            least = mismatch
    return EquivalenceResult(least is None, depth, least, tuple(reached))


def permutation_pair(
    n: int, seed: int, *, broken: bool
) -> tuple[fz.FuzzyAutomaton, fz.FuzzyAutomaton]:
    """a = n-cycle, b = transposition, eta holds n distinct values; paired
    with its padded copy, or with that copy after one final weight changed."""
    rng = random.Random(f"perm/{n}/{seed}")
    chain = fz.Chain(fz.random_chain_labels(rng, n + 1))
    top = len(chain) - 1
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [top if j == (i + 1) % n else 0 for i in range(n) for j in range(n)]
    transposition = [top if j == swap[i] else 0 for i in range(n) for j in range(n)]
    a = fz.FuzzyAutomaton(
        chain,
        ("a", "b"),
        fz.FuzzyMatrix(chain, 1, n, (top,) + (0,) * (n - 1)),
        fz.FuzzyMatrix(chain, n, 1, tuple(rng.sample(range(len(chain)), n))),
        (
            fz.FuzzyMatrix(chain, n, n, tuple(cycle)),
            fz.FuzzyMatrix(chain, n, n, tuple(transposition)),
        ),
    )
    b = fz.pad_states(a, n + 1)
    if broken:
        state = rng.randrange(n)
        eta = list(b.eta.data)
        eta[state] = rng.choice([r for r in range(len(chain)) if r != eta[state]])
        b = fz.FuzzyAutomaton(
            chain, b.alphabet, b.pi, fz.FuzzyMatrix(chain, n + 1, 1, tuple(eta)), b.delta
        )
    return a, b


def criterion4_instance(seed: int) -> fz.MinimizeInstance:
    """An instance of the acceptance criterion-4 corpus (seeds 3000-3199)."""
    rng = random.Random(seed)
    chain = fz.Chain(fz.random_chain_labels(rng, rng.randint(2, 3)))
    alphabet = alphabet_of(rng.randint(1, 2))
    a = fz.random_automaton(rng, chain, alphabet, rng.randint(1, 3))
    return fz.MinimizeInstance(a, rng.randint(1, 2))


@functools.lru_cache(maxsize=1)
def criterion6_corpus() -> tuple[tuple[fz.FuzzyAutomaton, int], ...]:
    """The 4,212 boolean automata of acceptance criterion 6 (every one of 1
    or 2 states over two symbols, and 100 seeded 3-state draws), each with
    its NFA state minimum from `min_nfa_states_brute`; built once per run."""
    chain2 = fz.Chain(("0", "1"))
    alphabet = ("a", "b")
    corpus = []
    for n in (1, 2):
        corpus.extend(enumerate_boolean_automata(chain2, alphabet, n))
    rng = random.Random(63)
    for code in rng.sample(range(2**24), 100):
        bits = tuple(
            chain2.one if (code >> p) & 1 else chain2.zero for p in range(24)
        )
        corpus.append(fz.decode_candidate(chain2, alphabet, 3, bits))
    return tuple((a, min_nfa_states_brute(a)) for a in corpus)


@functools.lru_cache(maxsize=None)
def _benchmark_base(workload: str) -> list:
    """The instances of a benchmark workload's base corpus, from
    perfbench/corpus.py, in corpus order."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    sys.modules[spec.name] = corpus
    spec.loader.exec_module(corpus)
    return corpus.base_instances(fz, workload)


def minimize_benchmark_ops() -> dict[str, fz.FuzzyAutomaton]:
    """The inputs of the `minimize` benchmark workload's base corpus, by op
    id, in corpus order."""
    return {inst.id: inst.parts[0] for inst in _benchmark_base("minimize")}


def equiv_benchmark_pairs() -> list[tuple[fz.FuzzyAutomaton, fz.FuzzyAutomaton]]:
    """The pairs of the `equiv` benchmark workload's base corpus."""
    return [inst.parts for inst in _benchmark_base("equiv")]


def minimize_benchmark_automata() -> list[fz.FuzzyAutomaton]:
    """The inputs of the `minimize` benchmark workload's base corpus."""
    return list(minimize_benchmark_ops().values())


def first_by_flat_scan(inst: fz.MinimizeInstance) -> tuple[ChainValue, ...] | None:
    """The first assignment of the flat grid, in lexicographic rank order,
    that passes the empty word and the joint-vector referee."""
    a, k = inst.automaton, inst.k
    space = fz.build_candidate_space(inst)
    f_lambda = fz.language_value(a, ()).rank
    for values in itertools.product(space.values, repeat=space.var_count):
        ranks = [v.rank for v in values]
        if max(map(min, ranks[:k], ranks[k : 2 * k])) != f_lambda:
            continue
        cand = fz.decode_candidate(a.chain, a.alphabet, k, values)
        if joint_vector_equivalent(a, cand):
            return values
    return None


def boolean_cut(a: fz.FuzzyAutomaton, alpha: int) -> fz.FuzzyAutomaton:
    """The alpha-cut of a as a boolean automaton: weight 1 where a's rank is
    at least alpha, 0 elsewhere."""
    chain = fz.Chain(("0", "1"))

    def cut(m: fz.FuzzyMatrix) -> fz.FuzzyMatrix:
        return fz.FuzzyMatrix(
            chain, m.rows, m.cols, tuple(int(r >= alpha) for r in m.data)
        )

    return fz.FuzzyAutomaton(
        chain, a.alphabet, cut(a.pi), cut(a.eta), tuple(map(cut, a.delta))
    )


def sparse_draw(seed: int) -> fz.FuzzyAutomaton:
    """A random 10- or 12-state automaton over three symbols and a 12-value
    chain, with each weight then set to 0 with probability 0.85."""
    rng = random.Random(seed)
    chain = fz.Chain(fz.random_chain_labels(rng, 12))
    a = fz.random_automaton(rng, chain, ("a", "b", "c"), 10 + 2 * (seed % 2))

    def thin(m: fz.FuzzyMatrix) -> fz.FuzzyMatrix:
        data = tuple(0 if rng.random() < 0.85 else r for r in m.data)
        return fz.FuzzyMatrix(chain, m.rows, m.cols, data)

    pi, eta = thin(a.pi), thin(a.eta)
    return fz.FuzzyAutomaton(chain, a.alphabet, pi, eta, tuple(map(thin, a.delta)))


def reference_fooling_set(cut, floor: int, limit: int, max_vectors: int) -> list:
    """`minimization._fooling_set` with a prune on pair counts only: the same
    pairs, tried in the same depth-first order, but a branch is dropped only
    when its pairs plus all its untried pairs cannot beat the best set."""
    n = len(cut.rows[0])
    try:
        suffix, _, _ = reference_saturate_cut(
            cut.rows, cut.final, 0, 0, 0, max_vectors, exhaust=True
        )
        limit = min(limit, len(suffix) - (0 in suffix))
        if limit <= floor:
            return []
        forward, _, _ = reference_saturate_cut(
            cut.back, cut.initial, 0, 0, len(suffix), max_vectors, exhaust=True
        )
        limit = min(limit, len(forward) - (0 in forward))
        if limit <= floor:
            return []
    except fz.BudgetExceededError:
        return []
    spent = len(suffix) + len(forward)
    minimal = []
    for subsets in (forward, suffix):
        per_state: list[list[int]] = [[] for _ in range(n)]
        for u in sorted(subsets, key=int.bit_count):
            for q in range(n):
                if u >> q & 1:
                    spent += len(per_state[q]) + 1
                    if all(v & ~u for v in per_state[q]):
                        per_state[q].append(u)
            if spent > max_vectors:
                return []
        minimal.append(per_state)
    candidates: dict[tuple[int, int], None] = {}
    for fs, bs in zip(*minimal):
        spent += len(fs) * len(bs)
        if spent > max_vectors:
            return []
        candidates.update(((f, b), None) for f in fs for b in bs)
    pairs = sorted(candidates, key=lambda p: p[0].bit_count() + p[1].bit_count())
    best: list[tuple[int, int]] = []
    frames: list[tuple[list, list, int]] = [([], pairs, 0)]
    while frames:
        chosen, open_, tried = frames[-1]
        if tried == len(open_) or len(chosen) + len(open_) - tried <= floor:
            frames.pop()
            continue
        frames[-1] = (chosen, open_, tried + 1)
        f, b = open_[tried]
        rest = open_[tried + 1 :]
        spent += len(rest) + 1
        if spent > max_vectors:
            break
        chosen = chosen + [(f, b)]
        if len(chosen) > floor:
            best, floor = chosen, len(chosen)
            if floor >= limit:
                break
        frames.append((chosen, [(g, c) for g, c in rest if not f & c or not g & b], 0))
    return [(forward[f][::-1], suffix[b]) for f, b in best]

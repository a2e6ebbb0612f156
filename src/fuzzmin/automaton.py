"""Fuzzy finite automata over a chain: word semantics and equivalence decisions.

An automaton is (chain, alphabet, pi, eta, delta): a 1 x n initial row, an
n x 1 final column, and one n x n transition matrix per symbol, each an
immutable `FuzzyMatrix` of entry ranks, row-major; only this module reads one
by column.  The value of a word is pi composed with the word's transition
product composed with eta, all under max-min.  That composition is
associative, so `language_value` folds pi through the word one symbol at a
time, a row vector throughout.

Two deciders for language equality live here and are deliberately independent
implementations:

* `equivalent_fixpoint` decides on alpha-cuts.  Over a chain, a word's value
  is >= alpha exactly when some path reading it has every weight >= alpha,
  that is, when the NFA keeping only the weights >= alpha accepts it.  So two
  automata are equivalent iff their cut NFAs accept the same language at
  every positive level alpha, and only the positive ranks that occur in the
  automata need checking.  At each level a breadth-first search over suffix
  subsets (int bitsets), extending words on the left, stores every subset
  with the length-lex least word that reaches it.  The search is length-lex,
  so the first stored subset the two sides' initial states disagree on gives
  that level's least counterexample, and the level stops there; the
  length-lex least of the levels' counterexamples is the least one overall.
  On equivalent automata the stabilization index is the deepest level's
  saturation depth: the least l such that words up to length l reach every
  cut subset at every level.  `minimization._one_state` builds the input's
  cut matrices with the same `_cut_mats` and checks its one-state candidate
  beside them with the same kernel, `_saturate_cut`, and
  `minimization.decide_k` runs that kernel on every candidate prefix it
  checks, restricted to the symbols whose transitions the prefix already
  fixes.  Up to _PACKED_MAX states a symbol's cut matrix is one int, row i
  in the i-th field of n + 1 bits under a guard bit, and a subset steps in
  a few int operations: row i meets the subset exactly when adding 2**n - 1
  to their meet carries into guard i, and one multiply gathers the guards
  into the next subset.  The rows, the final set and every subset are
  below 2**n, so no carry goes past its guard.  The step's ints have n**2
  bits, so matrices wider than _PACKED_MAX stay tuples of rows, stepped one
  row test at a time; the packed step stops winning near 36 to 40 states
  (see `_PACKED_MAX`).

* `k_equivalent` / `bounded_counterexample` walk words in length-lex order,
  extending on the right, and memoize on the pair of forward vectors
  pi . delta(w) reached.  A repeated pair determines identical values for
  every extension, so the pruning is exact; the verdict and counterexample
  match literal word enumeration, which is infeasible once the bound grows.

`equivalence_length_bound` gives the word length that makes the bounded check
complete: two automata agree everywhere iff they agree on all words no longer
than d**(n1+n2) - 1, where d counts the distinct transition and final weights
occurring in either automaton (initial weights deliberately do not count).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import lshift, or_
from typing import Sequence

from .chain import Chain, ChainValue
from .errors import DEFAULT_VECTOR_BUDGET, BudgetExceededError

Word = tuple[int, ...]


@dataclass(frozen=True)
class FuzzyMatrix:
    chain: Chain
    rows: int
    cols: int
    data: tuple[int, ...]  # entry ranks, row-major

    def __post_init__(self) -> None:
        data = tuple(self.data)
        object.__setattr__(self, "data", data)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"degenerate shape {self.rows}x{self.cols}")
        if len(data) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries,"
                f" got {len(data)}"
            )
        top = len(self.chain) - 1
        for r in data:
            if not 0 <= r <= top:
                raise ValueError(f"entry rank {r} outside chain")

    def rank_at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def as_row_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view as rank tuples; the low-level form the kernels use."""
        c = self.cols
        return tuple(self.data[i * c : (i + 1) * c] for i in range(self.rows))


_SYMBOL_RULE = "a symbol name is nonempty, holds no whitespace and is not λ"


def _plain_symbol(sym: object) -> bool:
    """Whether sym can be printed in a word and read back: words are written
    with spaces between symbols, and λ is the empty word."""
    return isinstance(sym, str) and sym != "λ" and sym.split() == [sym]


@dataclass(frozen=True)
class FuzzyAutomaton:
    chain: Chain
    alphabet: tuple[str, ...]
    pi: FuzzyMatrix
    eta: FuzzyMatrix
    delta: tuple[FuzzyMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", tuple(self.delta))
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet has duplicate symbols")
        for sym in self.alphabet:
            if not _plain_symbol(sym):
                raise ValueError(f"bad symbol {sym!r}: {_SYMBOL_RULE}")
        if self.pi.rows != 1:
            raise ValueError("pi must be a single row")
        n = self.pi.cols
        if (self.eta.rows, self.eta.cols) != (n, 1):
            raise ValueError(f"eta must be {n}x1")
        if len(self.delta) != len(self.alphabet):
            raise ValueError("one transition matrix per symbol required")
        for sym, m in zip(self.alphabet, self.delta):
            if (m.rows, m.cols) != (n, n):
                raise ValueError(f"transition matrix for {sym!r} must be {n}x{n}")
        for m in (self.pi, self.eta, *self.delta):
            if m.chain is not self.chain and m.chain != self.chain:
                raise ValueError("automaton parts live on different chains")

    @property
    def n(self) -> int:
        return self.pi.cols

    def symbol_index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise ValueError(f"unknown symbol {name!r}") from None

    def word_from_names(self, names: Sequence[str]) -> Word:
        return tuple(self.symbol_index(name) for name in names)

    def format_word(self, word: Word) -> str:
        if not word:
            return "λ"
        return " ".join(self.alphabet[s] for s in word)


def _check_word(a: FuzzyAutomaton, word: Sequence[int]) -> None:
    for s in word:
        if not 0 <= s < len(a.alphabet):
            raise ValueError(f"symbol index {s} outside alphabet of {len(a.alphabet)}")


def language_value(a: FuzzyAutomaton, word: Sequence[int]) -> ChainValue:
    """Degree to which the automaton accepts the word."""
    _check_word(a, word)
    v = a.pi.data
    for s in word:
        v = _step(v, _columns(a.delta[s]))
    return a.chain[_dot(v, a.eta.data)]


def _require_compatible(a1: FuzzyAutomaton, a2: FuzzyAutomaton) -> None:
    if a1.chain != a2.chain:
        raise ValueError("automata live on different chains")
    if a1.alphabet != a2.alphabet:
        raise ValueError("automata have different alphabets")


def equivalence_length_bound(a1: FuzzyAutomaton, a2: FuzzyAutomaton) -> int:
    """Word length that makes bounded equivalence conclusive.

    d counts the distinct values in the transition matrices and final columns
    of both automata; initial weights do not enter the count.  The bound is
    d**(n1+n2) - 1 and grows fast.
    """
    d, e = _length_bound_power(a1, a2)
    return d**e - 1


def _length_bound_power(a1: FuzzyAutomaton, a2: FuzzyAutomaton) -> tuple[int, int]:
    """d and n1 + n2 of `equivalence_length_bound`."""
    _require_compatible(a1, a2)
    ranks = set(a1.eta.data) | set(a2.eta.data)
    for m in a1.delta + a2.delta:
        ranks.update(m.data)
    return len(ranks), a1.n + a2.n


# Rank-level helpers of `language_value` and the bounded check.  Vectors are
# plain tuples of ranks; a matrix enters a step as the tuple of its columns.

def _columns(m: FuzzyMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(m.data[j :: m.cols] for j in range(m.cols))


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return max(map(min, u, v))


def _step(v: tuple[int, ...], cols: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The row vector v composed with the matrix whose columns are cols."""
    return tuple(_dot(v, col) for col in cols)


def k_equivalent(
    a1: FuzzyAutomaton,
    a2: FuzzyAutomaton,
    k: int,
    *,
    max_pairs: int = DEFAULT_VECTOR_BUDGET,
) -> bool:
    """True iff the two automata give equal values to every word of length <= k."""
    return bounded_counterexample(a1, a2, k, max_pairs=max_pairs) is None


def bounded_counterexample(
    a1: FuzzyAutomaton,
    a2: FuzzyAutomaton,
    k: int,
    *,
    max_pairs: int = DEFAULT_VECTOR_BUDGET,
) -> Word | None:
    """Least word (shortest, then lexicographic) of length <= k with differing values.

    Walks words by appending symbols on the right and keys the search on the
    pair of forward vectors pi . delta(w) reached; the value of w x is the
    forward vector of w folded through x and closed with eta, so a repeated
    pair fixes the values of every extension.  Those extensions were covered,
    each by a length-lex smaller word, when the pair first appeared, so
    skipping them loses nothing; the first mismatch found is exactly the
    least one literal enumeration reports.  max_pairs bounds the stored pairs.
    """
    _require_compatible(a1, a2)
    if k < 0:
        raise ValueError("word length bound must be >= 0")
    cols1 = [_columns(d) for d in a1.delta]
    cols2 = [_columns(d) for d in a2.delta]
    eta1, eta2 = a1.eta.data, a2.eta.data
    v1, v2 = a1.pi.data, a2.pi.data
    if _dot(v1, eta1) != _dot(v2, eta2):
        return ()
    seen = {(v1, v2)}
    frontier: list[tuple[tuple, tuple, Word]] = [(v1, v2, ())]
    level = 0
    while frontier and level < k:
        level += 1
        new: list[tuple[tuple, tuple, Word]] = []
        for v1, v2, w in frontier:
            for s, (c1, c2) in enumerate(zip(cols1, cols2)):
                key = (_step(v1, c1), _step(v2, c2))
                if key in seen:
                    continue
                word = w + (s,)
                if _dot(key[0], eta1) != _dot(key[1], eta2):
                    return word
                seen.add(key)
                if len(seen) > max_pairs:
                    raise BudgetExceededError(
                        len(seen), max_pairs, "forward vector pairs in bounded check"
                    )
                new.append((*key, word))
        frontier = new
    return None


# Threshold cuts.  A set of states is an int bitset, bit i for state i.  At a
# level alpha, a vector cuts to the mask of its entries >= alpha and a matrix
# to one such mask per row.  The deciders need every level, so a rank
# sequence is read once into its masks at all levels (`_cut_table`) and a
# matrix's rows into one tuple of row masks per level (`_cut_by_level`).

def _levels(*automata: FuzzyAutomaton) -> list[int]:
    """The positive ranks occurring anywhere in the automata, ascending.

    Every word value occurs among the weights or is 0, so a cut at any other
    level equals the cut at the next occurring rank above it."""
    ranks: set[int] = set()
    for a in automata:
        ranks.update(a.pi.data, a.eta.data)
        for m in a.delta:
            ranks.update(m.data)
    ranks.discard(0)
    return sorted(ranks)


def _cut_table(ranks: Sequence[int], levels: Sequence[int], shift: int = 0) -> list[int]:
    """For every alpha of the ascending levels, the mask with bit i + shift
    set for each entry i of ranks that is at least alpha.

    Each entry's bit goes once into the slot of the highest level at or below
    its rank, and the slots then accumulate from the top level down, so the
    slot of a level ends up holding every entry whose rank reaches it."""
    slots = [0] * len(levels)
    for i, r in enumerate(ranks, shift):
        p = bisect_right(levels, r) - 1
        if p >= 0:
            slots[p] |= 1 << i
    return list(accumulate(reversed(slots), or_))[::-1]


def _cut_by_level(
    rows: Sequence[Sequence[int]], levels: Sequence[int], shift: int = 0
) -> list[tuple[int, ...]]:
    """Per level, the tuple of every row's `_cut_table` mask at that level."""
    return list(zip(*(_cut_table(row, levels, shift) for row in rows)))


# Cut matrices.  A cut matrix on n states, n <= _PACKED_MAX, is one int: row
# i sits in the field of n + 1 bits that starts at bit i * (n + 1), its n low
# bits the row and its top bit a guard, always 0 in the matrix.  Past that
# width a cut matrix is the tuple of its rows.  `_layout` holds the one width
# test, and nothing wider is ever packed.

# The packed step works on ints of n * (n + 1) bits, so its cost grows as
# n**2 where the row loop's grows as n.  One step of each, median of 15 runs
# in-process (Python 3.11.7, virtualised Intel Xeon): 0.46 against 1.14 us
# at 13 states, 0.88 against 1.85 at 21, 2.2 against 3.0 at 32, within noise
# of each other from 36 to 40, 10.0 against 5.9 at 48 and 24.7 against 7.4
# at 64.
_PACKED_MAX = 32


@cache
def _layout(n: int) -> tuple[int, int, int, int, int, int] | None:
    """The constants of the packed step at width n, or None past _PACKED_MAX.

    ones has bit 0 of every field, guard every guard bit, and data the n low
    bits of every field.  gather is the sum of 2**((n-1-j)*(n+1) + j) over
    j < n.  The guard of field i times the term j lands at bit
    (n - 1 + i - j) * (n + 1) + n + j, distinct for distinct (i, j), so the
    product has no carries.  The terms i = j land at n + (n-1)*(n+1) + i and
    every other term outside those n bits, which shift and low cut out."""
    if n > _PACKED_MAX:
        return None
    w = n + 1
    ones = sum(1 << i * w for i in range(n))
    gather = sum(1 << (n - 1 - j) * w + j for j in range(n))
    return ones, ones << n, ones * ((1 << n) - 1), gather, n + (n - 1) * w, (1 << n) - 1


def _cut_matrix(
    rows: Sequence[int], n: int | None = None, first: int = 0
) -> int | tuple[int, ...]:
    """The cut matrix on n states, by default len(rows), in `_saturate_cut`'s
    form, with these row masks as rows first, first + 1, ... and every other
    row empty.  Past _PACKED_MAX it is the tuple of these rows alone, so the
    matrices of consecutive runs of rows, added in row order, make up the
    matrix of all of them."""
    if n is None:
        n = len(rows)
    if _layout(n) is None:
        return tuple(rows)
    w = n + 1
    return sum(map(lshift, rows, range(first * w, (first + len(rows)) * w, w)))


@cache
def _entry_bits(first: int, k: int, size: int) -> list[int]:
    """The bit of each entry, row-major, of a k x k matrix on states first,
    ..., first + k - 1 of a packed cut matrix on size states."""
    w = size + 1
    return [1 << (first + i) * w + first + j for i in range(k) for j in range(k)]


def _cut_mats(ms: Sequence[FuzzyMatrix], levels: Sequence[int], size: int) -> list:
    """Per level, the cut matrix on size states, in `_saturate_cut`'s form,
    of the square matrices ms laid side by side from state 0, each matrix's
    states after those of the one before it; states past them have empty
    rows.  levels must hold every positive rank of ms.  Past _PACKED_MAX it
    is the tuple of ms's rows alone, as `_cut_matrix` makes it.

    A packed matrix is built straight from the weights: one pass over all of
    ms ORs each entry's bit into the mask of its rank, and the masks then
    accumulate from the top level down, as in `_cut_table`."""
    if _layout(size) is None:
        firsts = accumulate((m.rows for m in ms), initial=0)
        parts = [_cut_by_level(m.as_row_tuples(), levels, f) for m, f in zip(ms, firsts)]
        return [sum(rows, ()) for rows in zip(*parts)]
    masks = [0] * len(ms[0].chain)
    first = 0
    for m in ms:
        for r, bit in zip(m.data, _entry_bits(first, m.rows, size)):
            masks[r] |= bit
        first += m.rows
    return list(accumulate((masks[alpha] for alpha in reversed(levels)), or_))[::-1]


def _saturate_cut(
    mats: Sequence[int | tuple[int, ...]],
    n: int,
    final: int,
    pi1: int,
    pi2: int,
    stored: int,
    max_vectors: int,
) -> tuple[dict[int, Word], Word | None, int]:
    """Saturate the suffix subsets of one cut NFA on n states of a joint pair
    of automata.

    mats[s] is symbol s's cut matrix, whose row i is the set of states that
    state i steps to on s (`_cut_matrix`); final is the set of final states,
    pi1 and pi2 the initial states of each side.  The rows, final and every
    subset are below 2**n.  The subset of a word x holds the states with a
    path reading x into a final state, so subset(s x) = {i : row i of mats[s]
    meets subset(x)}.  Words grow by prepending, and symbol-major iteration
    over a frontier kept in discovery order makes every stored witness the
    length-lex least word of its subset.

    A packed matrix steps a subset v with a few int operations (constants
    from `_layout`).  v * ones copies v into every field, so m & v * ones
    holds row i & v in field i.  Adding data carries into field i's guard
    exactly when row i & v is not 0, and no further, since row i & v < 2**n;
    masking with guard keeps those carries.  One multiply by gather moves
    guard i to bit i of a single field, which shift and low cut out: that is
    the next subset.  A cut matrix past _PACKED_MAX is a tuple of rows, and
    a step tests each row.

    Returns (witness of every stored subset, the first word on which the sides
    disagree, depth), where depth counts the rounds that stored something.  A
    mismatch is the first stored subset that one side's initial states meet
    and the other's do not; its witness is the least word telling the sides
    apart at this level, and the search stops there.  With no mismatch the
    cut is saturated.  stored counts subsets kept by earlier levels toward
    max_vectors, which is checked at every store.
    """
    layout = _layout(n)
    if layout is None:
        bits = [1 << i for i in range(n)]
    else:
        ones, guard, data, gather, shift, low = layout
    if stored >= max_vectors:
        raise BudgetExceededError(stored + 1, max_vectors, "cut subsets")
    stored += 1
    witness: dict[int, Word] = {final: ()}
    if bool(pi1 & final) != bool(pi2 & final):
        return witness, (), 0
    frontier = [final]
    depth = 0
    while frontier:
        new: list[int] = []
        for s, m in enumerate(mats):
            for v in frontier:
                if layout is None:
                    u = 0
                    for row, bit in zip(m, bits):
                        if row & v:
                            u |= bit
                else:
                    u = ((m & v * ones) + data & guard) * gather >> shift & low
                if u in witness:
                    continue
                if stored >= max_vectors:
                    raise BudgetExceededError(stored + 1, max_vectors, "cut subsets")
                stored += 1
                word = (s,) + witness[v]
                witness[u] = word
                if bool(pi1 & u) != bool(pi2 & u):
                    return witness, word, depth + 1
                new.append(u)
        if new:
            depth += 1
        frontier = new
    return witness, None, depth


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of `equivalent_fixpoint`.

    reached holds every stored (alpha, subset) pair, levels ascending, each
    level in discovery order.  On equivalent automata stabilization_index is
    the deepest per-level saturation depth, every cut subset is reached by a
    word no longer than it, and reached holds every cut subset.  Otherwise
    each level stops at its first mismatch: stabilization_index is the
    deepest depth searched, at least len(counterexample), and reached keeps
    each level's subsets up to its first mismatch.
    """

    equivalent: bool
    stabilization_index: int
    counterexample: Word | None
    reached: tuple[tuple[int, int], ...]


def equivalent_fixpoint(
    a1: FuzzyAutomaton,
    a2: FuzzyAutomaton,
    *,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
) -> EquivalenceResult:
    """Decide language equality level by level on the alpha-cuts.

    At each level the two automata sit side by side in one cut NFA, the first
    automaton's states before the second's, each symbol's two matrices cut
    together by one `_cut_mats` call, and `_saturate_cut` stores every
    suffix subset up to the level's first mismatch.  The least counterexample
    overall is the length-lex least of the per-level ones.  max_vectors
    bounds the subsets stored over all levels together.
    """
    _require_compatible(a1, a2)
    n = a1.n + a2.n
    levels = _levels(a1, a2)
    mats = [_cut_mats(pair, levels, n) for pair in zip(a1.delta, a2.delta)]
    # the joint final column is the two columns one after the other
    final = _cut_table(a1.eta.data + a2.eta.data, levels)
    pi1, pi2 = _cut_table(a1.pi.data, levels), _cut_table(a2.pi.data, levels, a1.n)
    reached: list[tuple[int, int]] = []
    least: Word | None = None
    depth = 0
    for p, alpha in enumerate(levels):
        witness, mismatch, level_depth = _saturate_cut(
            [sym_mats[p] for sym_mats in mats],
            n,
            final[p],
            pi1[p],
            pi2[p],
            len(reached),
            max_vectors,
        )
        reached.extend((alpha, subset) for subset in witness)
        depth = max(depth, level_depth)
        if mismatch is not None and (
            least is None or (len(mismatch), mismatch) < (len(least), least)
        ):
            least = mismatch
    return EquivalenceResult(least is None, depth, least, tuple(reached))

"""Decision procedure for exact state minimization of fuzzy automata.

Whether a given automaton has an equivalent realization on k states is
decidable by brute force over a finite grid: if any k-state equivalent
exists, one exists whose initial, final, and transition weights are all drawn
from V, the set of values occurring in the input automaton.  `decide_k`
searches that grid depth first in its lexicographic order, testing prefixes
on the alpha-cuts with the kernel `equivalent_fixpoint` uses, and cuts only
assignments that cannot be the first witness, so the witness is still the
lexicographically first equivalent grid assignment.  `minimize` walks k
upward from a lower bound and returns the first winner, or the input itself
when nothing smaller works.

k = 1 needs no search.  A one-state automaton values a word w as min(pi',
eta', delta'_s for each letter s of w).  So if any one-state equivalent
exists, (c, c, f(a_1), ..., f(a_m)) is one too, where c = f(lambda) and
f(a_i) is the input's value on the letter a_i.  That point is also the
first in grid order: pi' >= c and eta' >= c are forced, and each delta'_s
is forced or can be as low as c.  `_one_state` checks that candidate on
ranks, on the input's cut matrices as `equivalent_fixpoint` builds them,
and returns it; `minimize` tries it before anything else.  So k = 1 has no
grid: it is decided by that check alone, and the grid steps below (the
refusal of an oversized grid, the one-point answer, the search) start at
k = 2.

A candidate's alpha-cut depends only on which of its weights are >= alpha,
so at one level and one cut prefix every transition block with the same bit
pattern passes or fails the same check.  The search therefore tests each
cut pattern once per level and prefix, with one level or several, and fills
a block weight by weight, dropping a weight as soon as some level has no
passing pattern that extends its bits.  A block survives exactly when
checking it on its own would pass it, and blocks are still met in grid
order, so witnesses are unchanged.

Each (pi', eta') head, before any block is tried, and each block that
passes its prefix check at every block boundary but the last, must also
pass an upper bound: at each level, every word the input's cut accepts must
be accepted by the candidate's cut NFA with every block not yet chosen
full.  Adding transitions only adds words, so every completion's cut
language lies inside that bound, and a head or block that fails it leads
to no witness.  Only non-witnesses are cut, so the witness is unchanged.

One filter runs before that search.  The alpha-cut of a k-state witness is
a k-state NFA for the input's cut language, so a cut of the input with no
k-state NFA rules k out.  The filter looks for an extended fooling set of
k+1 word pairs on some cut (Birget 1992; Glaister and Shallit 1996), a
certificate found without any grid, so it runs first at every k, before
the grid is refused; `minimize` looks once for the largest set and starts
k at its size.  It skips cuts with at most k trimmed states, which already
are k-state NFAs, and only ever answers None, so witnesses are unchanged.
A one-point grid is answered directly.  Each cut is built once per input,
as a `_Cut` record that the filter and the search read.

Automata whose values are all 0 or 1 are classical NFAs under the reading
"accepted iff value 1"; `nfa_view` exposes that reading, and minimization on
such automata is exactly NFA state minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence

from .automaton import (
    FuzzyAutomaton,
    FuzzyMatrix,
    Word,
    language_value,
    _columns,
    _cut_by_level,
    _cut_matrix,
    _cut_mats,
    _cut_table,
    _dot,
    _levels,
    _saturate_cut,
    _step,
)
from .chain import Chain, ChainValue
from .errors import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_VECTOR_BUDGET,
    BudgetExceededError,
    NonBooleanValueError,
    _check_grid,
    _size,
)


@dataclass(frozen=True)
class MinimizeInstance:
    automaton: FuzzyAutomaton
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("target state count must be >= 1")


@dataclass(frozen=True)
class CandidateSpace:
    """The finite grid a k-state search ranges over.

    values: the distinct weights of the input automaton, ascending.
    var_count: 2k + |alphabet| * k**2 unknowns (pi', eta', then each delta').
    """

    values: tuple[ChainValue, ...]
    var_count: int


def build_candidate_space(inst: MinimizeInstance) -> CandidateSpace:
    ranks, var_count = _grid(inst)
    return CandidateSpace(tuple(map(inst.automaton.chain.__getitem__, ranks)), var_count)


def _grid(inst: MinimizeInstance) -> tuple[tuple[int, ...], int]:
    """The ranks of the candidate grid's values, ascending, and its var_count."""
    a = inst.automaton
    k = inst.k
    ranks = set(a.pi.data) | set(a.eta.data)
    for m in a.delta:
        ranks.update(m.data)
    return tuple(sorted(ranks)), 2 * k + len(a.alphabet) * k * k


@dataclass(frozen=True)
class CandidateAutomaton:
    """A grid assignment together with the k-state automaton it decodes to."""

    assignment: tuple[ChainValue, ...]
    automaton: FuzzyAutomaton


def _candidate(a: FuzzyAutomaton, k: int, ranks: Sequence[int]) -> CandidateAutomaton:
    values = tuple(map(a.chain.__getitem__, ranks))
    return CandidateAutomaton(values, decode_candidate(a.chain, a.alphabet, k, values))


def decode_candidate(
    chain: Chain, alphabet: Sequence[str], k: int, assignment: Sequence[ChainValue]
) -> FuzzyAutomaton:
    """Assignment layout: k initial weights, k final weights, then one
    row-major k x k block per symbol in alphabet order."""
    alphabet = tuple(alphabet)
    expected = 2 * k + len(alphabet) * k * k
    if len(assignment) != expected:
        raise ValueError(f"assignment needs {expected} values, got {len(assignment)}")
    for v in assignment:
        if v.chain is not chain and v.chain != chain:
            raise ValueError("assignment value from a different chain")
    ranks = tuple(v.rank for v in assignment)
    pi = FuzzyMatrix(chain, 1, k, ranks[:k])
    eta = FuzzyMatrix(chain, k, 1, ranks[k : 2 * k])
    kk = k * k
    delta = tuple(
        FuzzyMatrix(chain, k, k, ranks[2 * k + s * kk : 2 * k + (s + 1) * kk])
        for s in range(len(alphabet))
    )
    return FuzzyAutomaton(chain, alphabet, pi, eta, delta)


class _Cut(NamedTuple):
    """The alpha-cut NFA of the input at one positive level, built once."""

    alpha: int
    rows: list[tuple[int, ...]]  # rows[s][i]: the states i steps to on s
    back: list[tuple[int, ...]]  # back[s][j]: the states that step to j on s
    final: int
    initial: int
    trimmed: int  # states reachable from an initial state that reach a final one


def _reach(rows: Sequence[tuple[int, ...]], start: int) -> int:
    """The states reachable from the set start along rows."""
    reached = frontier = start
    while frontier:
        step = 0
        for sym_rows in rows:
            for i, row in enumerate(sym_rows):
                if frontier >> i & 1:
                    step |= row
        frontier = step & ~reached
        reached |= frontier
    return reached


def _cut_levels(a: FuzzyAutomaton) -> list[_Cut]:
    levels = _levels(a)
    rows = [_cut_by_level(d.as_row_tuples(), levels) for d in a.delta]
    back = [_cut_by_level(_columns(d), levels) for d in a.delta]
    final, initial = _cut_table(a.eta.data, levels), _cut_table(a.pi.data, levels)
    cuts = []
    for p, alpha in enumerate(levels):
        rows_p = [sym_rows[p] for sym_rows in rows]
        back_p = [sym_back[p] for sym_back in back]
        trimmed = (_reach(rows_p, initial[p]) & _reach(back_p, final[p])).bit_count()
        cuts.append(_Cut(alpha, rows_p, back_p, final[p], initial[p], trimmed))
    return cuts


def _fooling_set(
    cut: _Cut, floor: int, limit: int, max_vectors: int
) -> list[tuple[Word, Word]]:
    """An extended fooling set of one cut NFA with more than floor pairs and
    at most limit, or the empty list when none is found.

    The pairs (x_i, y_i) are words with x_i y_i accepted and, for i != j,
    x_i y_j or x_j y_i rejected, so every NFA for the cut language has at
    least one state per pair (Birget 1992; Glaister and Shallit 1996).  A
    pair joins the forward subset F of x (the states x reaches) and the
    suffix subset B of y (the states from which y is accepted), which meet;
    two pairs are compatible when F_1 misses B_2 or F_2 misses B_1.  Shrinking
    F or B keeps a set compatible, so only pairs whose subsets are minimal
    among those holding a state they share are tried.  The search for
    compatible pairs is depth first and keeps the largest set found.  Two
    pairs whose cores F & B (never empty) share a state q are incompatible,
    as q lies in F_1 & B_2 and in F_2 & B_1, so a branch is dropped once its
    pairs plus the distinct lowest core states of the pairs it may still add
    cannot beat the best set.  Every stored subset, containment test,
    candidate pair, compatibility test and core is charged against
    max_vectors; past it the search stops with the best set so far, which is
    still a fooling set.
    """
    n = len(cut.rows[0])
    # the pairs of a fooling set have distinct nonempty suffix subsets, and
    # distinct nonempty forward subsets; with no initial states on either
    # side the kernel finds no mismatch, so it saturates the whole cut
    try:
        suffix, _, _ = _saturate_cut(
            list(map(_cut_matrix, cut.rows)), n, cut.final, 0, 0, 0, max_vectors
        )
        limit = min(limit, len(suffix) - (0 in suffix))
        if limit <= floor:
            return []
        # the forward subsets are the suffix subsets of the reversed NFA,
        # and their words come back reversed
        forward, _, _ = _saturate_cut(
            list(map(_cut_matrix, cut.back)), n, cut.initial, 0, 0, len(suffix),
            max_vectors,
        )
        limit = min(limit, len(forward) - (0 in forward))
        if limit <= floor:
            return []
    except BudgetExceededError:
        return []
    spent = len(suffix) + len(forward)
    # per state, the subsets holding it that hold no smaller such one
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
    # a frame holds the pairs chosen, the pairs compatible with all of them,
    # how many of those have been tried as the next pair, and the
    # `_low_core_counts` of those; floor rises with each better set found
    spent += len(pairs)
    frames: list[tuple[list, list, int, list[int]]] = [([], pairs, 0, _low_core_counts(pairs))]
    while frames:
        chosen, open_, tried, lows = frames[-1]
        if len(chosen) + lows[tried] <= floor:
            frames.pop()
            continue
        frames[-1] = (chosen, open_, tried + 1, lows)
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
        open_ = [(g, c) for g, c in rest if not f & c or not g & b]
        spent += len(open_)
        frames.append((chosen, open_, 0, _low_core_counts(open_)))
    return [(forward[f][::-1], suffix[b]) for f, b in best]


def _low_core_counts(pairs: list[tuple[int, int]]) -> list[int]:
    """For each position t, and for len(pairs), how many distinct states are
    the lowest state of the core f & b of some pair at t or later."""
    lows = itertools.accumulate((f & b & -(f & b) for f, b in reversed(pairs)), int.__or__)
    return [low.bit_count() for low in lows][::-1] + [0]


def _fooling_bound(
    levels: Sequence[_Cut], floor: int, limit: int, max_vectors: int
) -> tuple[int, list[tuple[Word, Word]]] | None:
    """The largest extended fooling set of any level's cut with more than
    floor pairs, with its level, stopping at limit pairs; None when no level
    has one.  Levels are tried descending.  A cut whose trimmed NFA has at
    most floor states is skipped, as it has no larger fooling set."""
    found = None
    for cut in reversed(levels):
        if cut.trimmed <= floor:
            continue
        pairs = _fooling_set(cut, floor, min(limit, cut.trimmed), max_vectors)
        if pairs:
            found = cut.alpha, pairs
            floor = len(pairs)
            if floor >= limit:
                break
    return found


class _CutDomain:
    """The k x k cut patterns that can follow one cut prefix at one level.

    The prefix is the joint cut matrices of the symbols already chosen, with
    the final mask of both sides and the candidate's initial mask pi2.  A bit
    prefix of the next symbol's block is coded row-major after a leading 1
    bit.  `ok` tells whether some completion of it agrees with the input on
    every word over the symbols so far and, unless the symbol is the last,
    fits the input's cut language inside the candidate's with every later
    block full (`fits`, which adds the full block to each later symbol's
    base as it runs); `child` maps each full pattern that passes to the
    prefix it leads to.  Both are computed once per code, so each full
    pattern costs at most two kernel calls however many fuzzy blocks share
    it.  A full pattern's joint matrix is the symbol's base, the input's cut
    rows with the candidate rows empty, plus one table entry per candidate
    row, indexed by that row's k bits.  A root node, with no symbol chosen,
    is searched only if `fits` passes it with every block full.
    """

    def __init__(self, level: tuple, mats: list, final: int, pi2: int) -> None:
        # k, the input's cut rows per symbol as bases, the row tables, n + k,
        # its initial mask pi1, the bits a weight can take at this level,
        # max_vectors, the part of a full candidate block
        self.level = level
        self.mats = mats
        self.final = final
        self.pi2 = pi2
        self._ok: dict[int, bool] = {}
        self.child: dict[int, _CutDomain] = {}

    def _joint(self, code: int) -> list:
        k, bases, tables = self.level[:3]
        joint = bases[len(self.mats)]
        shift, low = k * k, (1 << k) - 1
        for table in tables:
            shift -= k
            joint += table[code >> shift & low]
        return self.mats + [joint]

    def fits(self, mats: list) -> bool:
        """Whether every word the input (initial states pi1) accepts on the
        joint cut matrices mats, followed by the later symbols' matrices, is
        also accepted by the candidate (pi2).  A later symbol's matrix is its
        base plus the full candidate block, in which each of the k
        candidate rows steps to every candidate state.  With no chosen
        matrix it tests a (pi', eta') head before any block.  With pi1 | pi2
        as the first side, the kernel's two-sided test holds exactly where
        the input accepts and the candidate rejects.  Symbols with the same
        joint matrix reach the same subsets, so each matrix is saturated
        once.  With no later symbol the prefix check has already decided,
        and a test past max_vectors decides nothing, so both answer True."""
        _, bases, _, size, pi1, _, max_vectors, full = self.level
        later = [base + full for base in reversed(bases[len(mats) :])]
        if not later:
            return True
        try:
            _, mismatch, _ = _saturate_cut(
                list(dict.fromkeys(mats + later)),
                size, self.final, pi1 | self.pi2, self.pi2, 0, max_vectors,
            )
        except BudgetExceededError:
            return True
        return mismatch is None

    def ok(self, code: int) -> bool:
        hit = self._ok.get(code)
        if hit is None:
            k, _, _, size, pi1, bits, max_vectors, _ = self.level
            todo = k * k + 1 - code.bit_length()  # bits still to choose
            if not todo:
                joint = self._joint(code)
                _, mismatch, _ = _saturate_cut(
                    joint, size, self.final, pi1, self.pi2, 0, max_vectors
                )
                hit = mismatch is None and self.fits(joint)
                if hit:
                    self.child[code] = _CutDomain(self.level, joint, self.final, self.pi2)
            elif len(bits) == 1:
                hit = self.ok(2 * code + bits[0])
            else:
                # the full patterns below code, in grid order
                hit = any(map(self.ok, range(code << todo, code + 1 << todo)))
            self._ok[code] = hit
        return hit


@cache
def _row_tables(n: int, k: int) -> tuple[list[list], int | tuple[int, ...]]:
    """Per candidate row i, its part of the joint cut matrix on n + k states
    for each k-bit pattern p (column 0 the top bit), and the part of a full
    candidate block."""
    patterns = [sum(1 << n + j for j in range(k) if p >> k - 1 - j & 1) for p in range(1 << k)]
    tables = [[_cut_matrix((row,), n + k, n + i) for row in patterns] for i in range(k)]
    return tables, _cut_matrix(patterns[-1:] * k, n + k, n)


def _first_witness(
    k: int, value_ranks: Sequence[int], levels: Sequence[_Cut], max_vectors: int
) -> tuple[int, ...] | None:
    """Ranks of the first k-state assignment over value_ranks, in grid order,
    that agrees with the input at every level, or None.

    levels are the input's `_cut_levels`; each level's alpha cuts the
    candidate's weights, and the alphabet and f(lambda) are read off them:
    f(lambda) is 0 or a rank of V, so it is the highest alpha whose cut has
    a state both initial and final, or 0.  `decide_k` documents the search
    order and its cuts.
    """
    n_sym, n = len(levels[0].rows), len(levels[0].rows[0])
    f_lambda = max((cut.alpha for cut in levels if cut.initial & cut.final), default=0)
    size, kk = n + k, k * k
    tables, full = _row_tables(n, k)
    alphas = [cut.alpha for cut in levels]
    shapes = []
    for cut in levels:
        bases = [_cut_matrix(rows, size) for rows in cut.rows]
        bits = sorted({int(r >= cut.alpha) for r in value_ranks})
        shapes.append((k, bases, tables, size, cut.initial, bits, max_vectors, full))
    # per level, the root node of each cut head, or None for a refuted head
    roots: list[dict[tuple[int, int], _CutDomain | None]] = [{} for _ in levels]

    def start(chosen: tuple[int, ...], heads: list) -> tuple[int, ...] | None:
        """First completion of `chosen` by the delta' weights, depth first;
        frame i holds the ranks still to try for weight i, which is entry
        i % kk of the block of symbol i // kk, with each level's node and
        bit prefix."""
        nodes = []
        for root, shape, head in zip(roots, shapes, heads):
            if head in root:
                node = root[head]
            else:
                node = _CutDomain(shape, [], *head)
                node = root[head] = node if node.fits([]) else None
            if node is None:
                return None
            nodes.append(node)
        frames = [(iter(value_ranks), chosen, nodes, [1] * len(nodes))]
        while frames:
            ranks, chosen, nodes, codes = frames[-1]
            for r in ranks:
                deeper = []
                for node, code, alpha in zip(nodes, codes, alphas):
                    code = 2 * code + (r >= alpha)
                    if not node.ok(code):
                        break
                    deeper.append(code)
                else:
                    chosen += (r,)
                    if len(frames) % kk == 0:
                        # the block is complete: step to the next symbol
                        if len(frames) == n_sym * kk:
                            return chosen
                        nodes = [node.child[c] for node, c in zip(nodes, deeper)]
                        deeper = [1] * len(nodes)
                    frames.append((iter(value_ranks), chosen, nodes, deeper))
                    break
            else:
                frames.pop()
        return None

    # non-decreasing pi' only, in lexicographic order; a head's masks at
    # every level come from one `_cut_table` per pi' row and eta' column
    finals = [cut.final for cut in levels]
    eta_cols = [
        (eta_col, list(map(int.__or__, finals, _cut_table(eta_col, alphas, n))))
        for eta_col in itertools.product(value_ranks, repeat=k)
    ]
    for pi_row in itertools.combinations_with_replacement(value_ranks, k):
        pi_masks = _cut_table(pi_row, alphas, n)
        for eta_col, final_masks in eta_cols:
            if max(map(min, pi_row, eta_col)) != f_lambda:
                continue
            pairs = list(zip(pi_row, eta_col))
            if pairs != sorted(pairs):
                continue
            heads = list(zip(final_masks, pi_masks))
            found = start(pi_row + eta_col, heads)
            if found is not None:
                return found
    return None


def _one_state(a: FuzzyAutomaton, max_vectors: int) -> CandidateAutomaton | None:
    """The first one-state candidate in grid order that agrees with a, or
    None.

    A one-state equivalent has min(pi', eta') = c, the input's value on the
    empty word, and min(c, delta'_s) = f(s), its value on the letter s, so
    none exists when some f(s) exceeds c.  On it every word w takes
    min(c, f(s) for each letter s of w), and so it does on (c, c, f(s) per
    symbol), the least weights, in grid order, that solve those equations;
    all of them are word values, so they occur in V and add no level to a's.
    On ranks, as the search does, the input's cut on n + 1 states
    (`_cut_mats`) and the candidate's state from `_row_tables(n, 1)` are
    checked level by level, each level counting its cut subsets from 0
    against max_vectors; the candidate is built once every level passes.
    """
    pi, eta, n = a.pi.data, a.eta.data, a.n
    c = _dot(pi, eta)
    letters = [_dot(pi, _step(eta, d.as_row_tuples())) for d in a.delta]
    if max(letters) > c:
        return None
    levels = _levels(a)
    bases = [_cut_mats([d], levels, n + 1) for d in a.delta]
    (table,), _ = _row_tables(n, 1)
    final, initial = _cut_table(eta, levels), _cut_table(pi, levels)
    for p, alpha in enumerate(levels):
        mats = [base[p] + table[f >= alpha] for base, f in zip(bases, letters)]
        one = (c >= alpha) << n
        _, mismatch, _ = _saturate_cut(
            mats, n + 1, final[p] | one, initial[p], one, 0, max_vectors
        )
        if mismatch is not None:
            return None
    return _candidate(a, 1, (c, c, *letters))


# Receives the level and the word pairs of a fooling set that refutes k.
_OnBound = Callable[[int, list[tuple[Word, Word]]], None]


def decide_k(
    inst: MinimizeInstance,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
    _on_bound: _OnBound | None = None,
    _levels: list[_Cut] | None = None,
) -> CandidateAutomaton | None:
    """First k-state equivalent over the candidate grid, or None.

    The grid is searched depth first in layout order: pi', eta', then one
    delta' block per symbol, each chunk in ascending lexicographic order by
    value rank.  Surviving leaves are therefore met in the order of the flat
    grid, and the witness is the lexicographically first grid assignment
    equivalent to the input.  Four cuts drop only assignments that cannot be
    that first witness:

    * once eta' is chosen, the empty word fixes max(min(pi', eta'));
    * renumbering the k states maps a witness to a witness, so the first one
      is the least of its renumberings: pi' is non-decreasing, and so are the
      pairs (pi'_i, eta'_i);
    * the candidate must leave room for the input: at every level, each word
      over the whole alphabet that the input's cut accepts must be accepted
      by the candidate's cut NFA with every block not yet chosen full, every
      candidate state stepping to every candidate state.  Adding
      transitions only adds words, so that NFA's language holds every
      completion's, and a prefix that fails the test has no equivalent
      completion.  The test, `_CutDomain.fits`, is one one-sided
      `_saturate_cut` call on the prefix's matrices and each later symbol's
      base with the full block, that stops at the first word the input
      accepts and the candidate rejects; past max_vectors it prunes
      nothing.  It runs on each distinct cut of
      a (pi', eta') head, once per level, before any block, where it fails
      exactly when the input's cut accepts a nonempty word and the head's
      cut has no initial or no final state; and on every block but the last
      that passes the check below;
    * once the block of symbol s is chosen, the candidate must already agree
      with the input on every word over the symbols up to s.  That check runs
      `_saturate_cut` on those symbols' cut rows at every level; after the
      last block it is the full verdict.

    A block's cut at level alpha is its k x k bit pattern (weight >= alpha),
    and the check at that level depends only on that pattern and the cut
    prefix already chosen.  So each (level, prefix) node learns once, per
    bit prefix, whether some pattern extending it passes, by checking those
    patterns in grid order up to the first that passes: at most 2**(k*k)
    kernel calls per node, kept for the whole call.  Blocks are filled
    weight by weight in ascending rank order, and a weight is dropped as
    soon as some level's bit prefix has no passing completion.  The blocks
    that survive are exactly those that checking each block on its own
    passes, in the same order, with one level or several, so the witness is
    the same.

    The steps run in one order: build the input's cut records and look for
    a fooling set; then at k = 1 return the candidate `_one_state` checks,
    or None, with no grid; or at k >= 2 refuse an oversized grid, answer a
    one-point grid, and search.  The k=1 candidate is the point this search
    would meet first among the witnesses (see `_one_state`), so the witness
    is the same; its one point is never refused for the size of the grid it
    stands for.  The alpha-cut of a k-state witness is a k-state NFA for the
    input's cut language, so the filter looks for a cut with no k-state NFA
    and answers None when one has none: each level's cut, levels
    descending, is searched for an extended fooling set of k+1 word pairs
    (see `_fooling_set`), which proves that every NFA for its language has
    more than k states.  It needs no grid, skips a cut with at most k
    states that are reachable and reach a final state, since that cut
    already is a k-state NFA, and only ever answers None, so witnesses are
    unchanged.  Then, at k >= 2, the grid is refused by `_check_grid` when
    it is larger than max_candidates (budget error carrying the count, or
    the text "<|V|>^<var_count>" past 4,300 digits), since it bounds the
    search, and so is a grid of one point (|V| = 1) whose var_count weights
    pass max_candidates.  A one-point grid is not searched: every weight of
    the input and of that point is the one value v, and every word has a
    path, so both languages are constantly v and the point is the answer.

    max_vectors bounds the cut subsets held at once, which is one level of
    one check: a level is dropped before the next starts, and it never holds
    more subsets than the pair has joint suffix vectors.  The fooling-set
    filter, charged per level, gives up silently past it, and an upper-bound
    test past it prunes nothing; a prefix check or the k=1 check past it
    raises the budget error.

    _on_bound, when given, is called with the level and the pairs of a
    fooling set that refutes k.  _levels is the input's `_cut_levels`
    records from a caller that has already looked for a fooling set on them
    (`minimize`), so a given _levels skips that filter.
    """
    a = inst.automaton
    k = inst.k
    levels = _levels
    if levels is None:
        levels = _cut_levels(a)
        bound = _fooling_bound(levels, k, k + 1, max_vectors)
        if bound is not None:
            if _on_bound is not None:
                _on_bound(*bound)
            return None
    if k == 1:
        return _one_state(a, max_vectors)
    v_ranks, var_count = _grid(inst)
    _check_grid(
        len(v_ranks), var_count, max_candidates,
        f"candidate assignments for k={k}", f"candidate weights for k={k}",
    )
    if len(v_ranks) == 1:
        return _candidate(a, k, v_ranks * var_count)
    found = _first_witness(k, v_ranks, levels, max_vectors)
    return None if found is None else _candidate(a, k, found)


def minimize(
    a: FuzzyAutomaton,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
    on_k: Callable[[MinimizeInstance], None] | None = None,
    _on_bound: _OnBound | None = None,
) -> FuzzyAutomaton:
    """Smallest equivalent automaton found by trying k = b, b + 1, ...

    A one-state input is returned at once.  Otherwise the k=1 candidate of
    `_one_state` is checked first, once; its outcome is the checked
    candidate, None, or the check's budget error.  b is the size of the
    largest extended fooling set found on any alpha-cut (see `decide_k`), or
    1.  A candidate gives a one-state NFA for every cut, so b is 1 and no
    cut levels are built; otherwise the set is looked for once, on cut
    levels built once, and those levels go to each k's `decide_k`, which
    then does not look again.  k=1, as in `decide_k`, has no grid: after
    on_k it raises the outcome's budget error or returns the candidate's
    automaton as checked, and None moves on to k=2.

    Returns the input itself when no strictly smaller realization exists
    (the input always realizes itself, so k = n needs no search, and b = n
    needs none at all).  A budget error raised at some k reports the
    smallest k left undecided.  on_k, when given, is called with each k's
    instance before that k is decided; `_on_bound`, when given, is called
    with the set that gives b when b > 1.
    """
    if a.n == 1:
        return a
    try:
        outcome: CandidateAutomaton | BudgetExceededError | None = _one_state(a, max_vectors)
    except BudgetExceededError as exc:
        outcome = exc
    start, levels = 1, None
    if not isinstance(outcome, CandidateAutomaton):
        levels = _cut_levels(a)
        bound = _fooling_bound(levels, 1, a.n, max_vectors)
        if bound is not None:
            if _on_bound is not None:
                _on_bound(*bound)
            start = len(bound[1])
    for k in range(start, a.n):
        inst = MinimizeInstance(a, k)
        if on_k is not None:
            on_k(inst)
        if k > 1:
            outcome = decide_k(
                inst, max_candidates=max_candidates, max_vectors=max_vectors, _levels=levels
            )
        elif isinstance(outcome, BudgetExceededError):
            raise outcome
        if outcome is not None:
            return outcome.automaton
    return a


def pad_states(a: FuzzyAutomaton, n_total: int) -> FuzzyAutomaton:
    """Same language on n_total states: the extra states are unreachable,
    non-accepting, and disconnected (all new weights 0)."""
    if n_total < a.n:
        raise ValueError(f"cannot pad {a.n} states down to {n_total}")
    extra = n_total - a.n
    if extra == 0:
        return a
    chain = a.chain
    pad = (0,) * extra
    pi = FuzzyMatrix(chain, 1, n_total, a.pi.data + pad)
    eta = FuzzyMatrix(chain, n_total, 1, a.eta.data + pad)
    tail = (0,) * (extra * n_total)
    delta = []
    for m in a.delta:
        data = tuple(r for row in m.as_row_tuples() for r in row + pad) + tail
        delta.append(FuzzyMatrix(chain, n_total, n_total, data))
    return FuzzyAutomaton(chain, a.alphabet, pi, eta, tuple(delta))


@dataclass(frozen=True)
class NfaView:
    """Boolean automaton read as a classical NFA: a word is accepted iff its
    value is 1."""

    automaton: FuzzyAutomaton

    def accepts(self, word: Sequence[int]) -> bool:
        a = self.automaton
        return language_value(a, word).rank == len(a.chain) - 1


def nfa_view(a: FuzzyAutomaton) -> NfaView:
    top = len(a.chain) - 1
    for m in (a.pi, a.eta, *a.delta):
        for r in m.data:
            if r not in (0, top):
                raise NonBooleanValueError(
                    f"value {a.chain.label(r)} is neither 0 nor 1"
                )
    return NfaView(a)


def cost_estimate(inst: MinimizeInstance) -> int | str:
    """The size of `decide_k`'s candidate grid, |V|**var_count, or the text
    "<|V|>^<var_count>" once it has more than 4,300 digits."""
    ranks, var_count = _grid(inst)
    return _size(len(ranks), var_count)

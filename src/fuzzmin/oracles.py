"""Brute-force reference implementations backing the acceptance suite.

Everything here trades speed for obviousness and stays structurally
independent of the code it checks: language values come from explicit path
enumeration instead of matrix folds, point solving from a plain grid walk
instead of interval algebra, NFA acceptance from the classical subset
construction, equivalence verdicts from saturating whole joint vectors
(`joint_vector_equivalent`) instead of alpha-cuts, and k-state search from
full-chain candidate grids judged by the bounded word check rather than the
fixpoint.  `is_fooling_set` checks the fooling sets behind `decide_k`'s and
`minimize`'s lower bounds on word values, never on the cut subsets they were
found with.

`decide_k_via_equations` keeps the paper's literal reduction alive: it
materializes, for every word up to a length bound, the polynomial equation
saying "the candidate's value on this word equals the input's", and greps the
same grid as `decide_k` for a satisfying point.  Agreement on every word up
to `word_bound(inst)` = |V|**(n+k) - 1 is conclusive, because the candidate's
values lie in V too, so that is an upper bound on the bounded-equivalence
length bound of the pair.  The reduction is the only user of that figure.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from .automaton import (
    FuzzyAutomaton,
    Word,
    equivalence_length_bound,
    k_equivalent,
    language_value,
    _require_compatible,
)
from .chain import Chain, ChainValue
from .equations import (
    Equation,
    EquationSystem,
    Monomial,
    Polynomial,
    Relation,
)
from .errors import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_EQUATION_BUDGET,
    DEFAULT_VECTOR_BUDGET,
    BudgetExceededError,
    _check_grid,
    _size,
)
from .minimization import (
    CandidateAutomaton,
    MinimizeInstance,
    build_candidate_space,
    decode_candidate,
    nfa_view,
)


def brute_language_value(a: FuzzyAutomaton, word: Sequence[int]) -> ChainValue:
    """Max over all state paths of the min of the weights along the path."""
    best = 0
    for path in itertools.product(range(a.n), repeat=len(word) + 1):
        w = min(a.pi.rank_at(0, path[0]), a.eta.rank_at(path[-1], 0))
        for t, s in enumerate(word):
            w = min(w, a.delta[s].rank_at(path[t], path[t + 1]))
        best = max(best, w)
    return a.chain[best]


def grid_search_point(
    system: EquationSystem, values: Sequence[ChainValue]
) -> tuple[ChainValue, ...] | None:
    """First assignment over the given values satisfying the system.

    Lexicographic in the order the values are passed, first variable most
    significant.  Evaluation is inlined on ranks instead of going through
    the solver's evaluator.
    """
    ranks = tuple(v.rank for v in values)
    compiled = [
        (tuple(m.vars for m in eq.lhs.monomials), eq.rhs.rank)
        for eq in system.equations
    ]
    chain = system.chain
    for combo in itertools.product(ranks, repeat=system.n_vars):
        for monos, target in compiled:
            if max(min(combo[i] for i in vs) for vs in monos) != target:
                break
        else:
            return tuple(chain[r] for r in combo)
    return None


def enumerate_boolean_automata(
    chain: Chain, alphabet: Sequence[str], n: int
) -> Iterator[FuzzyAutomaton]:
    """All n-state automata with entries in {0, 1}, in candidate layout order."""
    alphabet = tuple(alphabet)
    top = chain.one
    bottom = chain.zero
    var_count = 2 * n + len(alphabet) * n * n
    for bits in itertools.product((bottom, top), repeat=var_count):
        yield decode_candidate(chain, alphabet, n, bits)


@functools.lru_cache(maxsize=8)
def _boolean_candidates(
    chain: Chain, alphabet: tuple[str, ...], n: int
) -> tuple[FuzzyAutomaton, ...]:
    """`enumerate_boolean_automata`, decoded once per (chain, alphabet, n)
    and kept: 2**(2n + |alphabet| n**2) automata, 4,096 at n = 2 over two
    symbols."""
    return tuple(enumerate_boolean_automata(chain, alphabet, n))


def joint_vector_equivalent(
    a1: FuzzyAutomaton,
    a2: FuzzyAutomaton,
    *,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
) -> bool:
    """Language equality by saturating the joint suffix vectors M(x) . eta.

    Works on whole rank vectors of the block form, with no cuts: each symbol's
    matrix is the block-diagonal sum of the two automata's, the final column
    stacks both eta, and each initial row pads its pi with zeros over the
    other automaton's states.  The vectors of words up to length l+1 are those
    up to l plus every symbol matrix applied to them, and the pair is
    equivalent iff both initial rows give the same value on every vector once
    the set closes.
    """
    _require_compatible(a1, a2)
    pad1, pad2 = (0,) * a1.n, (0,) * a2.n
    sym_rows = [
        tuple(row + pad2 for row in d1.as_row_tuples())
        + tuple(pad1 + row for row in d2.as_row_tuples())
        for d1, d2 in zip(a1.delta, a2.delta)
    ]
    pi1, pi2 = a1.pi.data + pad2, pad1 + a2.pi.data
    eta = a1.eta.data + a2.eta.data

    def value(pi: tuple[int, ...], v: tuple[int, ...]) -> int:
        return max(map(min, pi, v))

    seen = {eta}
    frontier = [eta]
    while frontier:
        if any(value(pi1, v) != value(pi2, v) for v in frontier):
            return False
        new = []
        for rows in sym_rows:
            for v in frontier:
                w = tuple(value(row, v) for row in rows)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        if len(seen) > max_vectors:
            raise BudgetExceededError(len(seen), max_vectors, "joint suffix vectors")
        frontier = new
    return True


def min_nfa_states_brute(
    a: FuzzyAutomaton, *, max_vectors: int = DEFAULT_VECTOR_BUDGET
) -> int:
    """Least state count of any boolean automaton with the same language.

    Searches the full boolean grid at each k (not just the input's values)
    and judges language equality with the joint-vector saturation.  The
    input realizes itself, so k = n needs no search.
    """
    nfa_view(a)
    for k in range(1, a.n):
        for cand in _boolean_candidates(a.chain, a.alphabet, k):
            if joint_vector_equivalent(a, cand, max_vectors=max_vectors):
                return k
    return a.n


def crisp_accepts(a: FuzzyAutomaton, word: Sequence[int]) -> bool:
    """Classical subset-construction run; weights must be boolean."""
    top = len(a.chain) - 1
    current = {i for i in range(a.n) if a.pi.rank_at(0, i) == top}
    for s in word:
        m = a.delta[s]
        current = {
            j
            for j in range(a.n)
            if any(m.rank_at(i, j) == top for i in current)
        }
    return any(a.eta.rank_at(i, 0) == top for i in current)


def grid_search_k_candidate(
    inst: MinimizeInstance, *, max_pairs: int = DEFAULT_VECTOR_BUDGET
) -> FuzzyAutomaton | None:
    """First k-state equivalent over the FULL chain grid, or None.

    The candidate grid ranges over every chain value, not only the input's,
    and equivalence is judged by the bounded word check at its conclusive
    length.  Exponentially worse than `decide_k` on both axes; meant for
    desk-scale cross-checks of verdicts.
    """
    a = inst.automaton
    k = inst.k
    var_count = 2 * k + len(a.alphabet) * k * k
    everything = tuple(a.chain)
    for combo in itertools.product(everything, repeat=var_count):
        cand = decode_candidate(a.chain, a.alphabet, k, combo)
        bound = equivalence_length_bound(a, cand)
        if k_equivalent(a, cand, bound, max_pairs=max_pairs):
            return cand
    return None


def is_fooling_set(
    a: FuzzyAutomaton, alpha: int, pairs: Sequence[tuple[Word, Word]]
) -> bool:
    """True when the word pairs (x_i, y_i) form an extended fooling set of
    the cut of a at rank alpha: every x_i y_i has a value >= alpha, and for
    i != j, x_i y_j or x_j y_i has a value below it.  Judged by word values
    alone, so no NFA for that cut has fewer states than pairs."""

    def reaches(x: Word, y: Word) -> bool:
        return language_value(a, x + y).rank >= alpha

    return all(reaches(x, y) for x, y in pairs) and all(
        not reaches(x1, y2) or not reaches(x2, y1)
        for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2)
    )


def all_words_up_to(n_sym: int, max_len: int) -> Iterator[Word]:
    """Every word over n_sym symbols of length <= max_len, length-lex order."""
    for length in range(max_len + 1):
        yield from itertools.product(range(n_sym), repeat=length)


def word_bound(inst: MinimizeInstance) -> int:
    """|V|**(n+k) - 1: agreement on every word up to this length decides
    whether a candidate on the grid of `decide_k` is equivalent."""
    space = build_candidate_space(inst)
    return len(space.values) ** (inst.automaton.n + inst.k) - 1


def decide_k_via_equations(
    inst: MinimizeInstance,
    max_len: int,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_equations: int = DEFAULT_EQUATION_BUDGET,
) -> CandidateAutomaton | None:
    """Literal reduction: materialize one equation per word, grid-search points.

    The unknowns are the candidate's weights in the `decode_candidate` layout.
    For a word x, the candidate's value is the max over state paths of the min
    of the weights along the path, a polynomial with one monomial per path;
    the equation pins it to the input automaton's value on x.  With
    max_len = word_bound(inst) the verdict matches `decide_k`; smaller bounds
    give a necessary but not sufficient check.  The word count is exponential
    in max_len, and so is the path count of each word; max_equations bounds
    the words and, separately, the monomials of all of them together.
    """
    space = build_candidate_space(inst)
    a = inst.automaton
    k = inst.k
    base = len(space.values)
    if not 0 <= max_len <= word_bound(inst):
        shown = _size(base, a.n + k, less=1)
        raise ValueError(f"word length bound must lie in [0, {shown}], got {max_len}")
    n_sym = len(a.alphabet)
    total_words = total_monomials = 0
    for length in range(max_len + 1):
        total_words += n_sym**length
        if total_words > max_equations:
            raise BudgetExceededError(
                total_words, max_equations, "materialized word equations"
            )
        # one monomial per state path: k**(length + 1) for each word
        total_monomials += n_sym**length * k ** (length + 1)
        if total_monomials > max_equations:
            raise BudgetExceededError(
                total_monomials, max_equations, "materialized monomials"
            )
    _check_grid(
        base, space.var_count, max_candidates,
        f"candidate assignments for k={k}", f"candidate weights for k={k}",
    )

    kk = k * k

    def delta_var(sym: int, row: int, col: int) -> int:
        return 2 * k + sym * kk + row * k + col

    equations = []
    for word in all_words_up_to(n_sym, max_len):
        monomials = []
        for path in itertools.product(range(k), repeat=len(word) + 1):
            vs = {path[0], k + path[-1]}
            for t, sym in enumerate(word):
                vs.add(delta_var(sym, path[t], path[t + 1]))
            monomials.append(Monomial(tuple(vs)))
        equations.append(
            Equation(Polynomial(tuple(monomials)), Relation.EQ, language_value(a, word))
        )
    system = EquationSystem(a.chain, space.var_count, tuple(equations))
    combo = grid_search_point(system, space.values)
    if combo is None:
        return None
    return CandidateAutomaton(combo, decode_candidate(a.chain, a.alphabet, k, combo))

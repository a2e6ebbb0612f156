"""Decision procedure for exact state minimization of fuzzy automata.

Whether a given automaton has an equivalent realization on k states is
decidable by brute force over a finite grid: if any k-state equivalent
exists, one exists whose initial, final, and transition weights are all drawn
from V, the set of values occurring in the input automaton.  `decide_k`
enumerates that grid and tests each candidate with the fixpoint equivalence
checker; `minimize` walks k upward and returns the first winner, or the input
itself when nothing smaller works.

Automata whose values are all 0 or 1 are classical NFAs under the reading
"accepted iff value 1"; `nfa_view` exposes that reading, and minimization on
such automata is exactly NFA state minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .automaton import (
    DEFAULT_VECTOR_BUDGET,
    FuzzyAutomaton,
    language_value,
    _quick_equivalent,
)
from .chain import Chain, ChainValue
from .errors import BudgetExceededError, NonBooleanValueError
from .linalg import FuzzyMatrix

DEFAULT_CANDIDATE_BUDGET = 10_000_000


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
    d: the value-diversity figure entering the analysis, |V| + |alphabet|*k**2 + k.
    word_bound: |V|**(n+k) - 1, the conclusive agreement length.
    """

    values: tuple[ChainValue, ...]
    var_count: int
    d: int
    word_bound: int


def build_candidate_space(inst: MinimizeInstance) -> CandidateSpace:
    a = inst.automaton
    k = inst.k
    ranks = set(a.pi.data) | set(a.eta.data)
    for m in a.delta:
        ranks.update(m.data)
    values = tuple(a.chain[r] for r in sorted(ranks))
    n_sym = len(a.alphabet)
    var_count = 2 * k + n_sym * k * k
    d = len(values) + n_sym * k * k + k
    word_bound = len(values) ** (a.n + k) - 1
    return CandidateSpace(values, var_count, d, word_bound)


@dataclass(frozen=True)
class CandidateAutomaton:
    """A grid assignment together with the k-state automaton it decodes to."""

    assignment: tuple[ChainValue, ...]
    automaton: FuzzyAutomaton


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
        if v.chain != chain:
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


def encode_automaton(a: FuzzyAutomaton) -> tuple[ChainValue, ...]:
    """Inverse of `decode_candidate` for automata of any size."""
    ranks = a.pi.data + a.eta.data
    for m in a.delta:
        ranks += m.data
    return tuple(a.chain[r] for r in ranks)


def decide_k(
    inst: MinimizeInstance,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
) -> CandidateAutomaton | None:
    """First k-state equivalent over the candidate grid, or None.

    Candidates are enumerated lexicographically by value rank in layout order,
    so the witness is deterministic.  Refuses up front (budget error carrying
    the count) when the grid is larger than max_candidates.
    """
    space = build_candidate_space(inst)
    total = len(space.values) ** space.var_count
    if total > max_candidates:
        raise BudgetExceededError(
            total, max_candidates, f"candidate assignments for k={inst.k}"
        )
    a = inst.automaton
    k = inst.k
    n = a.n
    n_sym = len(a.alphabet)
    v_ranks = tuple(v.rank for v in space.values)
    pi1 = a.pi.data
    eta1 = a.eta.data
    zeros_left = (0,) * n
    zeros_right = (0,) * k
    left_rows = [
        tuple(row + zeros_right for row in d.as_row_tuples()) for d in a.delta
    ]
    pi1_ext = pi1 + zeros_right
    f_lambda = max(map(min, pi1, eta1))
    kk = k * k
    for assignment in itertools.product(v_ranks, repeat=space.var_count):
        pi2 = assignment[:k]
        eta2 = assignment[k : 2 * k]
        # cheap filter: the empty word already fixes pi' . eta'
        if max(map(min, pi2, eta2)) != f_lambda:
            continue
        sym_rows = []
        for s in range(n_sym):
            base = 2 * k + s * kk
            right = tuple(
                zeros_left + assignment[base + r * k : base + (r + 1) * k]
                for r in range(k)
            )
            sym_rows.append(left_rows[s] + right)
        if _quick_equivalent(
            sym_rows, eta1 + eta2, pi1_ext, zeros_left + pi2, max_vectors
        ):
            values = tuple(a.chain[r] for r in assignment)
            return CandidateAutomaton(
                values, decode_candidate(a.chain, a.alphabet, k, values)
            )
    return None


def minimize(
    a: FuzzyAutomaton,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
) -> FuzzyAutomaton:
    """Smallest equivalent automaton found by trying k = 1, 2, ...

    Returns the input itself when no strictly smaller realization exists (the
    input always realizes itself, so k = n needs no search).  A budget error
    raised at some k reports the smallest k left undecided.
    """
    for k in range(1, a.n):
        witness = decide_k(
            MinimizeInstance(a, k),
            max_candidates=max_candidates,
            max_vectors=max_vectors,
        )
        if witness is not None:
            return witness.automaton
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
    delta = []
    for m in a.delta:
        data: tuple[int, ...] = ()
        for i in range(a.n):
            data += m.row_ranks(i) + pad
        data += (0,) * (extra * n_total)
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


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work figures for `decide_k`; informational only.

    candidate_count is the grid size, word_bound the conclusive agreement
    length, equation_count the number of words up to that length (None when
    too large to materialize as an integer), predicted_ops the literal
    reduction's operation count candidate_count * N * k**2 + N * n**2.
    """

    candidate_count: int
    word_bound: int
    equation_count: int | None
    predicted_ops: int | None


def cost_estimate(inst: MinimizeInstance, *, exact_limit: int = 4096) -> CostEstimate:
    space = build_candidate_space(inst)
    a = inst.automaton
    k = inst.k
    n_sym = len(a.alphabet)
    candidates = len(space.values) ** space.var_count
    c = space.word_bound
    if n_sym == 1:
        n_words: int | None = c + 1
    elif c <= exact_limit:
        n_words = (n_sym ** (c + 1) - 1) // (n_sym - 1)
    else:
        n_words = None
    ops = None if n_words is None else candidates * n_words * k * k + n_words * a.n * a.n
    return CostEstimate(candidates, c, n_words, ops)

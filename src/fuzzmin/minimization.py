"""Decision procedure for exact state minimization of fuzzy automata.

Whether a given automaton has an equivalent realization on k states is
decidable by brute force over a finite grid: if any k-state equivalent
exists, one exists whose initial, final, and transition weights are all drawn
from V, the set of values occurring in the input automaton.  `decide_k`
enumerates that grid and tests each candidate on the alpha-cuts with the
kernel `equivalent_fixpoint` uses; `minimize` walks k upward and returns the
first winner, or the input itself when nothing smaller works.

Automata whose values are all 0 or 1 are classical NFAs under the reading
"accepted iff value 1"; `nfa_view` exposes that reading, and minimization on
such automata is exactly NFA state minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .automaton import (
    DEFAULT_VECTOR_BUDGET,
    FuzzyAutomaton,
    language_value,
    _cut_mask,
    _cut_rows,
    _levels,
    _saturate_cut,
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
    word_bound: |V|**(n+k) - 1, the conclusive agreement length.
    """

    values: tuple[ChainValue, ...]
    var_count: int
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
    word_bound = len(values) ** (a.n + k) - 1
    return CandidateSpace(values, var_count, word_bound)


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


def _cut_verdict(
    a: FuzzyAutomaton, k: int, v_ranks: Sequence[int], max_vectors: int
) -> Callable[[tuple[int, ...]], bool]:
    """Equivalence of `a` to one grid assignment, decided on the alpha-cuts.

    The input's cut rows are built once per level.  A candidate adds its k
    rows per symbol, shifted past the input's n states, and each level runs
    `_saturate_cut` until the first mismatch.  Candidate values lie in V, so
    the positive ranks of V are all the levels the pair needs.
    """
    n = a.n
    kk = k * k
    block_starts = range(2 * k, 2 * k + len(a.alphabet) * kk, kk)
    levels = []
    for alpha in _levels(a):
        # cut mask of every k-tuple over V, placed on the candidate's states
        masks = {
            row: _cut_mask(row, alpha) << n
            for row in itertools.product(v_ranks, repeat=k)
        }
        left = [_cut_rows(d, alpha) for d in a.delta]
        levels.append(
            (masks, left, _cut_mask(a.eta.data, alpha), _cut_mask(a.pi.data, alpha))
        )

    def verdict(assignment: tuple[int, ...]) -> bool:
        pi2 = assignment[:k]
        eta2 = assignment[k : 2 * k]
        blocks = [
            [assignment[i : i + k] for i in range(start, start + kk, k)]
            for start in block_starts
        ]
        for masks, left, eta1, pi1 in levels:
            rows = [
                rows1 + tuple(map(masks.__getitem__, block))
                for rows1, block in zip(left, blocks)
            ]
            _, mismatch, _ = _saturate_cut(
                rows, eta1 | masks[eta2], pi1, masks[pi2], 0, max_vectors, exhaust=False
            )
            if mismatch is not None:
                return False
        return True

    return verdict


def decide_k(
    inst: MinimizeInstance,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_vectors: int = DEFAULT_VECTOR_BUDGET,
) -> CandidateAutomaton | None:
    """First k-state equivalent over the candidate grid, or None.

    Candidates are enumerated lexicographically by value rank in layout order,
    so the witness is deterministic.  Refuses up front (budget error carrying
    the count) when the grid is larger than max_candidates.  max_vectors bounds
    the cut subsets held at once, which is one level of one candidate: a level
    is dropped before the next starts, and it never holds more subsets than
    the candidate pair has joint suffix vectors.
    """
    space = build_candidate_space(inst)
    total = len(space.values) ** space.var_count
    if total > max_candidates:
        raise BudgetExceededError(
            total, max_candidates, f"candidate assignments for k={inst.k}"
        )
    a = inst.automaton
    k = inst.k
    v_ranks = tuple(v.rank for v in space.values)
    f_lambda = max(map(min, a.pi.data, a.eta.data))
    verdict = _cut_verdict(a, k, v_ranks, max_vectors)
    for assignment in itertools.product(v_ranks, repeat=space.var_count):
        # cheap filter: the empty word already fixes pi' . eta'
        if max(map(min, assignment[:k], assignment[k : 2 * k])) != f_lambda:
            continue
        if verdict(assignment):
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
    """Work figures for `decide_k`; informational only.

    candidate_count is the grid size and word_bound the conclusive agreement
    length.
    """

    candidate_count: int
    word_bound: int


def cost_estimate(inst: MinimizeInstance) -> CostEstimate:
    space = build_candidate_space(inst)
    return CostEstimate(len(space.values) ** space.var_count, space.word_bound)

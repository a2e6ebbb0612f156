"""The k-state decision procedure and exact minimization."""

from __future__ import annotations

import functools
import itertools
import random
import sys

import pytest

import fuzzmin as fz
from fuzzmin import (
    BudgetExceededError,
    Chain,
    MinimizeInstance,
    NonBooleanValueError,
    build_candidate_space,
    decide_k,
    decode_candidate,
    minimize,
    nfa_view,
    pad_states,
)
from fuzzmin.minimization import (
    _cut_levels,
    _fooling_bound,
    _grid,
    _one_state,
    cost_estimate,
)
from fuzzmin.oracles import (
    all_words_up_to,
    crisp_accepts,
    decide_k_via_equations,
    is_fooling_set,
    joint_vector_equivalent,
    min_nfa_states_brute,
    word_bound,
)

from helpers import (
    BEYOND_CUTS,
    automaton,
    boolean_cut,
    criterion4_instance,
    criterion6_corpus,
    cut_mask,
    first_by_flat_scan,
    minimize_benchmark_automata,
    minimize_benchmark_ops,
    permutation_pair,
    positive_ranks,
    reference_fooling_set,
    reference_joint,
    reference_later_full,
    sparse_draw,
)

# two interchangeable states: collapses to one
DUP = automaton(
    Chain(("0", "0.6", "0.8", "1")),
    "a",
    ["0.8", "0.8"],
    ["0.8", "0.8"],
    [[["0.6", "0.6"], ["0.6", "0.6"]]],
)

# f(a^k) = 1, 0.5, 0.8, 0, 0, ...: provably needs all three states
NONMONO = automaton(
    Chain(("0", "0.5", "0.8", "1")),
    "a",
    ["1", "0", "0"],
    ["1", "0.5", "0.8"],
    [[["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
)


def test_instance_rejects_zero_states():
    with pytest.raises(ValueError):
        MinimizeInstance(DUP, 0)


def test_candidate_space_figures():
    space = build_candidate_space(MinimizeInstance(DUP, 1))
    assert [v.label for v in space.values] == ["0.6", "0.8"]
    assert space.var_count == 3
    assert word_bound(MinimizeInstance(DUP, 1)) == 7


def test_candidate_space_counts_initial_weights():
    # the length bound for a pair ignores initial weights; the grid must not
    ch3 = Chain(("0", "0.5", "1"))
    a = automaton(ch3, "a", ["0.5"], ["1"], [[["1"]]])
    space = build_candidate_space(MinimizeInstance(a, 1))
    assert [v.label for v in space.values] == ["0.5", "1"]
    assert fz.equivalence_length_bound(a, a) == 0


def test_cost_figures():
    assert cost_estimate(MinimizeInstance(DUP, 1)) == 8
    ch5 = Chain(("0", "0.25", "0.5", "0.75", "1"))
    wide = automaton(
        ch5,
        "ab",
        ["0", "0.25", "0.5", "0.75"],
        ["1", "0", "0", "0"],
        [
            [["0"] * 4] * 4,
            [["0"] * 4] * 4,
        ],
    )
    assert cost_estimate(MinimizeInstance(wide, 2)) == 5**12


def test_sizes_past_the_digit_limit_are_written_as_powers():
    size = fz.errors._size
    assert size(10, 4299) == 10**4299  # 4,300 digits
    assert size(10, 4300) == "10^4300"
    assert size(5, 10**12) == "5^1000000000000"
    assert size(1, 10**12) == 1
    check = fz.errors._check_grid
    check(2, 23, 2**23, "grid", "point")
    check(3, 15, 3**15, "grid", "point")
    check(1, 10**7, 10**7, "grid", "point")  # one point of exactly limit values
    for base, exp, limit, count, context in [
        (2, 24, 2**24 - 1, 2**24, "grid"),
        (3, 15, 3**15 - 1, 3**15, "grid"),
        (5, 10**12, 10**7, "5^1000000000000", "grid"),
        # a grid of one point is refused on its values
        (1, 10**7 + 1, 10**7, 10**7 + 1, "point"),
        (1, 10**12, 1, 10**12, "point"),
        # with two values or more the points are counted first
        (2, 30, 29, 2**30, "grid"),
    ]:
        with pytest.raises(BudgetExceededError) as refused:
            check(base, exp, limit, "grid", "point")
        assert (refused.value.count, refused.value.limit) == (count, limit)
        assert str(refused.value) == f"size {count} exceeds budget {limit} ({context})"


def test_sizes_take_a_subtrahend_and_bound_an_exponent_too_long_to_write():
    size = fz.errors._size
    assert size(3, 15) == 3**15
    assert size(5, 7320) == "5^7320"
    assert size(3, 15, less=1) == 3**15 - 1
    assert size(5, 7320, less=1) == "5^7320-1"
    # an exponent of more than 4,300 digits cannot be written out either
    assert size(2, 10**4300 - 1) == f"2^{10**4300 - 1}"
    assert size(2, 10**4300) == "at least 10^4300"
    assert size(5, 10**4400, less=1) == "at least 10^4300"
    assert size(1, 10**4400) == 1


def test_decide_k_finds_the_one_state_collapse():
    witness = decide_k(MinimizeInstance(DUP, 1))
    assert witness is not None
    assert [v.label for v in witness.assignment] == ["0.8", "0.8", "0.6"]
    assert witness.automaton.n == 1
    assert fz.equivalent_fixpoint(DUP, pad_states(witness.automaton, 2)).equivalent


def test_decide_k_refuses_oversized_grids():
    with pytest.raises(BudgetExceededError) as info:
        decide_k(MinimizeInstance(DUP, 2), max_candidates=7)
    assert info.value.count == 256
    assert info.value.limit == 7
    # k=1 has no grid: its one point is checked under the same cap
    assert decide_k(MinimizeInstance(DUP, 1), max_candidates=7).automaton.n == 1


def test_the_fooling_set_is_looked_for_before_the_grid_is_refused(monkeypatch):
    order = []
    bound, check = fz.minimization._fooling_bound, fz.minimization._check_grid

    def spy_bound(*args):
        order.append("bound")
        return bound(*args)

    def spy_check(*args):
        order.append("grid")
        return check(*args)

    monkeypatch.setattr(fz.minimization, "_fooling_bound", spy_bound)
    monkeypatch.setattr(fz.minimization, "_check_grid", spy_check)
    # NONMONO's 3 fooling pairs refute k=2 under a one-point grid budget
    assert decide_k(MinimizeInstance(NONMONO, 2), max_candidates=1) is None
    assert order == ["bound"]
    # k=1 has no grid to refuse: the one-state check follows the bound
    order.clear()
    assert decide_k(MinimizeInstance(DUP, 1)) is not None
    assert order == ["bound"]
    order.clear()
    assert decide_k(MinimizeInstance(DUP, 2)) is not None
    assert order == ["bound", "grid"]
    # a given _levels means the caller has looked for a fooling set already
    order.clear()
    assert decide_k(MinimizeInstance(DUP, 2), _levels=_cut_levels(DUP)) is not None
    with pytest.raises(BudgetExceededError):
        decide_k(MinimizeInstance(NONMONO, 2), max_candidates=1, _levels=_cut_levels(NONMONO))
    assert order == ["grid", "grid"]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_a_one_value_automaton_is_answered_by_its_constant(size):
    # every weight is v, so both languages are constantly v: decide_k returns
    # the constant k-state automaton, and the fixpoint agrees
    chain = Chain(fz.random_chain_labels(random.Random(size), size))
    for v, n_sym, n in itertools.product(chain, (1, 2, 3), (1, 2, 3, 4)):
        alphabet = "abc"[:n_sym]
        a = decode_candidate(chain, alphabet, n, [v] * (2 * n + n_sym * n * n))
        for k in (1, 2, 3, 4):
            witness = decide_k(MinimizeInstance(a, k))
            constant = decode_candidate(chain, alphabet, k, [v] * (2 * k + n_sym * k * k))
            assert witness.automaton == constant
            assert fz.equivalent_fixpoint(a, constant).equivalent


def test_decide_k_budget_binds_in_an_alphabet_prefix_check(monkeypatch):
    # the first check of every candidate sees symbol a's rows only; with room
    # for one cut subset it already refuses, before any block of b is chosen.
    # The head's root check runs first, on both symbols with every block
    # full, and past the budget decides nothing
    ch2 = Chain(("0", "1"))
    a = automaton(
        ch2,
        "ab",
        ["1", "0"],
        ["0", "1"],
        [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "1"]]],
    )
    symbols_seen = []
    refusals = []
    kernel = fz.minimization._saturate_cut

    def spy(rows, n, final, pi1, pi2, *args):
        # the fooling-set bound saturates whole cuts first, with no initial
        # states on either side, and gives up
        if pi1 or pi2:
            symbols_seen.append(len(rows))
        try:
            return kernel(rows, n, final, pi1, pi2, *args)
        except BudgetExceededError as exc:
            refusals.append((len(rows), exc))
            raise

    monkeypatch.setattr(fz.minimization, "_saturate_cut", spy)
    with pytest.raises(BudgetExceededError) as info:
        decide_k(MinimizeInstance(a, 2), max_vectors=1)
    assert (info.value.count, info.value.limit) == (2, 1)
    assert symbols_seen == [2, 1]
    # the root check's refusal is swallowed; the one raised is the prefix's
    assert [size for size, _ in refusals] == [2, 1]
    assert refusals[-1][1] is info.value
    # k=1 is answered in closed form: f(a) = 1 exceeds f(λ) = 0, so no
    # one-state automaton agrees, and no check runs
    symbols_seen.clear()
    assert decide_k(MinimizeInstance(a, 1), max_vectors=1) is None
    assert symbols_seen == []


# k=1 in closed form: the one candidate a one-state equivalent can be first


def _searched_one_state(a, max_vectors=fz.errors.DEFAULT_VECTOR_BUDGET):
    """The general search's k=1 answer, as ranks: `_first_witness` over the
    input's values and levels, the referee of `_one_state`."""
    v_ranks, _ = _grid(MinimizeInstance(a, 1))
    return fz.minimization._first_witness(1, v_ranks, _cut_levels(a), max_vectors)


def _one_state_ranks(a, max_vectors):
    """The ranks of `_one_state`'s assignment, or None when it finds none;
    the automaton it returns is that assignment decoded."""
    found = _one_state(a, max_vectors)
    if found is None:
        return None
    assert found.automaton == decode_candidate(a.chain, a.alphabet, 1, found.assignment)
    return tuple(v.rank for v in found.assignment)


# gen_automaton shapes (states, symbols, chain size): one symbol and several,
# one positive level (chain size 2) and several
ONE_STATE_SHAPES = [
    (2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 3, 2), (2, 1, 4),
    (3, 1, 5), (3, 2, 3), (4, 2, 4), (2, 3, 3), (5, 2, 6),
]


def _one_state_corpus():
    """(name, automaton) for criterion 6's boolean automata, 100 draws of
    each shape and the `minimize` benchmark's inputs; inputs whose values
    are all 0 have no positive level and no search, and are left out."""
    corpora = [
        ("criterion-6", (a for a, _ in criterion6_corpus())),
        ("draws", (
            fz.gen_automaton(100 * i + g, *shape)
            for i, shape in enumerate(ONE_STATE_SHAPES)
            for g in range(100)
        )),
        ("minimize-base", minimize_benchmark_automata()),
    ]
    for name, automata in corpora:
        yield from ((name, a) for a in automata if positive_ranks(a))


def test_the_one_state_answer_is_the_searched_first_witness():
    # the closed form against the general search at k=1, same assignment or
    # both None, counted per corpus as (inputs, one-state, one-state on
    # several levels)
    counts = {}
    budget = fz.errors.DEFAULT_VECTOR_BUDGET
    for name, a in _one_state_corpus():
        got = _one_state_ranks(a, budget)
        assert got == _searched_one_state(a), (name, a)
        seen = counts.setdefault(name, [0, 0, 0])
        seen[0] += 1
        seen[1] += got is not None
        seen[2] += got is not None and len(positive_ranks(a)) > 1
    assert counts["criterion-6"][:2] == [4210, 3155]
    assert counts["draws"] == [999, 614, 330]
    assert counts["minimize-base"] == [101, 77, 35]
    # and decide_k's k=1 answer is that assignment, decoded
    for a in (DUP, NONMONO, BEYOND_CUTS):
        got = _assignment(decide_k(MinimizeInstance(a, 1)))
        assert (got and tuple(v.rank for v in got)) == _searched_one_state(a)


def test_the_one_state_check_fits_every_budget_the_search_fits():
    # each level's cut subsets are counted from 0, as in the search, whose
    # last check of the witness is the same kernel call: a budget the search
    # answers within, the closed form answers within too.  Counted: the
    # several-level inputs whose least such budget gives a witness, and those
    # among them where that budget is below all levels' subsets together
    answered = tight = 0
    for name, a in _one_state_corpus():
        if name == "criterion-6" or len(positive_ranks(a)) < 2:
            continue
        for max_vectors in range(1, 64):
            try:
                searched = _searched_one_state(a, max_vectors)
            except BudgetExceededError:
                continue
            if searched is not None:
                answered += 1
                assert _one_state_ranks(a, max_vectors) == searched, (a, max_vectors)
                # the fixpoint counts every level's subsets together
                values = list(map(a.chain.__getitem__, searched))
                one = decode_candidate(a.chain, a.alphabet, 1, values)
                tight += max_vectors < len(fz.equivalent_fixpoint(a, one).reached)
            break
    assert (answered, tight) == (365, 333)


def test_a_wide_one_state_check_keeps_the_answer():
    # padded to n states, the check runs on n + 1: packed at 32, and past
    # the packing cutoff, as tuples of rows, at 33 and 41; the padding adds 0
    # weights on unreachable states, so the language, f(λ) and every
    # letter's value stay
    budget = fz.errors.DEFAULT_VECTOR_BUDGET
    answers = []
    for a in [DUP, NONMONO, *minimize_benchmark_automata()[::10]]:
        answers.append(_one_state(a, budget))
        for n in (31, 32, 40):
            assert _one_state(pad_states(a, n), budget) == answers[-1], (a, n)
    assert [w is not None for w in answers].count(False) == 4


def test_minimize_answers_a_one_state_collapse_before_the_bound(monkeypatch):
    # DUP collapses: no cut records, no fooling-set search, no witness search,
    # but on_k still sees k=1; k=1 has no grid, so no cap refuses it
    called = []
    for name in ("_cut_levels", "_fooling_bound", "_first_witness"):
        real = getattr(fz.minimization, name)

        def spy(*args, real=real, name=name):
            called.append(name)
            return real(*args)

        monkeypatch.setattr(fz.minimization, name, spy)
    tried = []
    small = minimize(DUP, on_k=lambda inst: tried.append(inst.k))
    assert (small.n, tried, called) == (1, [1], [])
    tried.clear()
    assert minimize(DUP, max_candidates=7, on_k=lambda inst: tried.append(inst.k)) == small
    assert (tried, called) == ([1], [])
    # a budget error in the closed form leaves k=1 undecided: the bound is
    # looked for, and k=1 is then refused with that same error
    tried.clear()
    with pytest.raises(BudgetExceededError) as info:
        minimize(DUP, max_vectors=1, on_k=lambda inst: tried.append(inst.k))
    assert (info.value.count, info.value.limit) == (2, 1)
    assert called == ["_cut_levels", "_fooling_bound"] and tried == [1]
    assert small == decide_k(MinimizeInstance(DUP, 1)).automaton


def test_minimize_returns_a_one_state_input_at_once(monkeypatch):
    # no k is below one state, so there is nothing to check or bound
    called = []
    for name in ("_one_state", "_cut_levels", "_fooling_bound"):
        real = getattr(fz.minimization, name)

        def spy(*args, real=real, name=name):
            called.append(name)
            return real(*args)

        monkeypatch.setattr(fz.minimization, name, spy)
    a = fz.gen_automaton(0, 1, 2, 3)
    tried = []
    assert minimize(a, on_k=tried.append) is a
    assert (called, tried) == ([], [])


def test_minimize_runs_the_one_state_check_once(monkeypatch):
    # gen_automaton(1, 3, 2, 3) has no fooling set that skips k=1.  Under
    # max_vectors=1 its one-state check exceeds the budget; minimize then
    # calls on_k for k=1 and raises that same error, whatever max_candidates,
    # without checking the point again
    a = fz.gen_automaton(1, 3, 2, 3)
    calls, raised, tried = [], [], []
    one_state = fz.minimization._one_state

    def spy(*args):
        calls.append(args[0])
        try:
            return one_state(*args)
        except BudgetExceededError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(fz.minimization, "_one_state", spy)
    with pytest.raises(BudgetExceededError) as info:
        minimize(a, max_vectors=1, on_k=lambda inst: tried.append(inst.k))
    assert (info.value.count, info.value.limit, info.value.context) == (2, 1, "cut subsets")
    assert (calls, raised, tried) == ([a], [info.value], [1])
    calls.clear()
    with pytest.raises(BudgetExceededError) as info:
        minimize(a, max_vectors=1, max_candidates=80)
    assert (info.value.count, info.value.limit, info.value.context) == (2, 1, "cut subsets")
    assert len(calls) == 1
    # a one-value input has no one-point shortcut at k=1: with room it
    # collapses to its constant, and with no room at all the check refuses
    chain = Chain(("0", "0.5", "1"))
    constant = decode_candidate(chain, "ab", 2, [chain.value("0.5")] * 12)
    small = decode_candidate(chain, "ab", 1, [chain.value("0.5")] * 4)
    assert minimize(constant) == small
    calls.clear()
    raised.clear()
    with pytest.raises(BudgetExceededError) as info:
        minimize(constant, max_vectors=0)
    assert calls == [constant] and raised == [info.value]
    # a check that refutes k=1 is not repeated either
    calls.clear()
    monkeypatch.setattr(fz.minimization, "_fooling_bound", lambda *args: None)
    minimize(BEYOND_CUTS, on_k=lambda inst: tried.append(inst.k))
    assert calls == [BEYOND_CUTS] and tried[-2:] == [1, 2]


# the cut filter: one alpha-cut with no k-state NFA rules k out


def test_every_empty_answer_on_several_levels_has_a_cut_needing_more_states():
    # the referee decides NFA minimality on joint vectors, not on cut subsets
    insts = [criterion4_instance(seed) for seed in range(3000, 3200)]
    insts += [
        MinimizeInstance(a, k)
        for a in minimize_benchmark_automata()
        for k in range(1, a.n)
    ]
    empty = 0
    for inst in insts:
        a, k = inst.automaton, inst.k
        levels = positive_ranks(a)
        if len(levels) < 2 or decide_k(inst) is not None:
            continue
        empty += 1
        assert any(
            min_nfa_states_brute(boolean_cut(a, alpha)) > k for alpha in levels
        ), inst
    assert empty >= 15


def test_a_cut_with_no_k_state_nfa_is_refuted_by_one_search(monkeypatch):
    # NONMONO's lowest cut, at 0.5, accepts exactly {λ, a, aa}, which no
    # 2-state NFA does; the fooling-set bound would say so first, but a
    # given _levels means the caller has looked for one already, so one
    # search over V, on every level at once, comes back empty, as the flat
    # scan does
    searched = []
    search = fz.minimization._first_witness

    def spy(k, value_ranks, *args):
        searched.append(value_ranks)
        return search(k, value_ranks, *args)

    monkeypatch.setattr(fz.minimization, "_first_witness", spy)
    inst = MinimizeInstance(NONMONO, 2)
    assert decide_k(inst, _levels=_cut_levels(NONMONO)) is None
    assert searched == [(0, 1, 2, 3)]
    assert first_by_flat_scan(inst) is None
    # without _levels the fooling set answers, and k=1 is answered in
    # closed form: neither searches
    searched.clear()
    assert decide_k(inst) is None
    witness = decide_k(MinimizeInstance(DUP, 1))
    assert [v.label for v in witness.assignment] == ["0.8", "0.8", "0.6"]
    assert searched == []
    # the one-state check's own refusal
    with pytest.raises(BudgetExceededError) as info:
        decide_k(MinimizeInstance(NONMONO, 1), max_vectors=3)
    assert (info.value.count, info.value.limit) == (4, 3)
    assert info.value.context == "cut subsets"


@pytest.mark.parametrize(
    "seed, k, checked",
    [pytest.param(3, 1, [2, 1], id="3-1"), pytest.param(0, 2, [2, 1], id="0-2")],
)
def test_a_cut_with_at_most_k_trimmed_states_is_not_searched(seed, k, checked, monkeypatch):
    # 3-state unary draws on chain 4 (levels 1, 2, 3): the cuts at levels 1
    # and 2 keep more than k states that are reachable and reach a final
    # state, the cut at level 3 keeps at most k.  The fooling-set filter
    # looks on the checked levels, descending, and skips the others
    a = fz.gen_automaton(seed, 3, 1, 4)
    inst = MinimizeInstance(a, k)
    assert positive_ranks(a) == [1, 2, 3]
    assert min_nfa_states_brute(boolean_cut(a, 3)) <= k
    searched = []
    fooling_set = fz.minimization._fooling_set

    def spy(cut, floor, limit, max_vectors):
        searched.append((cut.rows, cut.final, cut.initial))
        return fooling_set(cut, floor, limit, max_vectors)

    def cut(alpha):
        rows = [
            tuple(
                sum(1 << j for j in range(a.n) if d.rank_at(i, j) >= alpha)
                for i in range(a.n)
            )
            for d in a.delta
        ]
        masks = [cut_mask(m.data, alpha) for m in (a.eta, a.pi)]
        return (rows, *masks)

    monkeypatch.setattr(fz.minimization, "_fooling_set", spy)
    witness = decide_k(inst)
    assert searched == list(map(cut, checked))
    # with every cut counted as all of its states, every level is searched
    searched.clear()
    cut_levels = fz.minimization._cut_levels
    monkeypatch.setattr(
        fz.minimization,
        "_cut_levels",
        lambda a: [c._replace(trimmed=a.n) for c in cut_levels(a)],
    )
    unskipped = decide_k(inst)
    assert searched == list(map(cut, [3, 2, 1]))
    assert witness.assignment == unskipped.assignment


def test_each_cut_record_matches_its_edges():
    # rows and back read the same edges in both directions, and trimmed is
    # the count of states on a path from an initial state to a final one,
    # walked here over rank_at edges as sets of states
    for g in range(60):
        a = fz.gen_automaton(g, 2 + g % 4, 1 + g % 3, 2 + g % 4)
        cuts = _cut_levels(a)
        assert [c.alpha for c in cuts] == positive_ranks(a)
        for c in cuts:
            edges = {
                (i, s, j)
                for s, d in enumerate(a.delta)
                for i in range(a.n)
                for j in range(a.n)
                if d.rank_at(i, j) >= c.alpha
            }
            for s in range(len(a.delta)):
                for i in range(a.n):
                    assert c.rows[s][i] == sum(1 << j for j in range(a.n) if (i, s, j) in edges)
                    assert c.back[s][i] == sum(1 << j for j in range(a.n) if (j, s, i) in edges)
            initial = {q for q in range(a.n) if a.pi.rank_at(0, q) >= c.alpha}
            final = {q for q in range(a.n) if a.eta.rank_at(q, 0) >= c.alpha}
            assert c.initial == sum(1 << q for q in initial)
            assert c.final == sum(1 << q for q in final)
            forward, backward = set(initial), set(final)
            for _ in range(a.n):
                forward |= {j for i, _, j in edges if i in forward}
                backward |= {i for i, _, j in edges if j in backward}
            assert c.trimmed == len(forward & backward), (g, c.alpha)


def test_a_long_witness_search_ends_at_its_pinned_witness():
    # 5**12 grid points: refused at the default budget; the witness comes
    # after thousands of (pi', eta', first block) prefixes that fail
    inst = MinimizeInstance(fz.gen_automaton(1, 3, 2, 5), 2)
    with pytest.raises(BudgetExceededError):
        decide_k(inst)
    witness = decide_k(inst, max_candidates=10**9)
    assert [v.rank for v in witness.assignment] == [0, 3, 3, 3, 0, 3, 0, 3, 0, 0, 3, 2]


# the upper bound: a delta' block survives only if the input's cut language
# fits inside the candidate's with every later block full

# 3**24 grids, refused at the default cap; g = 13 is left out, as its search
# takes about 5-8 s
LIFTED = [MinimizeInstance(fz.gen_automaton(g, 4, 2, 3), 3) for g in range(20) if g != 13]
LIFTED_CAP = 10**12
# grids up to this many points are checked against the flat scan
FLAT_LIMIT = 20_000


def _search_corpus(name):
    """(instance, decide_k keywords) pairs.  The criterion-4 and benchmark
    instances skip the fooling-set filter, as `minimize` does, so their
    searches run even where a fooling set answers None; the lifted ones keep
    it, since their searches without it take seconds."""
    if name == "lifted":
        return [(inst, {"max_candidates": LIFTED_CAP}) for inst in LIFTED]
    if name == "criterion-4":
        insts = [criterion4_instance(seed) for seed in range(3000, 3200)]
    else:
        insts = [
            MinimizeInstance(a, k)
            for a in minimize_benchmark_automata()
            for k in range(1, a.n)
        ]
    return [(inst, {"_levels": _cut_levels(inst.automaton)}) for inst in insts]


def _unbounded(inst, **kwargs):
    """decide_k with the upper bound switched off: the search it prunes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fz.minimization._CutDomain, "fits", lambda *args: True)
        return decide_k(inst, **kwargs)


def _assignment(witness):
    return None if witness is None else witness.assignment


@pytest.mark.parametrize("name", ["criterion-4", "minimize-base", "lifted"])
def test_the_upper_bound_keeps_the_first_witness(name, monkeypatch):
    # a grid small enough is scanned flat, in lexicographic order, against
    # the joint-vector referee; a larger one (the one-symbol draws and the
    # 3**12 scan of the benchmark at k=2, and every lifted 3**24 grid) is
    # searched again with the bound switched off, and its witness checked
    # by the same referee
    cases = _search_corpus(name)
    pruned = []
    fits = fz.minimization._CutDomain.fits

    def spy(node, mats):
        fit = fits(node, mats)
        pruned.append(not fit)
        return fit

    monkeypatch.setattr(fz.minimization._CutDomain, "fits", spy)
    flat = 0
    for inst, kwargs in cases:
        got = _assignment(decide_k(inst, **kwargs))
        space = build_candidate_space(inst)
        if len(space.values) ** space.var_count <= FLAT_LIMIT:
            flat += 1
            assert got == first_by_flat_scan(inst), inst
        else:
            assert got == _assignment(_unbounded(inst, **kwargs)), inst
            if got is not None:
                cand = decode_candidate(inst.automaton.chain, inst.automaton.alphabet,
                                        inst.k, got)
                assert joint_vector_equivalent(inst.automaton, cand)
    assert any(pruned), name
    assert flat >= {"criterion-4": 150, "minimize-base": 160, "lifted": 0}[name]


def _kernel_calls(inst, **kwargs):
    """decide_k's witness ranks and its number of `_saturate_cut` calls."""
    calls = []
    kernel = fz.minimization._saturate_cut

    def spy(*args, **kw):
        calls.append(1)
        return kernel(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fz.minimization, "_saturate_cut", spy)
        witness = decide_k(inst, **kwargs)
    ranks = None if witness is None else [v.rank for v in witness.assignment]
    return ranks, len(calls)


def test_the_upper_bound_prunes_the_searches_it_was_built_for(monkeypatch):
    # boolean-21 at k=2 is the k=2 search `minimize` runs on it: 1,184
    # kernel calls with all 16 symbol-b blocks failing after each of about
    # 70 symbol-a blocks; the lifted g=3 search takes 40,426 calls with no
    # upper-bound test and 585 with it, fooling set included
    a = minimize_benchmark_ops()["boolean-21"]
    inst = MinimizeInstance(a, 2)
    _, calls = _kernel_calls(inst, _levels=_cut_levels(a))
    assert calls <= 300
    monkeypatch.setattr(fz.minimization._CutDomain, "fits", lambda *args: True)
    _, before = _kernel_calls(inst, _levels=_cut_levels(a))
    assert before >= 1_000
    monkeypatch.undo()
    witness, calls = _kernel_calls(LIFTED[3], max_candidates=LIFTED_CAP)
    assert calls <= 2_000
    # the witness the search found before the bound
    assert witness == [0, 0, 2, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2, 0, 1, 0, 2, 2, 0, 0, 0, 0, 2, 2]


# gen_automaton shapes (states, symbols, chain size) whose k >= 2 grids are
# small enough to scan flat: one symbol and two, one level and two
FLAT_SHAPES = [(3, 1, 3), (3, 2, 2), (4, 1, 2), (4, 1, 3)]


def test_decide_k_is_the_flat_scans_first_witness_on_small_draws(monkeypatch):
    # every k >= 2 below n of 30 draws of each shape whose grid has at most
    # FLAT_LIMIT points, searched with the fooling-set filter skipped so that
    # the search runs, against the flat scan in lexicographic order.  Counted:
    # the instances, those with a witness, and the (level, head) roots
    # checked and refuted before any block
    roots = []
    fits = fz.minimization._CutDomain.fits

    def spy(node, mats):
        fit = fits(node, mats)
        if not mats:
            roots.append(fit)
        return fit

    monkeypatch.setattr(fz.minimization._CutDomain, "fits", spy)
    insts = [
        MinimizeInstance(a, k)
        for shape in FLAT_SHAPES
        for a in (fz.gen_automaton(g, *shape) for g in range(30))
        for k in range(2, a.n)
    ]
    answered = 0
    for inst in insts:
        space = build_candidate_space(inst)
        if len(space.values) ** space.var_count <= FLAT_LIMIT:
            got = _assignment(decide_k(inst, _levels=_cut_levels(inst.automaton)))
            assert got == first_by_flat_scan(inst), inst
            answered += got is not None
    assert (len(insts), answered) == (180, 113)
    assert (len(roots), roots.count(False)) == (263, 66)


def test_a_head_is_refuted_before_its_blocks(monkeypatch):
    # gen_automaton(7, 5, 2, 3) at k=4, its 3**40 grid lifted: most (pi',
    # eta') heads leave some cut whose input accepts a word with no initial
    # or no final candidate state, so they fail the root check with every
    # block full; without that check the search takes 1,179,737 kernel calls
    inst = MinimizeInstance(fz.gen_automaton(7, 5, 2, 3), 4)
    witness, calls = _kernel_calls(inst, max_candidates=10**20)
    assert calls < 1_000
    assert witness == [0, 0, 0, 2, 0, 0, 2, 1] + [0] * 10 + [2, 0, 0, 0, 0, 2] + [0] * 14 + [2, 2]


def test_a_budget_error_in_the_upper_bound_prunes_nothing(monkeypatch):
    # the kernel raises in every upper-bound test and nowhere else: each
    # block is kept, as if the bound did not exist
    ops = minimize_benchmark_ops()
    cases = [
        (MinimizeInstance(ops[name], 2), {"_levels": _cut_levels(ops[name])})
        for name in ("boolean-02", "boolean-21", "boolean-49", "fullscan-5")
    ]
    cases.append((LIFTED[9], {"max_candidates": LIFTED_CAP}))
    expected = [_assignment(_unbounded(inst, **kwargs)) for inst, kwargs in cases]
    raised = []
    kernel = fz.minimization._saturate_cut
    upper = fz.minimization._CutDomain.fits.__code__

    def spy(*args, **kw):
        if sys._getframe(1).f_code is upper:
            raised.append(1)
            raise BudgetExceededError(1, 0, "spy")
        return kernel(*args, **kw)

    monkeypatch.setattr(fz.minimization, "_saturate_cut", spy)
    assert [_assignment(decide_k(inst, **kwargs)) for inst, kwargs in cases] == expected
    assert len(raised) >= 100
    assert sum(w is not None for w in expected) >= 2


# the node build: a node's joint matrix is its symbol's base, the input's
# cut rows, plus one table entry per candidate row, and each later matrix is
# a base plus a full candidate block; past the packing cutoff both are
# tuples of rows


def _wide_cases():
    """k=2 on three inputs that hold a 0 weight, a boolean one with a
    witness, a two-level one with a witness and a boolean one whose search
    comes back empty, each as it is and padded to 31 states: 33 joint states,
    past the packing cutoff.  The padding adds only 0 weights on unreachable
    states, so the language and V, and with them the first witness, stay."""
    ops = minimize_benchmark_ops()
    for a in (ops["boolean-21"], fz.gen_automaton(26, 3, 2, 3), ops["boolean-01"]):
        yield a, pad_states(a, 31)


def _node_builds(runs):
    """Every `_first_witness` search the runs make, as (k, levels, the
    upper-bound tests it made, the nodes whose `_joint` ran).  An
    upper-bound test is the level tuple of its node, the prefix matrices
    `_CutDomain.fits` got and the matrices it handed the kernel."""
    searches = []
    search = fz.minimization._first_witness
    kernel = fz.minimization._saturate_cut
    fits = fz.minimization._CutDomain.fits.__code__
    joint = fz.minimization._CutDomain._joint

    def search_spy(k, value_ranks, levels, max_vectors):
        searches.append((k, levels, [], {}))
        return search(k, value_ranks, levels, max_vectors)

    def kernel_spy(mats, *args, **kw):
        caller = sys._getframe(1)
        if caller.f_code is fits:
            node = caller.f_locals["self"]
            searches[-1][2].append((node.level, caller.f_locals["mats"], mats))
        return kernel(mats, *args, **kw)

    def joint_spy(node, code):
        searches[-1][3][id(node)] = node
        return joint(node, code)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fz.minimization, "_first_witness", search_spy)
        mp.setattr(fz.minimization, "_saturate_cut", kernel_spy)
        mp.setattr(fz.minimization._CutDomain, "_joint", joint_spy)
        for run in runs:
            run()
    return searches


def test_the_packed_nodes_are_their_rows_rebuilt():
    # k = 1, 2 and 3 on one level and on several, and the wide k=2 cases;
    # every code of every node visited equals its rebuild from one level's
    # rows, and the matrices of each upper-bound test their rebuild from the
    # rows of the one level that all the tests of its node's level share.
    # decide_k answers k=1 in closed form, so the k=1 searches are called
    # directly.  The one-level k=1 search runs on boolean-01, which accepts
    # λ: every head of boolean-21 at k=1 leaves some cut with no initial or
    # no final candidate state and is refuted at its root, visiting no node
    ops = minimize_benchmark_ops()
    boolean = [ops["boolean-01"], ops["boolean-21"]] + [
        fz.random_automaton(random.Random(4), Chain(("0", "1")), ("a", "b"), 4)
    ]
    several = [DUP, fz.gen_automaton(26, 3, 2, 3), LIFTED[9].automaton]
    insts = [MinimizeInstance(a, k) for a, k in zip(boolean + several, [1, 2, 3] * 2)]
    insts += [MinimizeInstance(b, 2) for _, b in _wide_cases()]
    runs = [
        functools.partial(_searched_one_state, inst.automaton) if inst.k == 1 else
        functools.partial(
            decide_k, inst, _levels=_cut_levels(inst.automaton), max_candidates=LIFTED_CAP
        )
        for inst in insts
    ]
    seen = set()
    for k, levels, tests, nodes in _node_builds(runs):
        n = len(levels[0].rows[0])
        laters = [reference_later_full(cut.rows, n, k) for cut in levels]
        assert tests, (k, n)
        by_level = {}
        for level, mats, sent in tests:
            by_level.setdefault(id(level), []).append((mats, sent))
        for calls in by_level.values():
            assert any(
                all(sent == list(dict.fromkeys(mats + later[len(mats)])) for mats, sent in calls)
                for later in laters
            ), (k, n)
        codes = range(1 << k * k, 2 << k * k)
        for node in nodes.values():
            s = len(node.mats)
            built = [node._joint(code) for code in codes]
            assert all(m[:s] == node.mats for m in built)
            assert any(
                [m[s] for m in built]
                == [reference_joint(cut.rows[s], n, k, code) for code in codes]
                for cut in levels
            ), (k, n, s)
            seen.add((k, n > 30, len(levels) > 1))
    assert {(k, False, several) for k in (1, 2, 3) for several in (False, True)} <= seen
    assert (2, True, False) in seen and (2, True, True) in seen


def test_a_wide_node_build_keeps_the_answer(monkeypatch):
    # the padded searches build their nodes as tuples of 33 rows
    joint = fz.minimization._CutDomain._joint
    widths = set()

    def spy(node, code):
        mats = joint(node, code)
        widths.update(len(m) for m in mats if isinstance(m, tuple))
        return mats

    monkeypatch.setattr(fz.minimization._CutDomain, "_joint", spy)
    answers = []
    for a, padded in _wide_cases():
        got = [
            _assignment(decide_k(MinimizeInstance(b, 2), _levels=_cut_levels(b)))
            for b in (a, padded)
        ]
        assert got[0] == got[1], a
        answers.append(got[0])
    assert widths == {33}
    assert [w is None for w in answers] == [False, False, True]


# the fooling-set bound: an extended fooling set of k+1 word pairs on one
# alpha-cut rules k out


def _bound(a, floor=0, max_vectors=fz.errors.DEFAULT_VECTOR_BUDGET):
    return _fooling_bound(_cut_levels(a), floor, a.n, max_vectors)


def test_the_referee_rejects_a_set_that_does_not_fool():
    at_08 = NONMONO.chain.rank_of("0.8")
    assert is_fooling_set(NONMONO, at_08, [((), (0, 0)), ((0,), (0,)), ((0, 0), ())])
    # f(a) = 0.5 is below the level
    assert not is_fooling_set(NONMONO, at_08, [((0,), ())])
    # λ λ and a a a a are both accepted at 0.8, so the pairs are incompatible
    assert not is_fooling_set(NONMONO, at_08, [((), ()), ((0, 0), (0, 0))])


def test_the_fooling_bound_is_the_nfa_minimum_on_criterion_6():
    # a sound bound never exceeds the brute-force NFA minimum; measured, it
    # equals it on every automaton of the corpus (an empty language has no
    # pairs, and a minimum of 1)
    for a, least in criterion6_corpus():
        found = _bound(a)
        size = 0
        if found is not None:
            alpha, pairs = found
            assert is_fooling_set(a, alpha, pairs), a
            size = len(pairs)
        assert max(size, 1) == least, a


def test_the_fooling_bound_changes_no_answer(monkeypatch):
    insts = [
        MinimizeInstance(a, k)
        for a in minimize_benchmark_automata()
        for k in range(1, a.n)
    ]
    insts += [criterion4_instance(seed) for seed in range(3000, 3200)]
    refuted = []

    def check(inst):
        def report(alpha, pairs):
            assert len(pairs) == inst.k + 1
            assert is_fooling_set(inst.automaton, alpha, pairs)
            refuted.append(inst)

        return report

    bounded = [decide_k(inst, _on_bound=check(inst)) for inst in insts]
    # every empty answer on these corpora is a fooling-set refutation
    empty = [inst for inst, got in zip(insts, bounded) if got is None]
    assert refuted == empty and len(empty) >= 50
    monkeypatch.setattr(fz.minimization, "_fooling_bound", lambda *args: None)
    unbounded = [decide_k(inst) for inst in insts]
    assert [w and w.assignment for w in bounded] == [w and w.assignment for w in unbounded]


def test_the_fooling_bound_gives_up_silently_past_its_budget(monkeypatch):
    a = permutation_pair(6, 0, broken=False)[0]
    sizes = []
    for max_vectors in range(0, 120, 2):
        found = _bound(a, max_vectors=max_vectors)
        if found is not None:
            assert is_fooling_set(a, *found)
        sizes.append(0 if found is None else len(found[1]))
    # a search cut short keeps the partial set it has
    assert sizes[0] == 0 and any(0 < size < a.n for size in sizes)
    assert sizes[-1] == a.n
    # with almost no room the bound refutes nothing, and the answers stay
    bound = fz.minimization._fooling_bound
    insts = [MinimizeInstance(NONMONO, 1), MinimizeInstance(NONMONO, 2)]
    insts += [criterion4_instance(seed) for seed in range(3000, 3050)]
    answers = [decide_k(inst) for inst in insts]
    monkeypatch.setattr(
        fz.minimization,
        "_fooling_bound",
        lambda levels, floor, limit, max_vectors: bound(levels, floor, limit, 2),
    )
    assert [decide_k(inst) for inst in insts] == answers
    assert minimize(NONMONO) is NONMONO


def _fooling_corpus():
    yield from minimize_benchmark_automata()
    yield from (fz.gen_automaton(g, 4, 2, 3) for g in range(20))
    yield from (fz.gen_automaton(g, 3, 2, 4) for g in range(40))
    yield from (criterion4_instance(seed).automaton for seed in range(3000, 3200))
    yield from (permutation_pair(n, 0, broken=False)[0] for n in range(3, 9))
    yield from map(sparse_draw, range(20))


def test_the_fooling_search_finds_what_the_count_pruned_search_finds_unbounded(
    monkeypatch,
):
    # the lowest-core-state prune drops only branches that cannot beat the
    # best set, so within the default budget the search returns what the
    # count-pruned search returns with no budget, at every (floor, limit)
    # that minimize and decide_k ask for
    calls = []
    for a in _fooling_corpus():
        levels = _cut_levels(a)
        for floor, limit in [(1, a.n)] + [(k, k + 1) for k in range(1, a.n)]:
            calls.append((levels, floor, limit, fz.errors.DEFAULT_VECTOR_BUDGET))
    found = [_fooling_bound(*call) for call in calls]
    assert len(calls) == 1148 and sum(f is not None for f in found) == 389
    monkeypatch.setattr(
        fz.minimization,
        "_fooling_set",
        lambda cut, floor, limit, _: reference_fooling_set(cut, floor, limit, 10**18),
    )
    assert [_fooling_bound(*call) for call in calls] == found


def test_the_fooling_search_proves_a_sparse_draw_minimal_within_its_budget():
    # the count-pruned search spends the whole budget on one level of this
    # draw and stops at 11 pairs; 12 pairs prove its 12 states minimal
    a = sparse_draw(3)
    alpha, pairs = _bound(a, floor=1)
    assert len(pairs) == a.n == 12
    assert is_fooling_set(a, alpha, pairs)
    budget = fz.errors.DEFAULT_VECTOR_BUDGET
    sizes = [len(reference_fooling_set(cut, 1, 12, budget)) for cut in _cut_levels(a)]
    assert max(sizes) == 11
    assert minimize(a) is a


def test_minimize_starts_at_the_bound(monkeypatch):
    tried = []
    minimize(BEYOND_CUTS, on_k=lambda inst: tried.append(inst.k))
    assert tried == [2]
    tried.clear()
    assert minimize(NONMONO, on_k=lambda inst: tried.append(inst.k)) is NONMONO
    assert tried == []
    # the searches after the bound do not look for fooling sets again
    levels = []
    bound = fz.minimization._fooling_bound

    def spy(*args):
        levels.append(args[1:3])
        return bound(*args)

    monkeypatch.setattr(fz.minimization, "_fooling_bound", spy)
    assert minimize(BEYOND_CUTS) is BEYOND_CUTS
    assert levels == [(1, 3)]


def test_minimize_builds_the_cut_levels_once(monkeypatch):
    built = []
    cut_levels = fz.minimization._cut_levels

    def spy(a):
        built.append(a)
        return cut_levels(a)

    monkeypatch.setattr(fz.minimization, "_cut_levels", spy)
    # BEYOND_CUTS searches k=2 after its bound and NONMONO needs no search;
    # DUP collapses to one state in closed form, before any cut is built.
    # Without the bound, BEYOND_CUTS searches k=1 and k=2
    for a, times in ((BEYOND_CUTS, 1), (DUP, 0), (NONMONO, 1)):
        built.clear()
        minimize(a)
        assert built == [a] * times
    monkeypatch.setattr(fz.minimization, "_fooling_bound", lambda *args: None)
    tried = []
    built.clear()
    minimize(BEYOND_CUTS, on_k=lambda inst: tried.append(inst.k))
    assert built == [BEYOND_CUTS] and tried == [1, 2]


def test_minimize_collapses_duplicates():
    small = minimize(DUP)
    assert small.n == 1
    assert fz.equivalent_fixpoint(pad_states(small, 2), DUP).equivalent


def test_minimize_returns_the_input_when_nothing_smaller_exists():
    assert decide_k(MinimizeInstance(NONMONO, 1)) is None
    assert decide_k(MinimizeInstance(NONMONO, 2)) is None
    assert minimize(NONMONO) is NONMONO


def test_minimize_budget_reports_the_stuck_k():
    # the bound skips k=1, and k=2 needs 3**12 candidates; NONMONO is proven
    # minimal by its bound alone and never reaches a grid
    with pytest.raises(BudgetExceededError) as info:
        minimize(BEYOND_CUTS, max_candidates=10)
    assert info.value.count == 3**12
    assert "k=2" in str(info.value)
    assert minimize(NONMONO, max_candidates=10) is NONMONO


# the equation reduction agrees with the direct search


def test_equation_reduction_matches_decide_k():
    inst = MinimizeInstance(DUP, 1)
    direct = decide_k(inst)
    via = decide_k_via_equations(inst, word_bound(inst))
    assert via is not None
    assert via.assignment == direct.assignment

    assert decide_k_via_equations(MinimizeInstance(NONMONO, 1), 2) is None


def test_equation_reduction_validates_the_length():
    inst = MinimizeInstance(DUP, 1)
    with pytest.raises(ValueError):
        decide_k_via_equations(inst, 8)
    with pytest.raises(ValueError):
        decide_k_via_equations(inst, -1)


def test_equation_reduction_prints_a_bound_too_large_for_digits():
    # 5**7003 - 1 has more than the 4,300 digits an int may print with
    inst = MinimizeInstance(fz.gen_automaton(3, 3, 2, 5), 7000)
    with pytest.raises(ValueError) as refused:
        decide_k_via_equations(inst, -1)
    assert str(refused.value) == "word length bound must lie in [0, 5^7003-1], got -1"


def test_equation_reduction_budgets_the_word_count():
    with pytest.raises(BudgetExceededError):
        decide_k_via_equations(MinimizeInstance(DUP, 1), 7, max_equations=3)


def test_equation_reduction_budgets_the_monomials():
    # 65,535 words fit the default budget, but the words of length l have
    # 2**(l+1) state paths each: 2**31 monomials at l = 15 alone
    inst = MinimizeInstance(fz.gen_automaton(3, 3, 2, 3), 2)
    with pytest.raises(BudgetExceededError) as info:
        decide_k_via_equations(inst, 15)
    assert info.value.context == "materialized monomials"
    assert info.value.limit == 100_000
    assert info.value.count == sum(2**l * 2 ** (l + 1) for l in range(9))


# layout round trip


# DUP's assignment: pi, eta, then the row-major block of symbol a
DUP_ASSIGNMENT = tuple(DUP.chain.value(v) for v in ["0.8"] * 4 + ["0.6"] * 4)


def test_encode_decode_round_trip():
    a = decode_candidate(DUP.chain, DUP.alphabet, 2, DUP_ASSIGNMENT)
    assert a == DUP
    assert a.pi.data + a.eta.data + a.delta[0].data == tuple(
        v.rank for v in DUP_ASSIGNMENT
    )


def test_decode_validates_its_input():
    with pytest.raises(ValueError):
        decode_candidate(DUP.chain, DUP.alphabet, 1, DUP_ASSIGNMENT)
    other = Chain(("0", "1"))
    with pytest.raises(ValueError):
        decode_candidate(other, DUP.alphabet, 2, DUP_ASSIGNMENT)


# padding


def test_pad_states_preserves_the_language():
    padded = pad_states(NONMONO, 5)
    assert padded.n == 5
    assert fz.equivalent_fixpoint(NONMONO, padded).equivalent
    assert pad_states(NONMONO, 3) is NONMONO
    with pytest.raises(ValueError):
        pad_states(NONMONO, 2)


def test_pad_states_appends_zero_columns_then_zero_rows():
    for seed in range(20):
        a = fz.gen_automaton(seed, 2 + seed % 3, 2, 4)
        for extra in (1, 3):
            n, total = a.n, a.n + extra
            padded = pad_states(a, total)
            assert (padded.chain, padded.alphabet) == (a.chain, a.alphabet)
            assert padded.pi.data == a.pi.data + (0,) * extra
            assert padded.eta.data == a.eta.data + (0,) * extra
            for m, p in zip(a.delta, padded.delta):
                expected = [
                    [m.rank_at(i, j) for j in range(n)] + [0] * extra for i in range(n)
                ]
                expected += [[0] * total for _ in range(extra)]
                got = [[p.rank_at(i, j) for j in range(total)] for i in range(total)]
                assert got == expected, (seed, extra)


# boolean automata as NFAs


def test_nfa_view_requires_boolean_weights():
    with pytest.raises(NonBooleanValueError, match="value 0.8"):
        nfa_view(DUP)


def test_nfa_view_agrees_with_subset_construction():
    rng = random.Random(7)
    ch2 = Chain(("0", "1"))
    for _ in range(10):
        a = fz.random_automaton(rng, ch2, ("a", "b"), rng.randint(1, 3))
        view = nfa_view(a)
        for word in all_words_up_to(2, 4):
            assert view.accepts(word) == crisp_accepts(a, word)

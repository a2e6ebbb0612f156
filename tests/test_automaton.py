"""Automata, word values, and the two equivalence deciders."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzmin as fz
from fuzzmin import BudgetExceededError, Chain
from fuzzmin.automaton import (
    _PACKED_MAX,
    _cut_matrix,
    _cut_table,
    _saturate_cut,
)
from fuzzmin.oracles import (
    all_words_up_to,
    brute_language_value,
    joint_vector_equivalent,
)

from helpers import (
    automaton,
    criterion4_instance,
    cut_mask,
    delta_word,
    equiv_benchmark_pairs,
    first_by_flat_scan,
    identity,
    literal_suffix_cuts,
    maxmin_product,
    per_level_fixpoint,
    permutation_pair,
    positive_ranks,
    random_pair,
    reference_saturate_cut,
)

CH2 = Chain(("0", "1"))
CH3 = Chain(("0", "0.5", "1"))

# constant language 1 over {a, b}
ALL_ONE = automaton(CH2, "ab", ["1"], ["1"], [[["1"]], [["1"]]])

# agrees with ALL_ONE up to length 1; gives 0 to "aa" and "ab"
SPLIT = automaton(
    CH2,
    "ab",
    ["1", "0"],
    ["1", "1"],
    [
        [["0", "1"], ["0", "0"]],
        [["1", "0"], ["0", "0"]],
    ],
)

# f(lambda)=1, f(a)=0.5, f(aa)=0.8, then 0 forever: not weight-monotone
NONMONO = automaton(
    Chain(("0", "0.5", "0.8", "1")),
    "a",
    ["1", "0", "0"],
    ["1", "0.5", "0.8"],
    [[["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
)


def test_construction_checks():
    with pytest.raises(ValueError):
        automaton(CH2, "aa", ["1"], ["1"], [[["1"]], [["1"]]])
    with pytest.raises(ValueError):
        fz.FuzzyAutomaton(
            CH2, (), ALL_ONE.pi, ALL_ONE.eta, ()
        )
    with pytest.raises(ValueError):
        fz.FuzzyAutomaton(
            CH2, ("a",), ALL_ONE.pi, ALL_ONE.eta, (identity(CH2, 2),)
        )
    one = ALL_ONE.delta[0]
    column = fz.FuzzyMatrix(CH2, 2, 1, (1, 1))
    faults = [
        ("pi must be a single row", (CH2, "a", column, ALL_ONE.eta, (one,))),
        ("eta must be 1x1", (CH2, "a", ALL_ONE.pi, column, (one,))),
        (
            "one transition matrix per symbol required",
            (CH2, "ab", ALL_ONE.pi, ALL_ONE.eta, (one,)),
        ),
        (
            "automaton parts live on different chains",
            (CH2, "a", fz.FuzzyMatrix(CH3, 1, 1, (2,)), ALL_ONE.eta, (one,)),
        ),
    ]
    for message, parts in faults:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fz.FuzzyAutomaton(*parts)


def test_words_and_symbols():
    assert ALL_ONE.word_from_names(["a", "b", "a"]) == (0, 1, 0)
    assert ALL_ONE.format_word(()) == "λ"
    assert ALL_ONE.format_word((1, 0)) == "b a"
    with pytest.raises(ValueError):
        ALL_ONE.word_from_names(["c"])
    with pytest.raises(ValueError):
        fz.language_value(ALL_ONE, (5,))


def test_language_values_by_hand():
    assert delta_word(NONMONO, ()) == identity(NONMONO.chain, 3)
    got = [fz.language_value(NONMONO, (0,) * k).label for k in range(5)]
    assert got == ["1", "0.5", "0.8", "0", "0"]


@given(st.integers(0, 2**32), st.lists(st.integers(0, 1), max_size=4))
def test_language_value_matches_path_enumeration(seed, word):
    a1, _ = random_pair(random.Random(seed), max_states=3)
    word = tuple(s % len(a1.alphabet) for s in word)
    assert fz.language_value(a1, word) == brute_language_value(a1, word)


@given(st.integers(0, 2**32))
def test_word_matrix_is_multiplicative(seed):
    rng = random.Random(seed)
    a, _ = random_pair(rng, max_states=3)
    x = tuple(rng.randrange(len(a.alphabet)) for _ in range(rng.randint(0, 3)))
    y = tuple(rng.randrange(len(a.alphabet)) for _ in range(rng.randint(0, 3)))
    assert delta_word(a, x + y) == maxmin_product(
        delta_word(a, x), delta_word(a, y)
    )


# length bound


def test_length_bound_counts_transition_and_final_values_only():
    # initial weights stay out of the count: d = |{0.25, 0.5, 0.75}| = 3 here
    ch = Chain(("0", "0.25", "0.5", "0.75", "1"))
    a1 = automaton(ch, "a", ["1"], ["0.25"], [[["0.5"]]])
    a2 = automaton(ch, "a", ["0.75"], ["0.75"], [[["0.5"]]])
    assert fz.equivalence_length_bound(a1, a2) == 3**2 - 1


def test_length_bound_requires_shared_chain_and_alphabet():
    other = automaton(CH3, "a", ["1"], ["1"], [[["1"]]])
    mono = automaton(CH2, "a", ["1"], ["1"], [[["1"]]])
    with pytest.raises(ValueError):
        fz.equivalence_length_bound(mono, other)
    with pytest.raises(ValueError):
        fz.equivalent_fixpoint(ALL_ONE, mono)


# bounded equivalence


def test_bounded_check_distinguishes_at_the_right_length():
    assert fz.k_equivalent(ALL_ONE, SPLIT, 0)
    assert fz.k_equivalent(ALL_ONE, SPLIT, 1)
    assert not fz.k_equivalent(ALL_ONE, SPLIT, 2)
    assert fz.bounded_counterexample(ALL_ONE, SPLIT, 1) is None
    # both "aa" and "ab" fail; the least one comes back
    assert fz.bounded_counterexample(ALL_ONE, SPLIT, 5) == (0, 0)


def test_bounded_check_at_lambda():
    half = automaton(CH3, "a", ["1"], ["0.5"], [[["1"]]])
    one = automaton(CH3, "a", ["1"], ["1"], [[["1"]]])
    assert fz.bounded_counterexample(half, one, 0) == ()
    with pytest.raises(ValueError):
        fz.k_equivalent(half, one, -1)


def test_bounded_check_budget():
    with pytest.raises(BudgetExceededError):
        fz.k_equivalent(ALL_ONE, SPLIT, 2, max_pairs=1)


def test_bounded_check_stores_forward_vector_pairs():
    # pi . delta(w) is a unit vector on both sides, so the n = 6 pair reaches
    # 6 forward vector pairs against 6! pairs of word matrices
    a1, a2 = permutation_pair(6, 0, broken=False)
    assert fz.k_equivalent(a1, a2, fz.equivalence_length_bound(a1, a2), max_pairs=50)


@given(st.integers(0, 2**32), st.integers(0, 4))
def test_bounded_counterexample_is_the_first_differing_word(seed, k):
    a1, a2 = random_pair(random.Random(seed), max_states=3)
    first = next(
        (
            word
            for word in all_words_up_to(len(a1.alphabet), k)
            if brute_language_value(a1, word) != brute_language_value(a2, word)
        ),
        None,
    )
    assert fz.bounded_counterexample(a1, a2, k) == first


# fixpoint decider


def test_fixpoint_counterexample_is_least():
    res = fz.equivalent_fixpoint(ALL_ONE, SPLIT)
    assert not res.equivalent
    assert res.counterexample == (0, 0)
    assert ALL_ONE.format_word(res.counterexample) == "a a"
    assert res.stabilization_index == 2
    # the suffix vectors (1,1,1), (1,1,0), (1,0,0) cut at the only level, 1
    assert set(res.reached) == {(1, 0b111), (1, 0b011), (1, 0b001)}


def test_fixpoint_equivalence_with_duplicate_state():
    dup = automaton(
        CH3, "a", ["1", "1"], ["0.5", "0.5"], [[["1", "1"], ["1", "1"]]]
    )
    single = automaton(CH3, "a", ["1"], ["0.5"], [[["1"]]])
    padded = fz.pad_states(single, 2)
    res = fz.equivalent_fixpoint(dup, padded)
    assert res.equivalent
    assert res.counterexample is None


def test_reached_vectors_match_literal_word_enumeration():
    for pair in [(ALL_ONE, SPLIT), (NONMONO, NONMONO)]:
        res = fz.equivalent_fixpoint(*pair)
        lit = literal_suffix_cuts(*pair, res.stabilization_index)
        assert set(res.reached) == lit
        assert len(res.reached) == len(lit)
        # one more word length adds nothing: every level already closed off
        assert lit == literal_suffix_cuts(*pair, res.stabilization_index + 1)


@given(
    st.lists(st.integers(0, 8), max_size=12),
    st.sets(st.integers(1, 9)),
    st.integers(0, 70),
)
def test_cut_table_holds_the_cut_mask_at_every_level(ranks, levels, shift):
    # levels need not hold the row's ranks, nor the row the levels
    levels = sorted(levels)
    assert _cut_table(ranks, levels, shift) == [
        cut_mask(ranks, alpha) << shift for alpha in levels
    ]


def test_fixpoint_matches_the_per_level_cut_reference():
    pairs = [
        permutation_pair(n, seed, broken=broken)
        for n in range(3, 8)
        for seed in range(2)
        for broken in (False, True)
    ]
    # joint widths on both sides of the packing cutoff.  A padded copy reaches
    # the same subsets even where its states sit on the first side's, so the
    # second side is also the draw with its states numbered backwards (every
    # matrix's data reversed) and a fresh draw
    for g in range(6):
        a = fz.gen_automaton(g, _PACKED_MAX // 2 - 3 + g, 2, 4)
        pi, eta, *delta = (
            fz.FuzzyMatrix(m.chain, m.rows, m.cols, m.data[::-1]) for m in (a.pi, a.eta, *a.delta)
        )
        rng = random.Random(f"wide/{g}")
        pairs += [
            (a, fz.pad_states(a, a.n + 1)),
            (a, fz.FuzzyAutomaton(a.chain, a.alphabet, pi, eta, tuple(delta))),
            (a, fz.random_automaton(rng, a.chain, a.alphabet, a.n)),
        ]
    # gen_automaton draws against a padded copy and a fresh draw on its chain
    for g in range(40):
        a = fz.gen_automaton(g, 1 + g % 6, 1 + g % 3, 2 + g % 6)
        rng = random.Random(f"fresh/{g}")
        pairs.append((a, fz.pad_states(a, a.n + 1)))
        pairs.append((a, fz.random_automaton(rng, a.chain, a.alphabet, rng.randint(1, 6))))
    pairs += equiv_benchmark_pairs()
    verdicts = set()
    for a1, a2 in pairs:
        res = fz.equivalent_fixpoint(a1, a2)
        assert res == per_level_fixpoint(a1, a2, exhaust=False)
        # a level's first mismatch is its least counterexample, so searching
        # every level to its end gives the same verdict and counterexample,
        # and on equivalent pairs the same whole result
        full = per_level_fixpoint(a1, a2, exhaust=True)
        assert (res.equivalent, res.counterexample) == (full.equivalent, full.counterexample)
        if res.equivalent:
            assert res == full
        verdicts.add(res.equivalent)
    assert verdicts == {True, False}


def test_a_cut_matrix_is_packed_up_to_the_cutoff_and_rows_past_it():
    rng = random.Random(5)
    for n in range(1, 2 * _PACKED_MAX + 1):
        rows = [rng.getrandbits(n) for _ in range(n)]
        m = _cut_matrix(rows)
        if n > _PACKED_MAX:
            assert m == tuple(rows)
            continue
        # row i in the n low bits of field i, of n + 1 bits, guard clear
        assert isinstance(m, int) and m < 1 << n * (n + 1)
        assert [m >> i * (n + 1) & (1 << n + 1) - 1 for i in range(n)] == rows


@st.composite
def cut_nfas(draw):
    """Rows of 1 to 4 symbols on n states, from 1 to twice the packing
    cutoff, then final, pi1 and pi2: every set below 2**n.  Sparse rows keep
    the saturations from filling up at once."""
    n = draw(st.integers(1, 2 * _PACKED_MAX))
    below = st.integers(0, 2**n - 1)
    sparse = st.sets(st.integers(0, n - 1), max_size=2).map(
        lambda s: sum(1 << i for i in s)
    )
    row = st.one_of(sparse, below)
    sym_rows = st.lists(row, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(sym_rows, min_size=1, max_size=4))
    return rows, draw(below), draw(below), draw(below)


def _outcome(kernel, *args, **kw):
    try:
        witness, mismatch, depth = kernel(*args, **kw)
    except BudgetExceededError as e:
        return ("budget", e.count, e.limit)
    return list(witness.items()), mismatch, depth


@given(cut_nfas(), st.integers(0, 2))
def test_saturate_cut_matches_the_row_loop_reference(nfa, stored):
    rows, final, pi1, pi2 = nfa
    n = len(rows[0])
    mats = [_cut_matrix(sym_rows) for sym_rows in rows]

    def both(max_vectors):
        args = (final, pi1, pi2, stored, max_vectors)
        ref = _outcome(reference_saturate_cut, rows, *args, exhaust=False)
        assert _outcome(_saturate_cut, mats, n, *args) == ref
        return ref

    # the witnesses in insertion order, the mismatch and the depth, or the
    # same refusal past 100 subsets
    ref = both(stored + 100)
    if ref[0] != "budget":
        for max_vectors in range(1, stored + len(ref[0]) + 2):
            both(max_vectors)


def test_fixpoint_budget():
    with pytest.raises(BudgetExceededError):
        fz.equivalent_fixpoint(NONMONO, NONMONO, max_vectors=2)


def test_joint_referee_budget():
    with pytest.raises(BudgetExceededError) as info:
        joint_vector_equivalent(NONMONO, NONMONO, max_vectors=1)
    assert (info.value.count, info.value.limit) == (2, 1)
    assert info.value.context == "joint suffix vectors"


def test_fixpoint_budget_stops_at_the_first_subset_over_it():
    pair = permutation_pair(7, 0, broken=False)
    total = len(fz.equivalent_fixpoint(*pair).reached)
    assert total > 100
    for limit in (1, 5, 40, 100, total - 1):
        with pytest.raises(BudgetExceededError) as info:
            fz.equivalent_fixpoint(*pair, max_vectors=limit)
        assert info.value.count == limit + 1
        assert info.value.limit == limit
    assert fz.equivalent_fixpoint(*pair, max_vectors=total).equivalent


def _check_against_references(a1, a2):
    """The cut decider matches the bounded check at its conclusive length
    (verdict and least counterexample) and the joint-vector verdict."""
    res = fz.equivalent_fixpoint(a1, a2)
    bound = fz.equivalence_length_bound(a1, a2)
    assert res.stabilization_index <= bound
    assert res.counterexample == fz.bounded_counterexample(a1, a2, bound)
    assert res.equivalent == joint_vector_equivalent(a1, a2)
    return res


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cut_decider_matches_references_on_permutation_pairs(n):
    for seed in range(3):
        res = _check_against_references(*permutation_pair(n, seed, broken=False))
        assert res.equivalent
        res = _check_against_references(*permutation_pair(n, seed, broken=True))
        assert not res.equivalent


@given(st.integers(0, 2**32))
def test_deciders_agree(seed):
    a1, a2 = random_pair(random.Random(seed))
    res = _check_against_references(a1, a2)
    cex = res.counterexample
    if cex is not None:
        assert len(cex) <= res.stabilization_index
        assert fz.language_value(a1, cex) != fz.language_value(a2, cex)
        # nothing shorter or lexicographically earlier distinguishes them
        if len(cex) <= 12:
            for word in all_words_up_to(len(a1.alphabet), len(cex)):
                if word == cex:
                    break
                assert fz.language_value(a1, word) == fz.language_value(a2, word)


# decide_k's pruned search against a flat scan judged by the joint-vector referee


def _boolean_nfa():
    """The first 3-state boolean automaton of the NFA-minimization corpus."""
    code = random.Random(63).sample(range(2**24), 1)[0]
    bits = tuple(CH2.one if (code >> p) & 1 else CH2.zero for p in range(24))
    return fz.decode_candidate(CH2, ("a", "b"), 3, bits)


def _grid(inst):
    space = fz.build_candidate_space(inst)
    return len(space.values) ** space.var_count


CRITERION4_SMALL = [
    inst
    for inst in map(criterion4_instance, range(3000, 3200))
    if _grid(inst) <= 20_000
]

# 3-state unary draws on chain 3 with several positive levels and a 2-state
# witness on a 3**8 grid, whose (pi', eta') is not the first the search tries
MULTI_LEVEL = [
    fz.MinimizeInstance(fz.gen_automaton(g, 3, 1, 3), 2)
    for g in (9, 10, 18, 25, 31, 33, 34, 39, 43, 47, 48, 51)
    + (58, 74, 75, 77, 82, 88, 94, 108, 109, 110, 112, 119)
]


def _first_prefix(inst):
    """The first (pi', eta') that passes the empty-word and renumbering cuts."""
    a, k = inst.automaton, inst.k
    ranks = [v.rank for v in fz.build_candidate_space(inst).values]
    f_lambda = fz.language_value(a, ()).rank
    for pi in itertools.combinations_with_replacement(ranks, k):
        for eta in itertools.product(ranks, repeat=k):
            pairs = list(zip(pi, eta))
            if max(map(min, pi, eta)) == f_lambda and pairs == sorted(pairs):
                return pi + eta
    return None


def test_multi_level_corpus_backtracks_past_the_first_prefix():
    for inst in MULTI_LEVEL:
        assert len(positive_ranks(inst.automaton)) > 1
        assert _grid(inst) <= 20_000
        witness = fz.decide_k(inst)
        ranks = tuple(v.rank for v in witness.assignment)
        assert ranks[: 2 * inst.k] != _first_prefix(inst)


@pytest.mark.parametrize(
    "insts",
    [
        [fz.MinimizeInstance(_boolean_nfa(), 2)],
        [fz.MinimizeInstance(fz.gen_automaton(3, 3, 1, 5), 1)],
        [fz.MinimizeInstance(fz.gen_automaton(8, 3, 1, 5), 2)],
        CRITERION4_SMALL,
        MULTI_LEVEL,
    ],
    ids=[
        "boolean-k2",
        "fuzzy3-k1",
        "fuzzy8-k2",
        "criterion4-small-grids",
        "multi-level-witnesses",
    ],
)
def test_candidate_verdicts_match_the_joint_referee(insts):
    assert insts
    for inst in insts:
        witness = fz.decide_k(inst)
        expected = first_by_flat_scan(inst)
        assert (None if witness is None else witness.assignment) == expected


def _renumbered(assignment, k, perm):
    """The same automaton's assignment with new state i = old state perm[i]."""
    pi, eta = assignment[:k], assignment[k : 2 * k]
    out = [pi[p] for p in perm] + [eta[p] for p in perm]
    for start in range(2 * k, len(assignment), k * k):
        block = assignment[start : start + k * k]
        out += [block[perm[i] * k + perm[j]] for i in range(k) for j in range(k)]
    return tuple(out)


def test_witnesses_are_least_among_their_state_renumberings():
    # k = 3 targets on small one-symbol automata add orbits of six
    rng = random.Random(11)
    wide = [
        fz.MinimizeInstance(
            fz.random_automaton(rng, CH2, ("a",), rng.randint(1, 3)), 3
        )
        for _ in range(20)
    ]
    checked = 0
    for inst in CRITERION4_SMALL + wide:
        witness = fz.decide_k(inst)
        if witness is None or inst.k == 1:
            continue
        checked += 1
        a, k = inst.automaton, inst.k
        ranks = tuple(v.rank for v in witness.assignment)
        for perm in itertools.permutations(range(k)):
            other = _renumbered(ranks, k, perm)
            assert ranks <= other, perm
            values = tuple(a.chain[r] for r in other)
            cand = fz.decode_candidate(a.chain, a.alphabet, k, values)
            assert fz.equivalent_fixpoint(a, cand).equivalent
    assert checked >= 50

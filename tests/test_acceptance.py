"""Acceptance suite: one test per advertised guarantee, one report line each.

Every test prints `criterion N: PASS/FAIL - detail` so a full run reads as a
checklist.  Corpora are seeded, so counts and witnesses are reproducible.
"""

from __future__ import annotations

import random
import time

from fuzzmin import (
    Chain,
    MinimizeInstance,
    Monomial,
    build_candidate_space,
    bounded_counterexample,
    decide_k,
    equivalence_length_bound,
    equivalent_fixpoint,
    eval_polynomial,
    k_equivalent,
    minimize,
    satisfies,
    solve_intervals,
    solve_points,
)
from fuzzmin.chain import cross_intersect
from fuzzmin.equations import polynomial_eq_solutions, rhs_values
from fuzzmin.generate import (
    alphabet_of,
    random_automaton,
    random_chain_labels,
    random_system,
)
from fuzzmin.oracles import (
    decide_k_via_equations,
    grid_search_k_candidate,
    grid_search_point,
    word_bound,
)

from helpers import (
    criterion6_corpus,
    in_box,
    monomial_eq_solutions,
    monomial_le_solutions,
    solution_set,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _solver_corpus():
    for i in range(500):
        rng = random.Random(1000 + i)
        chain = Chain(random_chain_labels(rng, rng.randint(2, 5)))
        n_vars = rng.randint(1, 4)
        yield random_system(rng, chain, n_vars, rng.randint(1, 4), 3)


def _pair_corpus():
    for i in range(300):
        rng = random.Random(2000 + i)
        chain = Chain(random_chain_labels(rng, rng.randint(2, 3)))
        alphabet = alphabet_of(rng.randint(1, 2))
        a1 = random_automaton(rng, chain, alphabet, rng.randint(1, 2))
        a2 = random_automaton(rng, chain, alphabet, rng.randint(1, 2))
        yield a1, a2


def _small_instances():
    chain = Chain(("0", "0.5", "1"))
    for i in range(50):
        rng = random.Random(4000 + i)
        alphabet = alphabet_of(rng.randint(1, 2))
        a = random_automaton(rng, chain, alphabet, rng.randint(1, 2))
        yield MinimizeInstance(a, 1)


def test_criterion_1_interval_solver_agrees_with_point_solver():
    start = time.perf_counter()
    bad = 0
    solvable = 0
    for system in _solver_corpus():
        sols = solve_intervals(system)
        point = solve_points(system)
        if bool(sols) != (point is not None):
            bad += 1
            continue
        if point is None:
            continue
        solvable += 1
        if not satisfies(system, point):
            bad += 1
        elif not any(in_box(box, point.values) for box in sols.boxes):
            bad += 1
        elif any(
            eval_polynomial(eq.lhs, point).rank != eq.rhs.rank
            for eq in system.equations
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        bad == 0 and elapsed < 60,
        f"interval and point solvers agree on 500 systems "
        f"({solvable} solvable, witnesses re-evaluate exactly, {elapsed:.1f}s)",
    )


def test_criterion_2_rhs_value_grid_is_complete():
    bad = 0
    for system in _solver_corpus():
        over_rhs = grid_search_point(system, rhs_values(system))
        over_chain = grid_search_point(system, tuple(system.chain))
        point = solve_points(system)
        verdicts = {over_rhs is None, over_chain is None, point is None}
        if len(verdicts) != 1:
            bad += 1
    _report(
        2,
        bad == 0,
        "restricting the point search to right-hand-side values loses no "
        "solvable system (500 systems, full-chain grid as referee)",
    )


def test_criterion_3_fixpoint_matches_bounded_oracle():
    bad = 0
    inequivalent = 0
    max_level = 0
    for a1, a2 in _pair_corpus():
        res = equivalent_fixpoint(a1, a2)
        bound = equivalence_length_bound(a1, a2)
        cex = bounded_counterexample(a1, a2, bound)
        if res.equivalent:
            # on inequivalent pairs the index is only the depth searched
            max_level = max(max_level, res.stabilization_index)
        if res.equivalent != (cex is None):
            bad += 1
            continue
        if res.stabilization_index > bound:
            bad += 1
        elif res.counterexample != cex:
            bad += 1
        elif cex is not None:
            inequivalent += 1
    _report(
        3,
        bad == 0,
        f"fixpoint decision matches the conclusive bounded check on 300 pairs "
        f"({inequivalent} inequivalent, deepest stabilization l={max_level})",
    )


def test_criterion_4_k_state_witnesses_are_genuine():
    start = time.perf_counter()
    bad = 0
    found = 0
    for i in range(200):
        rng = random.Random(3000 + i)
        chain = Chain(random_chain_labels(rng, rng.randint(2, 3)))
        alphabet = alphabet_of(rng.randint(1, 2))
        a = random_automaton(rng, chain, alphabet, rng.randint(1, 3))
        inst = MinimizeInstance(a, rng.randint(1, 2))
        witness = decide_k(inst)
        if witness is None:
            continue
        found += 1
        space = build_candidate_space(inst)
        b = witness.automaton
        if b.n != inst.k:
            bad += 1
        elif not set(witness.assignment) <= set(space.values):
            bad += 1
        elif not equivalent_fixpoint(a, b).equivalent:
            bad += 1
        elif not k_equivalent(a, b, equivalence_length_bound(a, b)):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        bad == 0 and elapsed < 60,
        f"every witness uses only input values and passes both equivalence "
        f"checks (200 instances, {found} witnesses, {elapsed:.1f}s)",
    )


def test_criterion_5_grid_restriction_loses_no_witness():
    bad = 0
    found = 0
    for inst in _small_instances():
        direct = decide_k(inst)
        brute = grid_search_k_candidate(inst)
        if (direct is None) != (brute is None):
            bad += 1
        elif direct is not None:
            found += 1
            if not equivalent_fixpoint(inst.automaton, direct.automaton).equivalent:
                bad += 1
    _report(
        5,
        bad == 0,
        f"searching only input values matches the full-chain grid search "
        f"(50 one-state targets, {found} collapsible)",
    )


def test_criterion_6_boolean_minimization_is_nfa_minimization():
    start = time.perf_counter()
    corpus = criterion6_corpus()
    bad = sum(1 for a, least in corpus if minimize(a).n != least)
    elapsed = time.perf_counter() - start
    _report(
        6,
        bad == 0 and elapsed < 600,
        f"minimization equals the brute-force NFA state minimum on "
        f"{len(corpus)} boolean automata ({elapsed:.1f}s)",
    )


def test_criterion_7_equation_reduction_matches_direct_search():
    bad = 0
    qualifying = 0
    for inst in _small_instances():
        bound = word_bound(inst)
        n_sym = len(inst.automaton.alphabet)
        n_words = sum(n_sym**length for length in range(bound + 1))
        if n_words > 80:
            continue
        qualifying += 1
        direct = decide_k(inst)
        via = decide_k_via_equations(inst, bound)
        if (direct is None) != (via is None):
            bad += 1
        elif direct is not None and direct.assignment != via.assignment:
            bad += 1
    _report(
        7,
        bad == 0 and qualifying >= 1,
        f"materialized word equations reproduce the direct verdict and witness "
        f"({qualifying} instances small enough to ground out)",
    )


def test_criterion_8_single_monomial_families_match_their_closed_forms():
    chain5 = Chain(("0", "0.25", "0.5", "0.75", "1"))
    top = len(chain5) - 1
    bad = 0
    cases = 0
    for n in range(1, 5):
        m = Monomial(tuple(range(n)))
        for a in chain5:
            r = a.rank
            cases += 2
            # pin one variable to [a, a], the rest to [a, 1]
            want_eq = solution_set(
                chain5,
                n,
                tuple(
                    tuple((r, r) if i == pin else (r, top) for i in range(n))
                    for pin in range(n)
                ),
            )
            if monomial_eq_solutions(m, a, n) != want_eq:
                bad += 1
            # cap one variable to [0, a], leave the rest free
            want_le = solution_set(
                chain5,
                n,
                tuple(
                    tuple((0, r) if i == pin else (0, top) for i in range(n))
                    for pin in range(n)
                ),
            )
            if monomial_le_solutions(m, a, n) != want_le:
                bad += 1
    _report(
        8,
        bad == 0,
        f"pin-one-variable closed forms reproduced exactly ({cases} cases)",
    )


def test_criterion_9_family_sizes_respect_their_caps():
    bad = 0
    worst = 0
    for system in _solver_corpus():
        acc = None
        for eq in system.equations:
            fam = polynomial_eq_solutions(eq.lhs, eq.rhs, system.n_vars)
            k = len(eq.lhs.monomials)
            cap = k * system.n_vars**k
            if len(fam) > cap:
                bad += 1
            if acc is None:
                acc = fam
                worst = max(worst, cap)
                continue
            prod = cross_intersect(acc, fam)
            if len(prod) > len(acc) * len(fam):
                bad += 1
            worst = max(worst, len(acc) * len(fam))
            acc = prod
    _report(
        9,
        bad == 0,
        f"per-equation families stay within k*n**k and products within "
        f"|A|*|B| over 500 systems (largest bound exercised: {worst})",
    )

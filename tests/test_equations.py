"""Polynomial equation systems over a chain and their interval solutions."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import (
    BudgetExceededError,
    Chain,
    Equation,
    EquationSystem,
    Monomial,
    PointAssignment,
    Polynomial,
    Relation,
    eval_polynomial,
    gen_system,
    satisfies,
    solve_intervals,
    solve_points,
)
from fuzzmin import equations
from fuzzmin.chain import _layout, _unpack
from fuzzmin.equations import polynomial_eq_solutions, rhs_values
from fuzzmin.generate import random_chain_labels, random_system
from fuzzmin.oracles import grid_search_point

from helpers import (
    TupleBoxSolver,
    full_width_family,
    in_box,
    monomial_eq_solutions,
    monomial_le_solutions,
    per_equation_boxes,
)

CH = Chain(("0", "0.2", "0.5", "1"))


def _strs(solutions):
    return [str(v) for v in solutions]


def test_monomial_normalizes_variables():
    assert Monomial((2,0, 2)).vars == (0,2)
    with pytest.raises(ValueError):
        Monomial(())
    with pytest.raises(ValueError):
        Monomial((-1,))


def test_polynomial_keeps_first_occurrence_order():
    p = Polynomial((Monomial((1,0)), Monomial((2,)), Monomial((0,1))))
    assert [m.vars for m in p.monomials] == [(0,1), (2,)]
    with pytest.raises(ValueError):
        Polynomial(())


def test_evaluation_is_max_of_mins():
    p = Polynomial((Monomial((0,1)), Monomial((2,))))
    point = PointAssignment((CH.value("0.5"), CH.value("1"), CH.value("0.2")))
    assert eval_polynomial(p, point).label == "0.5"
    with pytest.raises(ValueError):
        eval_polynomial(p, PointAssignment((CH.value("1"),)))


def test_satisfies_requires_the_exact_value():
    x = Polynomial((Monomial((0,)),))
    eq_sys = EquationSystem(CH, 1, (Equation(x, Relation.EQ, CH.value("0.5")),))
    low = PointAssignment((CH.value("0.2"),))
    exact = PointAssignment((CH.value("0.5"),))
    high = PointAssignment((CH.value("1"),))
    assert satisfies(eq_sys, exact)
    assert not satisfies(eq_sys, low)
    assert not satisfies(eq_sys, high)
    with pytest.raises(ValueError):
        satisfies(eq_sys, PointAssignment((CH.value("0"), CH.value("0"))))


def test_system_rejects_out_of_range_variables():
    stray = Polynomial((Monomial((1,)),))
    with pytest.raises(ValueError):
        EquationSystem(CH, 1, (Equation(stray, Relation.EQ, CH.value("0")),))


def test_system_construction_checks():
    x = Polynomial((Monomial((0,)),))
    faults = [
        ("a system needs at least one variable", 0, [Equation(x, Relation.EQ, CH.value("0"))]),
        ("a system needs at least one equation", 1, []),
        (
            "right-hand side from a different chain",
            1,
            [Equation(x, Relation.EQ, Chain(("0", "1")).value("1"))],
        ),
    ]
    for message, n_vars, eqs in faults:
        with pytest.raises(ValueError, match=f"^{message}$"):
            EquationSystem(CH, n_vars, eqs)


def test_assignment_rejects_mixed_chains():
    other = Chain(("0", "1"))
    with pytest.raises(ValueError):
        PointAssignment((CH.value("0"), other.value("1")))


def test_an_empty_assignment_is_refused():
    with pytest.raises(ValueError, match="^empty assignment$"):
        PointAssignment(())


# interval families for a single monomial


def test_monomial_equality_family_by_hand():
    # x1 ∧ x2 = 0.5 in three variables: either variable can be the pinned one
    fam = monomial_eq_solutions(Monomial((0,1)), CH.value("0.5"), 3)
    assert _strs(fam) == [
        "([0.5,0.5], [0.5,1], [0,1])",
        "([0.5,1], [0.5,0.5], [0,1])",
    ]


def test_monomial_equality_family_collapses_at_the_top():
    # both variables must be exactly 1: the two cases coincide
    fam = monomial_eq_solutions(Monomial((0,1)), CH.value("1"), 2)
    assert _strs(fam) == ["([1,1], [1,1])"]


def test_monomial_bound_family_by_hand():
    fam = monomial_le_solutions(Monomial((0,1)), CH.value("0.5"), 3)
    assert _strs(fam) == [
        "([0,0.5], [0,1], [0,1])",
        "([0,1], [0,0.5], [0,1])",
    ]


def test_monomial_family_rejects_oversized_indices():
    with pytest.raises(ValueError):
        monomial_eq_solutions(Monomial((3,)), CH.value("0"), 3)


def test_polynomial_family_splits_on_the_attaining_monomial():
    # (x1 ∧ x2) ∨ x3 = 0.5: one monomial attains 0.5, the other stays below
    p = Polynomial((Monomial((0,1)), Monomial((2,))))
    fam = polynomial_eq_solutions(p, CH.value("0.5"), 3)
    assert _strs(fam) == [
        "([0,0.5], [0,1], [0.5,0.5])",
        "([0,1], [0,0.5], [0.5,0.5])",
        "([0.5,0.5], [0.5,1], [0,0.5])",
        "([0.5,1], [0.5,0.5], [0,0.5])",
    ]


def test_each_monomial_family_is_built_once_per_equation(monkeypatch):
    # k monomials need k <= families and k >= boxes, a lone monomial too
    pin_family = equations._pin_family
    built = []

    def spy(m, *args):
        built.append(m)
        return pin_family(m, *args)

    monkeypatch.setattr(equations, "_pin_family", spy)
    for k in range(1, 6):
        p = Polynomial(tuple(Monomial((i, (i + 1) % 5)) for i in range(k)))
        built.clear()
        polynomial_eq_solutions(p, CH.value("0.5"), 5)
        assert len(built) == 2 * k
        assert set(built) == set(p.monomials)


def test_one_equation_solves_as_its_full_width_family_at_every_cap():
    # polynomial_eq_solutions lays the family out over the variables used and
    # pads it; the referee builds the same family over all n_vars variables
    refusals = 0
    for seed in range(1000):
        rng = random.Random(seed)
        system = gen_system(
            8000 + seed, rng.randint(1, 7), 1, rng.randint(1, 4), rng.randint(2, 6)
        )
        (eq,) = system.equations
        for cap in (None, 1, 2, 3, 5, 10):
            got = _outcome(lambda: polynomial_eq_solutions(
                eq.lhs, eq.rhs, system.n_vars, max_vectors=cap
            ))
            want = _outcome(lambda: full_width_family(
                eq.lhs, eq.rhs, system.n_vars, max_vectors=cap
            ))
            assert got == want
            refusals += isinstance(got, str)
    assert 0 < refusals < 1000 * 6


def test_a_wide_family_is_refused_before_it_is_built(monkeypatch):
    # x1 ... x60000 = 0.5 would cap each of its variables in a box of its
    # own, 60,000 boxes of 60,000 pairs; the cells are charged first, so
    # that <= family is never built, only the up side's one >= box
    built = []
    pin_family = equations._pin_family

    def spy(m, shift, base, cut, pin):
        built.append((len(m.vars), "<=" if pin else ">="))
        return pin_family(m, shift, base, cut, pin)

    monkeypatch.setattr(equations, "_pin_family", spy)
    chain = Chain(("0", "0.5", "1"))

    def system(n_vars, monomials, label):
        p = Polynomial(tuple(Monomial(tuple(vs)) for vs in monomials))
        return EquationSystem(chain, n_vars, (Equation(p, Relation.EQ, chain.value(label)),))

    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(system(60_000, [range(60_000)], "0.5"))
    assert str(refused.value) == (
        "size 3600000000 exceeds budget 10000000 (interval solution cells)"
    )
    assert built == [(60_000, ">=")]
    # at the top value there is no clause, so no <= family: the one >= box
    # is the answer, 5 pairs
    built.clear()
    top = system(5, [range(5)], "1")
    assert solve_intervals(top, _max_cells=5).boxes == (((2, 2),) * 5,)
    assert built == [(5, ">=")]
    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(top, _max_cells=4)
    assert (refused.value.count, refused.value.limit) == (5, 4)
    # each <= family is charged before it is built: the clauses go smallest
    # first, and the second one's would hold 5 boxes of 6 pairs
    built.clear()
    split = system(6, [range(5), [5]], "0.5")
    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(split, _max_cells=29)
    assert str(refused.value) == "size 30 exceeds budget 29 (interval solution cells)"
    assert built == [(5, ">="), (1, ">="), (1, "<=")]
    # each >= box meets the 5 transversals, so the 10 boxes found hold 60
    # pairs; the two >= boxes come first, then the two <= families
    built.clear()
    assert len(solve_intervals(split, _max_cells=60)) == 10
    assert built == [(5, ">="), (1, ">="), (1, "<="), (5, "<=")]


def test_the_first_clause_family_is_the_running_set_as_built(monkeypatch):
    # x1 ... x500 = 0.5: its one clause family caps distinct variables, so
    # none of its boxes lies inside another and it is not stored box by
    # box; the one cross made is the up side's, of the whole box with the
    # >= box.  At 0 there is no >= box, and no cross at all
    crossed = []
    cross = equations._cross

    def spy(xs, ys, *args):
        crossed.append((len(xs), len(ys)))
        return cross(xs, ys, *args)

    monkeypatch.setattr(equations, "_cross", spy)
    chain = Chain(("0", "0.5", "1"))
    p = Polynomial((Monomial(tuple(range(500))),))
    for label, want in (("0.5", [(1, 1)]), ("0", [])):
        crossed.clear()
        system = EquationSystem(chain, 500, (Equation(p, Relation.EQ, chain.value(label)),))
        assert len(solve_intervals(system)) == 500
        assert crossed == want


@given(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True), st.data())
def test_pin_families_come_out_in_canonical_order(used, data):
    # a family is built in the order of m's variables, which the fields of
    # the compact renaming keep, and never sorted; canonical order is that
    # of the boxes' (lo, hi) pairs
    used.sort()
    top = data.draw(st.integers(1, 6))
    m = Monomial(tuple(data.draw(st.lists(st.sampled_from(used), min_size=1, unique=True))))
    rank = data.draw(st.integers(0, top))
    dim = len(used)
    shift = {v: (dim - 1 - i) * (top + 2) for i, v in enumerate(used)}
    base = _layout(top, dim)[1]
    ge, le = equations._cuts(rank, top)
    # the <= family, one box a variable below the top, and the one >= box
    for cut, pin, size in ((0, le, len(m.vars) if rank < top else 1), (ge, 0, 1)):
        family = equations._pin_family(m, shift, base, cut, pin)
        assert family == sorted(family, key=lambda box: _unpack(box, top, dim))
        assert len(family) == size


# whole systems


def _system():
    eq1 = Equation(
        Polynomial((Monomial((0,1)), Monomial((2,)))), Relation.EQ, CH.value("0.5")
    )
    eq2 = Equation(Polynomial((Monomial((2,)),)), Relation.EQ, CH.value("0.2"))
    return EquationSystem(CH, 3, (eq1, eq2))


def test_interval_solver_by_hand():
    # the x3 = 0.5 cases of the first equation die against x3 = 0.2
    assert _strs(solve_intervals(_system())) == [
        "([0.5,0.5], [0.5,1], [0.2,0.2])",
        "([0.5,1], [0.5,0.5], [0.2,0.2])",
    ]


def test_interval_solver_cap():
    p = Polynomial((Monomial((0,)), Monomial((1,)), Monomial((2,))))
    system = EquationSystem(CH, 3, (Equation(p, Relation.EQ, CH.value("0.5")),))
    assert len(solve_intervals(system)) == 3
    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(system, max_vectors=2)
    assert (refused.value.count, refused.value.limit) == (3, 2)


def test_interval_solver_refuses_as_the_running_set_grows():
    # x1 v x2 v x3 = 0.5 and x4 v x5 v x6 = 0.5 have 3 boxes each; their 9
    # intersections pin different variable pairs, so none lies inside another
    def spread(first):
        p = Polynomial(tuple(Monomial((first + i,)) for i in range(3)))
        return Equation(p, Relation.EQ, CH.value("0.5"))

    system = EquationSystem(CH, 6, (spread(0), spread(3)))
    assert len(solve_intervals(system)) == 9
    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(system, max_vectors=4)
    # refused at the fifth box the up side stores, before the other pairs
    # were tried
    assert (refused.value.count, refused.value.limit) == (5, 4)


def test_interval_solver_cap_binds_inside_one_family():
    # x1 x2 v x3 x4 = 0.5: the down side's two 2-box clause families cross
    # into 4 points, so a cap of 3 refuses at the fourth, before the 8 boxes
    # are paired
    p = Polynomial((Monomial((0, 1)), Monomial((2, 3))))
    system = EquationSystem(CH, 4, (Equation(p, Relation.EQ, CH.value("0.5")),))
    assert len(solve_intervals(system)) == 8
    with pytest.raises(BudgetExceededError) as refused:
        solve_intervals(system, max_vectors=3)
    assert (refused.value.count, refused.value.limit) == (4, 3)


def _renamed(system, n_vars, place):
    """system on n_vars variables, its variable i renamed to place[i]."""
    equations = tuple(
        Equation(
            Polynomial(tuple(
                Monomial(tuple(place[i] for i in m.vars)) for m in eq.lhs.monomials
            )),
            eq.relation,
            eq.rhs,
        )
        for eq in system.equations
    )
    return EquationSystem(system.chain, n_vars, equations)


@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 12))
def test_unused_variables_pad_the_boxes_of_the_compact_twin(seed, extra, cap):
    rng = random.Random(seed)
    chain = Chain(random_chain_labels(rng, rng.randint(2, 4)))
    drawn = random_system(rng, chain, rng.randint(1, 5), rng.randint(1, 3), 3)
    used = sorted({i for eq in drawn.equations for m in eq.lhs.monomials for i in m.vars})
    # the twin mentions every variable, so it is solved at full width
    compact = _renamed(drawn, len(used), {v: i for i, v in enumerate(used)})
    where = sorted(rng.sample(range(len(used) + extra), len(used)))
    wide = _renamed(compact, len(used) + extra, where)

    def outcome(system, pad):
        try:
            boxes = solve_intervals(system, max_vectors=cap).boxes
        except BudgetExceededError as refused:
            return refused.count
        return [pad(box) for box in boxes]

    def padded(box):
        out = [(0, len(chain) - 1)] * wide.n_vars
        for v, pair in zip(where, box):
            out[v] = pair
        return tuple(out)

    assert outcome(wide, tuple) == outcome(compact, padded)


# (n_vars, equations, max monomials, chain size); the last packs 22-bit
# fields, so a box of three or more used variables is wider than 64 bits
_DIFFERENTIAL_SHAPES = ((3, 2, 2, 3), (5, 5, 3, 5), (4, 3, 3, 4), (8, 3, 2, 21))


def _outcome(solve):
    try:
        return solve()
    except BudgetExceededError as refused:
        return str(refused)


def _wide_monomial_systems():
    """Systems whose first equation is one monomial over 8-12 variables,
    its rhs at every rank in turn, so a cap binds inside that family, or
    the family is one box when the rhs is the top."""
    for seed in range(16):
        rng = random.Random(7100 + seed)
        chain = Chain(random_chain_labels(rng, rng.randint(2, 4)))
        n_vars = rng.randint(8, 12)
        wide = Monomial(tuple(rng.sample(range(n_vars), rng.randint(8, n_vars))))
        first = Equation(Polynomial((wide,)), Relation.EQ, chain[seed % len(chain)])
        rest = random_system(rng, chain, n_vars, 2, 2).equations[: seed % 3]
        yield EquationSystem(chain, n_vars, (first, *rest))


def test_packed_solver_matches_the_tuple_box_reference_at_every_cap():
    systems = [
        gen_system(7000 + seed, n_vars, n_equations, max_monomials, chain_size)
        for n_vars, n_equations, max_monomials, chain_size in _DIFFERENTIAL_SHAPES
        for seed in range(30)
    ]
    widest = 0
    for system in [*systems, *_wide_monomial_systems()]:
        reference = TupleBoxSolver()
        assert solve_intervals(system).boxes == reference.solve(system)
        used = {i for eq in system.equations for m in eq.lhs.monomials for i in m.vars}
        widest = max(widest, len(used) * (len(system.chain) + 1))
        # same boxes in the same order, or the same refusal, at every cap
        for cap in range(1, reference.peak + 2):
            assert _outcome(lambda: solve_intervals(system, max_vectors=cap).boxes) == (
                _outcome(lambda: TupleBoxSolver(cap).solve(system))
            )
    assert widest > 64


# the shapes the old per-equation order was sized on: (n_vars, equations,
# max monomials, chain size)
_ORDER_SHAPES = (
    (5, 5, 3, 5), (6, 5, 3, 5), (8, 6, 3, 5), (10, 8, 3, 5), (12, 4, 4, 6), (4, 3, 2, 3)
)


def _planted(system, seed):
    """system with each rhs replaced by its polynomial's value at a point
    drawn from random.Random(f"p/{seed}"), so that it is solvable."""
    rng = random.Random(f"p/{seed}")
    chain = system.chain
    point = PointAssignment(tuple(chain[rng.randrange(len(chain))] for _ in range(system.n_vars)))
    return EquationSystem(chain, system.n_vars, tuple(
        Equation(eq.lhs, eq.relation, eval_polynomial(eq.lhs, point)) for eq in system.equations
    ))


def test_transversal_families_match_the_case_split_referee():
    # the two sides give the boxes of the algorithm they replaced: each
    # equation's case split over the monomial that attains the rhs, crossed
    # in equation order; the planted twins are solvable, so every one of
    # their families is crossed
    drawn = [
        (9000 + seed, gen_system(9000 + seed, *shape))
        for shape in _ORDER_SHAPES for seed in range(170)
    ]
    systems = [system for _, system in drawn] + [_planted(system, seed) for seed, system in drawn]
    got = [solve_intervals(system).boxes for system in systems]
    assert [per_equation_boxes(system) for system in systems] == got
    assert len(systems) >= 2000
    assert sum(1 for boxes in got if boxes) > len(systems) // 2
    assert sum(1 for boxes in got if len(boxes) > 1) > 0


def _le_families(monkeypatch):
    """Spy on the solver's <= families: the (variables, rank) of each one
    built, in order, and "cross" for each cross after the first of them."""
    built = []
    pin_family, cross = equations._pin_family, equations._cross

    def family_spy(m, shift, base, cut, pin):
        if pin:
            built.append((m.vars, pin))
        return pin_family(m, shift, base, cut, pin)

    def cross_spy(*args):
        if built:
            built.append("cross")
        return cross(*args)

    monkeypatch.setattr(equations, "_pin_family", family_spy)
    monkeypatch.setattr(equations, "_cross", cross_spy)
    return built


def test_clauses_are_crossed_smallest_first_ties_in_first_appearance(monkeypatch):
    # one clause per monomial at its least rhs below the top; x1 x2 x3 is
    # implied by x1 x2 and x3 x4 x5 by x4 at the same rank, so of the
    # sizes 2, 3, 1, 3 and 1 only x6, x4 and x1 x2 are left, in that order.
    # Each family after the first is crossed into the running set once
    built = _le_families(monkeypatch)
    lhss = [
        Polynomial((Monomial((0, 1)), Monomial((2, 3, 4)))),
        Polynomial((Monomial((5,)),)),
        Polynomial((Monomial((0, 1, 2)),)),
        Polynomial((Monomial((3,)),)),
    ]
    system = EquationSystem(CH, 6, tuple(Equation(p, Relation.EQ, CH.value("0.5")) for p in lhss))
    assert len(solve_intervals(system)) > 0
    assert [entry if entry == "cross" else entry[0] for entry in built] == [
        (5,), (3,), "cross", (0, 1), "cross"
    ]
    # drawn systems: sizes never fall, ties keep first appearance, and the
    # solvable ones build every clause's family
    for seed in range(30):
        system = gen_system(7000 + seed, 6, 5, 3, 5)
        built.clear()
        solved = len(solve_intervals(system)) > 0
        place = {}
        for eq in system.equations:
            for m in eq.lhs.monomials:
                place.setdefault(m.vars, len(place))
        families = [vs for vs, _ in (e for e in built if e != "cross")]
        keys = [(len(vs), place[vs]) for vs in families]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        reference = TupleBoxSolver()
        reference.solve(system)
        assert families == [vs for vs, _ in reference.clauses]
        if solved:
            assert reference.clauses == reference.clauses_all


def test_point_solver_walks_the_grid_in_order():
    # first hit in lex order over the rhs values, first variable most significant
    point = solve_points(_system())
    assert point is not None
    assert point.labels() == ("0.5", "0.5", "0.2")
    assert satisfies(_system(), point)


def test_point_solver_on_a_single_rhs_value():
    system = EquationSystem(
        CH, 1, (Equation(Polynomial((Monomial((0,)),)), Relation.EQ, CH.value("0")),)
    )
    assert solve_points(system).labels() == ("0",)


def test_point_solver_refuses_the_one_point_of_too_many_values():
    # one rhs value: a grid of one point, of n_vars values
    x = Polynomial((Monomial((0,)),))
    system = EquationSystem(CH, 5, (Equation(x, Relation.EQ, CH.value("0.5")),))
    assert solve_points(system, max_candidates=5).labels() == ("0.5",) * 5
    with pytest.raises(BudgetExceededError) as refused:
        solve_points(system, max_candidates=4)
    assert str(refused.value) == "size 5 exceeds budget 4 (point-search weights)"


def test_a_wide_point_shares_one_value_object():
    # one rhs value over 10^5 variables: every coordinate is the chain's own
    # value, not a copy per variable
    x = Polynomial((Monomial((0,)),))
    system = EquationSystem(CH, 100_000, (Equation(x, Relation.EQ, CH.value("0.5")),))
    point = solve_points(system)
    assert len(point.values) == 100_000
    assert len({id(v) for v in point.values}) == 1
    assert point.values[0] is CH.value("0.5")


def test_point_solver_refuses_an_oversized_grid_up_front():
    # the grid of _system() is 2**3 = 8 points
    with pytest.raises(BudgetExceededError) as refused:
        solve_points(_system(), max_candidates=7)
    assert (refused.value.count, refused.value.limit) == (8, 7)
    assert solve_points(_system(), max_candidates=8) is not None
    # 3**10000 has 4,772 digits, past the 4,300 an int may print with
    x = Polynomial((Monomial((0,)),))
    wide = EquationSystem(
        CH, 10_000, tuple(Equation(x, Relation.EQ, CH.value(v)) for v in ("0", "0.5", "1"))
    )
    with pytest.raises(BudgetExceededError) as refused:
        solve_points(wide)
    assert str(refused.value) == (
        "size 3^10000 exceeds budget 10000000 (point-search grid)"
    )


def test_unsolvable_system():
    x = Polynomial((Monomial((0,)),))
    clash = EquationSystem(
        CH,
        1,
        (
            Equation(x, Relation.EQ, CH.value("0.5")),
            Equation(x, Relation.EQ, CH.value("1")),
        ),
    )
    assert len(solve_intervals(clash)) == 0
    assert solve_points(clash) is None


def test_solve_intervals_stops_at_the_first_empty_running_set(monkeypatch):
    # the up side never empties (every variable at the top is above every
    # rhs), so the only set that empties is the down side's, once no point
    # of it has a u below; after it no clause family is built and nothing
    # is crossed.  The solver works on the list-level helpers, so those are
    # the ones spied on
    built = _le_families(monkeypatch)
    stopped_early = 0
    for seed in range(30):
        system = gen_system(7000 + seed, 5, 5, 3, 5)
        built.clear()
        solved = len(solve_intervals(system)) > 0
        families = [e for e in built if e != "cross"]
        # each family after the first is crossed once, and the families
        # are those of the clauses the reference crosses before its down
        # side empties, so nothing is built or crossed after it
        assert built == families[:1] + [e for f in families[1:] for e in (f, "cross")]
        reference = TupleBoxSolver()
        assert bool(reference.solve(system)) == solved
        assert [vs for vs, _ in families] == [vs for vs, _ in reference.clauses]
        stopped_early += len(families) < len(reference.clauses_all)
    assert stopped_early > 0


def test_the_two_sides_refute_a_heavy_draw_within_a_small_cap():
    # 20 equations over 30 variables: no point of D keeps a point of U
    # below it past a few clauses, so no set ever holds more than 100
    # boxes; crossing one family per equation passed 500 boxes on it
    system = gen_system(16, 30, 20, 5, 6)
    assert len(solve_intervals(system, max_vectors=100)) == 0


def test_rhs_value_pool_is_sorted_and_distinct():
    assert [v.label for v in rhs_values(_system())] == ["0.2", "0.5"]


@given(st.integers(0,2**32))
def test_solvers_agree_and_answers_check_out(seed):
    rng = random.Random(seed)
    chain = Chain(random_chain_labels(rng, rng.randint(2,4)))
    n_vars = rng.randint(1,3)
    system = random_system(rng, chain, n_vars, rng.randint(1,3), 3)

    sols = solve_intervals(system)
    point = solve_points(system)
    assert bool(sols) == (point is not None)

    if point is not None:
        assert satisfies(system, point)
        assert any(in_box(box, point.values) for box in sols.boxes)

    # the boxes hold exactly the solutions on the full chain grid, and none
    # lies inside another
    grid = list(itertools.product(chain, repeat=n_vars))
    boxes = [{p for p in grid if in_box(box, p)} for box in sols.boxes]
    for p in grid:
        assert satisfies(system, PointAssignment(p)) == any(p in box for box in boxes)
    for i, box in enumerate(boxes):
        assert not any(box <= other for j, other in enumerate(boxes) if j != i)

    # grid search over the full chain is the ground truth for solvability
    brute = grid_search_point(system, tuple(chain))
    assert (brute is None) == (point is None)

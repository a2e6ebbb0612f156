"""Chains, values, intervals, and solution-set canonicalization."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import (
    EMPTY,
    Chain,
    Interval,
    IntervalVector,
    SolutionSet,
    cross_intersect,
    intersect,
    is_decimal_label,
)

CH = Chain(("0", "0.25", "0.5", "0.75", "1"))


def test_ranks_follow_declared_order():
    assert [v.label for v in CH] == ["0", "0.25", "0.5", "0.75", "1"]
    assert CH.zero.rank == 0
    assert CH.one.rank == 4
    assert CH.rank_of("0.75") == 3
    assert CH.rank_of(Fraction(3, 4)) == 3
    assert CH.value("0.5").fraction == Fraction(1, 2)


def test_labels_keep_declared_spelling():
    ch = Chain(("0", "0.50", "1"))
    assert ch.label(1) == "0.50"
    assert ch.rank_of("0.5") == 1  # lookup is by value, not spelling


def test_membership():
    assert "0.25" in CH
    assert Fraction(1, 4) in CH
    assert "0.3" not in CH
    assert CH.value("0.5") in CH
    with pytest.raises(ValueError):
        CH.rank_of("0.3")


@pytest.mark.parametrize(
    "labels",
    [
        ("0",),
        ("0", "1", "0.5"),
        ("0", "0.5", "0.50", "1"),
        ("0.1", "1"),
        ("0", "0.9"),
        ("0", "x", "1"),
        ("0", "-0.5", "1"),
    ],
)
def test_bad_chains_rejected(labels):
    with pytest.raises(ValueError):
        Chain(labels)


def test_decimal_label_shapes():
    for good in ("0", "1", "0.25", "10.5", "007"):
        assert is_decimal_label(good)
    for bad in ("", ".5", "0.", "1e3", "-1", "0.5.1", " 0.5", "0.5 ", None, 0.5):
        assert not is_decimal_label(bad)


def test_meet_join_are_min_max():
    a, b = CH.value("0.25"), CH.value("0.75")
    assert min(a, b) == a
    assert max(a, b) == b
    assert min(a, a) == a
    assert a < b <= CH.one


def test_values_from_different_chains_do_not_mix():
    other = Chain(("0", "1"))
    with pytest.raises(ValueError):
        CH.zero < other.one  # noqa: B015


# intervals


def test_interval_constructors():
    v = CH.value("0.5")
    assert str(Interval.point(v)) == "[0.5,0.5]"
    assert str(Interval.at_most(v)) == "[0,0.5]"
    assert str(Interval.at_least(v)) == "[0.5,1]"
    assert str(Interval.full(CH)) == "[0,1]"
    assert Interval.closed(CH.zero, v).hi == v
    with pytest.raises(ValueError):
        Interval.closed(v, CH.zero)


def test_empty_interval_is_canonical():
    assert EMPTY.is_empty
    assert str(EMPTY) == "EMPTY"
    assert not EMPTY.contains(CH.zero)
    with pytest.raises(ValueError):
        Interval(None, 0, 0)  # crossed or fake empties are not representable
    with pytest.raises(ValueError):
        EMPTY.lo
    with pytest.raises(ValueError):
        Interval(CH, 3, 1)


def test_intersection_crosses_to_empty():
    lo, hi = CH.value("0.25"), CH.value("0.75")
    assert intersect(Interval.at_most(lo), Interval.at_least(hi)) == EMPTY
    assert str(intersect(Interval.at_least(lo), Interval.at_most(hi))) == "[0.25,0.75]"
    assert intersect(EMPTY, Interval.full(CH)) == EMPTY


intervals = st.tuples(
    st.integers(0, len(CH) - 1), st.integers(0, len(CH) - 1)
).map(lambda p: Interval(CH, min(p), max(p)))


@given(intervals, intervals)
def test_intersection_agrees_with_membership(x, y):
    z = intersect(x, y)
    for v in CH:
        assert z.contains(v) == (x.contains(v) and y.contains(v))


# interval vectors and solution sets


def test_vector_intersection_is_coordinatewise():
    v1 = IntervalVector((Interval.at_least(CH.value("0.5")), Interval.full(CH)))
    v2 = IntervalVector((Interval.at_most(CH.value("0.25")), Interval.point(CH.one)))
    got = v1.intersect(v2)
    assert not got.is_nonempty
    assert got.coords[0] == EMPTY
    assert str(got.coords[1]) == "[1,1]"
    with pytest.raises(ValueError):
        v1.intersect(IntervalVector((Interval.full(CH),)))


def test_vector_point_membership():
    v = IntervalVector(
        (Interval.at_least(CH.value("0.5")), Interval.at_most(CH.value("0.5")))
    )
    assert v.contains_point((CH.one, CH.zero))
    assert not v.contains_point((CH.zero, CH.zero))
    dead = IntervalVector((EMPTY, Interval.full(CH)))
    assert not dead.contains_point((CH.zero, CH.zero))


def test_solution_sets_canonicalize():
    a = IntervalVector((Interval.full(CH), Interval.point(CH.one)))
    b = IntervalVector((Interval.point(CH.one), Interval.full(CH)))
    assert SolutionSet(2, (a, b, a)) == SolutionSet(2, (b, a))
    assert len(SolutionSet(2, (a, b, a))) == 2
    assert [str(v) for v in SolutionSet(2, (b, a))] == [
        "([0,1], [1,1])",
        "([1,1], [0,1])",
    ]


def test_vector_containment_is_coordinatewise():
    full = IntervalVector((Interval.full(CH), Interval.full(CH)))
    inner = IntervalVector((Interval.point(CH.one), Interval.full(CH)))
    dead = IntervalVector((EMPTY, Interval.full(CH)))
    assert full.contains_vector(inner) and full.contains_vector(full)
    assert not inner.contains_vector(full)
    assert inner.contains_vector(dead) and not dead.contains_vector(inner)
    with pytest.raises(ValueError):
        full.contains_vector(IntervalVector((Interval.full(CH),)))


def test_empty_and_contained_vectors_are_dropped():
    dead = IntervalVector((EMPTY, Interval.full(CH)))
    live = IntervalVector((Interval.full(CH), Interval.full(CH)))
    inner = IntervalVector((Interval.point(CH.one), Interval.full(CH)))
    assert len(SolutionSet(2, (dead,))) == 0
    assert SolutionSet(2, (dead, inner)).vectors == (inner,)
    assert SolutionSet(2, (inner, dead, live)).vectors == (live,)
    with pytest.raises(ValueError):
        SolutionSet(2, (IntervalVector((Interval.full(CH),)),))


vectors2 = st.tuples(intervals, intervals).map(IntervalVector)
sets2 = st.lists(vectors2, min_size=1, max_size=4).map(
    lambda vs: SolutionSet(2, tuple(vs))
)


def _points(v):
    return {p for p in itertools.product(CH, repeat=v.dim) if v.contains_point(p)}


@given(sets2, sets2)
def test_cross_intersect_covers_exactly_the_common_points(s1, s2):
    prod = cross_intersect(s1, s2)
    assert len(prod) <= len(s1) * len(s2)
    for p in itertools.product(CH, repeat=2):
        in1 = any(v.contains_point(p) for v in s1)
        in2 = any(v.contains_point(p) for v in s2)
        assert any(v.contains_point(p) for v in prod) == (in1 and in2)
    # an antichain of live boxes: each holds a point, none lies inside another
    boxes = [_points(v) for v in prod]
    for i, box in enumerate(boxes):
        assert box
        assert not any(box <= other for j, other in enumerate(boxes) if j != i)

"""Chains, values, intervals, and solution-set canonicalization."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import Chain
from fuzzmin.chain import (
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


def test_intervals_are_never_empty():
    # crossed or out-of-range bounds are not representable
    for lo, hi in ((3, 1), (-1, -1), (0, len(CH))):
        with pytest.raises(ValueError):
            Interval(CH, lo, hi)
    point = Interval(CH, 2, 2)
    assert point.lo == point.hi == CH.value("0.5")
    assert point.contains(CH.value("0.5")) and not point.contains(CH.one)
    with pytest.raises(ValueError):
        point.contains(Chain(("0", "1")).zero)


def test_intersection_crosses_to_empty():
    lo, hi = CH.value("0.25"), CH.value("0.75")
    assert intersect(Interval.at_most(lo), Interval.at_least(hi)) is None
    assert str(intersect(Interval.at_least(lo), Interval.at_most(hi))) == "[0.25,0.75]"
    assert str(intersect(Interval.at_most(lo), Interval.at_least(lo))) == "[0.25,0.25]"
    with pytest.raises(ValueError):
        intersect(Interval.full(CH), Interval.full(Chain(("0", "1"))))


intervals = st.tuples(
    st.integers(0, len(CH) - 1), st.integers(0, len(CH) - 1)
).map(lambda p: Interval(CH, min(p), max(p)))


@given(intervals, intervals)
def test_intersection_agrees_with_membership(x, y):
    z = intersect(x, y)
    common = [v for v in CH if x.contains(v) and y.contains(v)]
    # None exactly when no chain value lies in both; otherwise exactly those values
    assert (z is None) == (not common)
    if z is not None:
        assert [v for v in CH if z.contains(v)] == common


# interval vectors and solution sets


def test_vector_intersection_is_coordinatewise():
    v1 = IntervalVector((Interval.at_least(CH.value("0.5")), Interval.full(CH)))
    v2 = IntervalVector((Interval.at_most(CH.value("0.5")), Interval.point(CH.one)))
    v3 = IntervalVector((Interval.at_most(CH.value("0.25")), Interval.point(CH.one)))
    assert str(v1.intersect(v2)) == "([0.5,0.5], [1,1])"
    # one disjoint coordinate pair makes the whole intersection empty
    assert v1.intersect(v3) is None
    assert v3.intersect(v1) is None
    with pytest.raises(ValueError):
        v1.intersect(IntervalVector((Interval.full(CH),)))


vectors2 = st.tuples(intervals, intervals).map(IntervalVector)


@given(vectors2, vectors2)
def test_vector_intersection_is_none_iff_a_coordinate_pair_is_disjoint(v, w):
    got = v.intersect(w)
    disjoint = any(intersect(a, b) is None for a, b in zip(v.coords, w.coords))
    assert (got is None) == disjoint
    if got is not None:
        assert got.coords == tuple(map(intersect, v.coords, w.coords))
        for p in itertools.product(CH, repeat=2):
            both = v.contains_point(p) and w.contains_point(p)
            assert got.contains_point(p) == both


def test_vector_point_membership():
    v = IntervalVector(
        (Interval.at_least(CH.value("0.5")), Interval.at_most(CH.value("0.5")))
    )
    assert v.contains_point((CH.one, CH.zero))
    assert not v.contains_point((CH.zero, CH.zero))
    with pytest.raises(ValueError):
        v.contains_point((CH.one,))


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
    beside = IntervalVector((Interval.full(CH), Interval.point(CH.zero)))
    assert full.contains_vector(inner) and full.contains_vector(full)
    assert not inner.contains_vector(full)
    # overlapping but incomparable boxes: neither holds the other
    assert not inner.contains_vector(beside) and not beside.contains_vector(inner)
    with pytest.raises(ValueError):
        full.contains_vector(IntervalVector((Interval.full(CH),)))


def test_contained_vectors_are_dropped():
    full = IntervalVector((Interval.full(CH), Interval.full(CH)))
    inner = IntervalVector((Interval.point(CH.one), Interval.full(CH)))
    point = IntervalVector((Interval.point(CH.one), Interval.point(CH.one)))
    beside = IntervalVector((Interval.full(CH), Interval.point(CH.zero)))
    assert len(SolutionSet(2, ())) == 0
    assert SolutionSet(2, (point, inner)).vectors == (inner,)
    assert SolutionSet(2, (inner, point, full)).vectors == (full,)
    assert SolutionSet(2, (point, beside, inner)).vectors == (beside, inner)
    with pytest.raises(ValueError):
        SolutionSet(2, (IntervalVector((Interval.full(CH),)),))
    with pytest.raises(ValueError):
        SolutionSet(1, (IntervalVector((Interval.full(CH),)),
                        IntervalVector((Interval.full(Chain(("0", "1"))),))))


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

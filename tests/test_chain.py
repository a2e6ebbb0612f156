"""Chains, values, rank boxes, and solution-set canonicalization."""

from __future__ import annotations

import itertools
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzmin.chain
from fuzzmin import BudgetExceededError, Chain
from fuzzmin.chain import (
    ChainValue,
    SolutionSet,
    _cross,
    _layout,
    _pack,
    cross_intersect,
    is_decimal_label,
)
from fuzzmin.generate import random_chain_labels

from helpers import in_box, scaled_chain, scaled_rank_of, solution_set

CH = Chain(("0", "0.25", "0.5", "0.75", "1"))


def test_ranks_follow_declared_order():
    assert [v.label for v in CH] == ["0", "0.25", "0.5", "0.75", "1"]
    assert CH.zero.rank == 0
    assert CH.one.rank == 4
    assert CH.rank_of("0.75") == 3
    assert CH.rank_of(Fraction(3, 4)) == 3


def test_each_value_is_built_once_with_its_chain():
    for r in range(len(CH)):
        assert CH[r] is CH[r]
        assert list(CH)[r] is CH[r]
    assert CH.zero is CH[0] and CH.one is CH[len(CH) - 1]
    assert CH.value("0.5") is CH[2]
    with pytest.raises(ValueError):
        ChainValue(CH, len(CH))
    for rank in (len(CH), -1):
        with pytest.raises(IndexError, match=f"^rank {rank} out of range for chain of {len(CH)}$"):
            CH[rank]


def test_labels_keep_declared_spelling():
    ch = Chain(("0", "0.50", "1"))
    assert ch.label(1) == "0.50"
    assert ch.rank_of("0.5") == 1  # lookup is by value, not spelling
    assert str(ch.value("0.5")) == "0.50"
    assert repr(ch.value("0.5")) == "ChainValue('0.50')"


def test_membership():
    assert CH.rank_of("0.25") == CH.rank_of(Fraction(1, 4)) == 1
    assert CH.value("0.5").chain == CH
    for stranger in ("0.3", Fraction(1, 3), "2", "x"):
        with pytest.raises(ValueError):
            CH.rank_of(stranger)


def test_a_chain_is_checked_without_building_rationals(monkeypatch):
    # order and endpoints are checked on the labels' Decimal values; only a
    # lookup of a value not spelled as declared builds a Fraction
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(fuzzmin.chain, "Fraction", Counted)
    ch = Chain(("0", "0.05", "0.5", "0.75", "1"))
    assert [ch.rank_of(label) for label in ch.labels] == [0, 1, 2, 3, 4]
    assert built == []
    assert ch.rank_of("0.50") == ch.rank_of("1/2") == ch.rank_of(Fraction(1, 2)) == 2
    assert ch.rank_of("0.050") == 1 and ch.rank_of("1.00") == 4
    for stranger in ("0.5001", "1/3", "2", "0.04999"):
        with pytest.raises(ValueError, match="not a member"):
            ch.rank_of(stranger)
    assert built


_FRACTIONAL = st.text("0123456789", min_size=1, max_size=40).map(lambda d: "0." + d)
_JUNK = ("x", "", "-0.5", ".5", "0.", "1e3", " 0.5", "2", "1.5", "\u0660.\u0665")


@st.composite
def _chains(draw):
    """Label lists, mostly valid chains: interior labels with up to 40
    fractional digits, endpoints in several spellings, and sometimes an
    endpoint dropped, the order shuffled or a bad label put in."""
    interior = sorted(draw(st.lists(_FRACTIONAL, max_size=8)), key=Fraction)
    labels = [
        draw(st.sampled_from(("0", "00", "0.0", "0.000"))),
        *interior,
        draw(st.sampled_from(("1", "1.0", "01", "1.00"))),
    ]
    broken = draw(st.integers(0, 5))
    if broken == 1:
        del labels[draw(st.sampled_from((0, -1)))]
    elif broken == 2:
        labels = draw(st.permutations(labels))
    elif broken == 3:
        labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(_JUNK)))
    return tuple(labels)


def _spellings(label):
    """Ways to write a label's value other than as declared."""
    value = Fraction(label)
    return [
        label + ("0" if "." in label else ".0"),
        "0" + label,
        " " + label,
        f"{value.numerator}/{value.denominator}",
        format(Decimal(label), "e"),
        value,
    ]


def _outcome(rank_of, *args):
    try:
        return rank_of(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(_chains())
def test_chain_checks_and_ranks_match_the_scaled_integer_referee(labels):
    try:
        ch = Chain(labels)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            scaled_chain(labels)
        assert str(refused.value) == str(exc)
        return
    scaled_chain(labels)
    values = ["NaN", "", "1/0", "x", "inf", "0.5.1", "2", "1.5", Fraction(-1, 2)]
    for label, above in zip(labels, labels[1:]):
        values += [label, *_spellings(label), (Fraction(label) + Fraction(above)) / 2]
    values += [labels[-1], *_spellings(labels[-1])]
    for value in values:
        assert _outcome(ch.rank_of, value) == _outcome(scaled_rank_of, labels, value)


def test_a_label_past_the_int_conversion_limit_is_kept_exact():
    # 5,001 fractional digits, more than int() converts by default
    tiny = "0." + "0" * 5000 + "1"
    ch = Chain(("0", tiny, "1"))
    assert ch.rank_of(tiny) == 1
    assert ch.rank_of(Fraction(1, 10**5001)) == 1
    with pytest.raises(ValueError, match="not a member"):
        ch.rank_of(Fraction(1, 10**4000))


def test_a_respelling_past_the_int_conversion_limit_is_read_exactly():
    # 5,001 trailing zeros: read as a Decimal, which has no digit limit
    ch = Chain(("0", "0.5", "1"))
    assert ch.rank_of("0.5" + "0" * 5000) == 1
    assert ch.rank_of("0" * 5000 + "1") == 2
    with pytest.raises(ValueError, match="is not a member of the chain"):
        ch.rank_of("0.5" + "0" * 5000 + "1")


def test_a_non_member_past_the_int_conversion_limit_is_named_by_its_size():
    # its repr would need a 5,001-digit int printed
    ch = Chain(("0", "0.5", "1"))
    limit = sys.get_int_max_str_digits()
    for value in (Fraction(1, 10**5000), Fraction(10**5000 + 1, 10**5000)):
        with pytest.raises(ValueError) as refused:
            ch.rank_of(value)
        assert str(refused.value) == (
            f"value with a term of more than {limit} digits is not a member of the chain"
        )


@pytest.mark.parametrize(
    "labels, message",
    [
        ((), "chain needs at least the two endpoints"),
        (("0", "x"), "chain values must be decimal strings, got 'x'"),
        (("0.5", "x", "0.1"), "chain values must be decimal strings, got 'x'"),
        (("1", "0"), "strictly ascending"),
        (("0", "0.10", "0.1", "1"), "strictly ascending"),
        (("0", "0.09", "0.1", "0.099", "1"), "strictly ascending"),
        (("0.01", "1"), "must start at value 0"),
        (("0", "0.999"), "must end at value 1"),
        (("0.000", "1.0"), None),
        (("00", "0.5", "01"), None),
        (("0", "0." + "0" * 4000 + "1", "1"), None),
    ],
)
def test_chain_errors_come_in_their_order(labels, message):
    if message is None:
        assert len(Chain(labels)) == len(labels)
    else:
        with pytest.raises(ValueError, match=message):
            Chain(labels)


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
    # Arabic-Indic, full-width and Devanagari digits: only ASCII digits count
    for bad in ("\u0660.\u0665", "\uff10.\uff15", "\u0661", "0.\u0969", "\uff11"):
        assert not is_decimal_label(bad)


# rank boxes and solution sets

TOP = len(CH) - 1
FULL = (0, TOP)


def _one(box):
    """The solution set of a single box."""
    return solution_set(CH, len(box), (box,))


def _strs(solutions):
    return [str(v) for v in solutions]


def test_intervals_are_never_empty():
    # crossed or out-of-range bounds are not representable
    for lo, hi in ((3, 1), (-1, -1), (0, len(CH))):
        with pytest.raises(ValueError):
            _one(((lo, hi),))
    point = _one(((2, 2),))
    assert _strs(point) == ["([0.5,0.5])"]
    assert all(v.is_nonempty for v in point)


def test_intersection_crosses_to_empty():
    assert len(cross_intersect(_one(((0, 1),)), _one(((3, TOP),)))) == 0
    assert _strs(cross_intersect(_one(((1, TOP),)), _one(((0, 3),)))) == ["([0.25,0.75])"]
    assert _strs(cross_intersect(_one(((0, 1),)), _one(((1, TOP),)))) == ["([0.25,0.25])"]
    with pytest.raises(ValueError):
        cross_intersect(_one((FULL,)), solution_set(Chain(("0", "1")), 1, (((0, 1),),)))


rank_pairs = st.tuples(st.integers(0, TOP), st.integers(0, TOP)).map(
    lambda p: (min(p), max(p))
)


@given(rank_pairs, rank_pairs)
def test_intersection_agrees_with_membership(x, y):
    z = cross_intersect(_one((x,)), _one((y,)))
    common = [r for r in range(len(CH)) if x[0] <= r <= x[1] and y[0] <= r <= y[1]]
    # empty exactly when no chain value lies in both; otherwise exactly those values
    assert len(z) == (1 if common else 0)
    if common:
        assert z.boxes == (((common[0], common[-1]),),)


def test_vector_intersection_is_coordinatewise():
    v1 = ((2, TOP), FULL)
    v2 = ((0, 2), (TOP, TOP))
    v3 = ((0, 1), (TOP, TOP))
    assert _strs(cross_intersect(_one(v1), _one(v2))) == ["([0.5,0.5], [1,1])"]
    # one disjoint coordinate pair makes the whole intersection empty
    assert len(cross_intersect(_one(v1), _one(v3))) == 0
    assert len(cross_intersect(_one(v3), _one(v1))) == 0
    with pytest.raises(ValueError):
        cross_intersect(_one(v1), _one((FULL,)))


boxes2 = st.tuples(rank_pairs, rank_pairs)


@given(boxes2, boxes2)
def test_vector_intersection_is_none_iff_a_coordinate_pair_is_disjoint(v, w):
    got = cross_intersect(_one(v), _one(w))
    meet = tuple((max(a[0], b[0]), min(a[1], b[1])) for a, b in zip(v, w))
    disjoint = any(lo > hi for lo, hi in meet)
    assert len(got) == (0 if disjoint else 1)
    if not disjoint:
        assert got.boxes == (meet,)
        for p in itertools.product(CH, repeat=2):
            assert in_box(meet, p) == (in_box(v, p) and in_box(w, p))


def test_solution_sets_canonicalize():
    a = (FULL, (TOP, TOP))
    b = ((TOP, TOP), FULL)
    assert solution_set(CH, 2, (a, b, a)) == solution_set(CH, 2, (b, a))
    assert len(solution_set(CH, 2, (a, b, a))) == 2
    assert _strs(solution_set(CH, 2, (b, a))) == [
        "([0,1], [1,1])",
        "([1,1], [0,1])",
    ]


def test_vector_containment_is_coordinatewise():
    full = (FULL, FULL)
    inner = ((TOP, TOP), FULL)
    beside = (FULL, (0, 0))
    assert solution_set(CH, 2, (inner, full)).boxes == (full,)
    assert solution_set(CH, 2, (full, full)).boxes == (full,)
    # overlapping but incomparable boxes: neither holds the other
    assert solution_set(CH, 2, (inner, beside)).boxes == (beside, inner)
    # inside in one coordinate but wider in the other is not inside
    wide = ((1, 3), (0, TOP))
    tall = ((0, TOP), (1, 3))
    assert solution_set(CH, 2, (wide, tall)).boxes == (tall, wide)


def test_contained_vectors_are_dropped():
    full = (FULL, FULL)
    inner = ((TOP, TOP), FULL)
    point = ((TOP, TOP), (TOP, TOP))
    beside = (FULL, (0, 0))
    assert len(solution_set(CH, 2, ())) == 0
    assert solution_set(CH, 2, (point, inner)).boxes == (inner,)
    assert solution_set(CH, 2, (inner, point, full)).boxes == (full,)
    assert solution_set(CH, 2, (point, beside, inner)).boxes == (beside, inner)
    with pytest.raises(ValueError):
        solution_set(CH, 2, ((FULL,),))


@given(st.data())
def test_sets_keep_the_maximal_boxes_sorted_on_chains_up_to_21_values(data):
    size = data.draw(st.integers(2, 21))
    dim = data.draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).map(
        lambda p: (min(p), max(p))
    )
    boxes = data.draw(st.lists(st.tuples(*[pair] * dim), max_size=8))
    chain = Chain(random_chain_labels(random.Random(size), size))

    def inside(a, b):
        return all(c <= x and y <= d for (x, y), (c, d) in zip(a, b))

    maximal = {b for b in boxes if not any(b != c and inside(b, c) for c in boxes)}
    assert solution_set(chain, dim, boxes).boxes == tuple(sorted(maximal))


sets2 = st.lists(boxes2, min_size=1, max_size=4).map(
    lambda vs: solution_set(CH, 2, tuple(vs))
)


def _points(box):
    return {p for p in itertools.product(CH, repeat=len(box)) if in_box(box, p)}


def _live_meets(xs, ys):
    """The meets of every box of xs with every box of ys that hold a point."""
    meets = [
        tuple((max(a[0], b[0]), min(a[1], b[1])) for a, b in zip(v, w)) for v in xs for w in ys
    ]
    return [m for m in meets if all(lo <= hi for lo, hi in m)]


@given(sets2, sets2, st.integers(1, 4), st.data())
def test_cross_intersect_covers_exactly_the_common_points(s1, s2, cap, data):
    prod = cross_intersect(s1, s2)
    assert len(prod) <= len(s1) * len(s2)
    # the maximal meets, in canonical order
    live = _live_meets(s1.boxes, s2.boxes)
    assert prod == solution_set(CH, 2, live)
    # xs that hold nested boxes and repeats, in any order: the boxes of s1
    # and their meets with s2, each twice.  The store alone keeps the
    # maximal meets, each once, as found naively
    xs = data.draw(st.permutations([*s1.boxes, *live] * 2))
    meets = set(_live_meets(xs, s2.boxes))
    def inside(a, b):
        return all(c <= x and y <= d for (x, y), (c, d) in zip(a, b))

    maximal = [m for m in meets if not any(m != k and inside(m, k) for k in meets)]
    assert cross_intersect(SolutionSet(CH, 2, tuple(xs)), s2).boxes == tuple(sorted(maximal))
    for p in itertools.product(CH, repeat=2):
        in1 = any(in_box(v, p) for v in s1.boxes)
        in2 = any(in_box(v, p) for v in s2.boxes)
        assert any(in_box(v, p) for v in prod.boxes) == (in1 and in2)
    # an antichain of live boxes: each holds a point, none lies inside another
    boxes = [_points(v) for v in prod.boxes]
    for i, box in enumerate(boxes):
        assert box
        assert not any(box <= other for j, other in enumerate(boxes) if j != i)
    # a cap refuses at the first count past it, and changes nothing otherwise
    try:
        capped = cross_intersect(s1, s2, max_vectors=cap)
    except BudgetExceededError as refused:
        assert (refused.count, refused.limit) == (cap + 1, cap)
    else:
        assert capped == prod
        assert len(prod) <= cap


def test_a_stored_set_may_hold_exactly_its_cap():
    # x1 ... x5 each pinned to 0 in a box of its own, on chain (0, 1): none
    # holds another, and each is its own meet with the whole box
    top, dim = 1, 5
    data = _layout(top, dim)[1]
    pins = [
        _pack(tuple((0, 0) if i == v else (0, 1) for i in range(dim)), top) for v in range(dim)
    ]
    assert _cross([data], pins[:4], top, dim, 4) == pins[:4]
    with pytest.raises(BudgetExceededError) as refused:
        _cross([data], pins, top, dim, 4)
    assert (refused.value.count, refused.value.limit) == (5, 4)
    assert str(refused.value) == "size 5 exceeds budget 4 (interval solution set)"


def _pinned(var):
    """x_var = 0.5 with every other of six variables free."""
    return tuple((2, 2) if i == var else FULL for i in range(6))


def test_cross_intersect_refuses_before_every_pair_is_held():
    # each of the 3 x 3 intersections pins its own pair of variables, so none
    # lies inside another and the running set grows by one box per pair
    s1 = solution_set(CH, 6, tuple(_pinned(i) for i in range(3)))
    s2 = solution_set(CH, 6, tuple(_pinned(i) for i in range(3, 6)))
    assert len(cross_intersect(s1, s2)) == 9
    with pytest.raises(BudgetExceededError) as refused:
        cross_intersect(s1, s2, max_vectors=4)
    assert (refused.value.count, refused.value.limit) == (5, 4)

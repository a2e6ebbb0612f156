"""Finite totally ordered value chains, and solution sets of rank boxes on them.

A chain is declared as an ascending list of exact decimal labels, in ASCII
digits, that must include "0" and "1".  Its order and endpoints are checked
on the labels' exact values as `Decimal`s.  A value spelled as declared is
looked up directly; another decimal spelling ("0.50" for "0.5") is read as
a `Decimal`, which has no digit limit, and any other value as a rational,
never as a float; either is found by its value: equal numbers hash equal
across `Decimal` and `Fraction`.  Only the order is ever used.  The
declared spelling of each label is kept as the canonical one for rendering.

The interval solver works on rank boxes.  A box stands for the points whose
every coordinate has a rank within that coordinate's `(lo, hi)` pair.  Bounds
never cross, so every box holds a point.  The solver holds each box packed
into one int, one bit field per coordinate (see `_layout`), so containment,
meet and the test that a meet holds a point are a few integer operations,
whatever the dimension.  It solves a whole system on plain lists of packed
boxes, one layout per system: `_cross` meets two lists pair by pair, in
their order, keeps the boxes it stores maximal as each one is stored, so
its budget bounds the boxes actually held, and sorts the result once into
canonical order (`_sort`), that of the boxes' `(lo, hi)` pairs.  A
`SolutionSet` is the plain record of such a result, its boxes spelled out
as tuples of those pairs; `cross_intersect` packs two sets, runs `_cross`
and spells the result out again.  Chain values and printable boxes are
built only when a set is iterated.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError

_DECIMAL_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")


def is_decimal_label(text: object) -> bool:
    """True when text is a plain non-negative decimal string like "0", "0.25"."""
    return isinstance(text, str) and bool(_DECIMAL_RE.match(text))


@dataclass(frozen=True)
class Chain:
    """Ascending tuple of distinct rationals in [0, 1] with both endpoints present.

    Its `ChainValue` objects are built on first use: parsing a document and
    deciding equivalence read only ranks and labels.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        for label in labels:
            if not is_decimal_label(label):
                raise ValueError(f"chain values must be decimal strings, got {label!r}")
        if len(labels) < 2:
            raise ValueError("a chain needs at least the two endpoints 0 and 1")
        values = tuple(map(Decimal, labels))
        for left, right in zip(values, values[1:]):
            if not left < right:
                raise ValueError(
                    f"chain labels must be strictly ascending, got {labels!r}"
                )
        if values[0] != 0:
            raise ValueError("a chain must start at value 0")
        if values[-1] != 1:
            raise ValueError("a chain must end at value 1")
        object.__setattr__(
            self, "_rank_by_label", {label: i for i, label in enumerate(labels)}
        )

    @cached_property
    def _values(self) -> tuple["ChainValue", ...]:
        return tuple(ChainValue(self, i) for i in range(len(self.labels)))

    @cached_property
    def _rank_by_value(self) -> dict[Decimal, int]:
        return {Decimal(label): i for i, label in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator["ChainValue"]:
        return iter(self._values)

    def __getitem__(self, rank: int) -> "ChainValue":
        if not 0 <= rank < len(self.labels):
            raise IndexError(f"rank {rank} out of range for chain of {len(self.labels)}")
        return self._values[rank]

    @property
    def zero(self) -> "ChainValue":
        return self._values[0]

    @property
    def one(self) -> "ChainValue":
        return self._values[-1]

    def label(self, rank: int) -> str:
        return self.labels[rank]

    def rank_of(self, value: str | Fraction) -> int:
        """Rank of a member value.  A label spelled as declared is looked up
        directly; another decimal string is read as a `Decimal`, anything
        else as a `Fraction`, and looked up by its exact value among the
        labels' `Decimal` values."""
        if type(value) is str:
            rank = self._rank_by_label.get(value)  # type: ignore[attr-defined]
            if rank is not None:
                return rank
        try:
            if is_decimal_label(value):
                exact: Decimal | Fraction = Decimal(value)  # type: ignore[arg-type]
            else:
                exact = value if isinstance(value, Fraction) else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
        rank = self._rank_by_value.get(exact)
        if rank is None:
            try:
                shown = repr(value)
            except ValueError:  # a term past the digits an int may print with
                shown = f"with a term of more than {sys.get_int_max_str_digits()} digits"
            raise ValueError(f"value {shown} is not a member of the chain")
        return rank

    def label_ranks(self, values: list[object]) -> tuple[int, ...] | None:
        """Ranks of values that are all labels spelled as declared, else None."""
        try:
            lookup = self._rank_by_label.__getitem__  # type: ignore[attr-defined]
            return tuple(map(lookup, values))
        except (KeyError, TypeError):  # a miss, or an unhashable value
            return None

    def value(self, value: str | Fraction) -> "ChainValue":
        return self[self.rank_of(value)]


@dataclass(frozen=True)
class ChainValue:
    """One member of a chain, identified by its rank."""

    chain: Chain
    rank: int

    def __post_init__(self) -> None:
        if not 0 <= self.rank < len(self.chain):
            raise ValueError(f"rank {self.rank} out of range")

    @property
    def label(self) -> str:
        return self.chain.label(self.rank)

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"ChainValue({self.label!r})"


Box = tuple[tuple[int, int], ...]


@lru_cache(maxsize=256)
def _layout(top: int, dim: int) -> tuple[int, int, int]:
    """Field width, data mask and guard mask of packed boxes of dimension
    dim on a chain with top rank top.

    A packed box holds one field of top + 2 bits per coordinate, coordinate 0
    the most significant.  Rank r is bit top - r of its field, so the pair
    (lo, hi) sets bits top - hi .. top - lo, and the field's highest bit, the
    guard, stays 0.  So box a lies inside box b iff a | b == b, and the meet
    of two boxes is a & b.  A meet holds a point iff none of its fields is 0,
    that is iff adding the data mask (bits 0..top of every field) carries
    into every guard; no carry crosses a guard.
    """
    guard = int(("1" + "0" * (top + 1)) * dim, 2)
    return top + 2, guard - (guard >> top + 1), guard


def _field(lo: int, hi: int, top: int) -> int:
    """The field of the rank pair (lo, hi)."""
    return (1 << top + 1 - lo) - (1 << top - hi)


def _pack(box: Box, top: int) -> int:
    packed = 0
    for lo, hi in box:
        packed = packed << top + 2 | _field(lo, hi, top)
    return packed


def _unpack(packed: int, top: int, dim: int) -> Box:
    """The (lo, hi) pairs of a packed box, coordinate 0 first.  Eight fields
    fill top + 2 bytes, so the box is read as bytes, eight fields at a time,
    each chunk a small int: time linear in the box's width, where shifting
    the whole int once per field is quadratic."""
    width = top + 2
    mask = (1 << width) - 1
    pad = -dim % 8  # zero fields ahead of coordinate 0
    data = packed.to_bytes((dim + pad) // 8 * width, "big")
    pairs = []
    first = (7 - pad) * width
    for at in range(0, len(data), width):
        chunk = int.from_bytes(data[at : at + width], "big")
        for shift in range(first, -1, -width):
            bits = chunk >> shift & mask
            pairs.append((top + 1 - bits.bit_length(), top + 1 - (bits & -bits).bit_length()))
        first = 7 * width
    return tuple(pairs)


@dataclass(frozen=True)
class IntervalVector:
    """One box of a `SolutionSet`, built for printing: chain values
    [lo, hi] per variable."""

    chain: Chain
    bounds: Box

    @property
    def is_nonempty(self) -> bool:
        # boxes are never empty, so always true; perfbench/spans.py reads it
        return True

    def __str__(self) -> str:
        labels = self.chain.labels
        return "(" + ", ".join([f"[{labels[lo]},{labels[hi]}]" for lo, hi in self.bounds]) + ")"


@dataclass(frozen=True, slots=True)
class SolutionSet:
    """The maximal rank boxes of one dimension on one chain, in canonical
    order: none lies inside another, so the set is empty exactly when it
    denotes no point.  The record takes its boxes as they are; the solver
    builds them that way."""

    chain: Chain
    dim: int
    boxes: tuple[Box, ...]

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[IntervalVector]:
        return (IntervalVector(self.chain, box) for box in self.boxes)


def _cross(
    xs: Iterable[int], ys: Sequence[int], top: int, dim: int, max_vectors: int | None
) -> list[int]:
    """The maximal meets of the packed boxes xs with the packed boxes ys,
    in canonical order.  The pairs are met in the order of the lists, and
    disjoint pairs build no box.  Each meet is stored as it is built:
    dropped if a kept box holds it, else added after the kept boxes it
    holds are dropped.  Whatever the arrival order, the kept list stays
    exactly the maximal boxes seen, each once, so it never holds more boxes
    than there are pairs, and BudgetExceededError is raised as soon as it
    holds more than max_vectors.  An x inside a kept box is skipped
    whole: each of its meets would be dropped.  Once a meet equal to x is
    stored, the rest of ys is skipped: every later meet of x lies inside
    x, so it would be dropped too.  The store is written out here: a call
    per meet cost a tenth of `solve_intervals`' time.  The result is
    sorted once, at the end (`_sort`)."""
    _, data, guard = _layout(top, dim)
    kept: list[int] = []
    for x in xs:
        for k in kept:
            if x | k == k:
                break  # so is each meet of x
        else:
            for y in ys:
                meet = x & y
                if (meet + data) & guard != guard:
                    continue
                for k in kept:
                    if meet | k == k:
                        break
                else:
                    kept = [k for k in kept if k | meet != meet]
                    kept.append(meet)
                    if max_vectors is not None and len(kept) > max_vectors:
                        raise BudgetExceededError(len(kept), max_vectors, "interval solution set")
                    if meet == x:
                        break
    return _sort(kept, guard)


def _sort(boxes: list[int], guard: int) -> list[int]:
    """boxes, packed with guard mask guard, sorted in place into canonical
    order: that of the boxes' (lo, hi) pairs, coordinate 0 first.  In each
    field, the guard minus the lowest set bit (rank hi) sets the bits of
    ranks 0..hi, and clearing the highest set bit (rank lo) leaves a number
    that grows with lo and, for equal lo, with hi.  The guards stay 0, so
    these keys compare field by field as the pairs do."""
    boxes.sort(key=lambda box: (guard - (box & ~(box << 1))) ^ (box & ~(box >> 1)))
    return boxes


def cross_intersect(
    s1: SolutionSet, s2: SolutionSet, *, max_vectors: int | None = None
) -> SolutionSet:
    """Intersect every box of s1 with every box of s2: `_cross` on the
    sets' boxes, packed.

    The result covers exactly the points common to both sets.  Raises
    BudgetExceededError as soon as the running set holds more than
    max_vectors boxes.
    """
    if s1.chain != s2.chain:
        raise ValueError("solution sets live on different chains")
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    top, dim = len(s1.chain) - 1, s1.dim
    xs, ys = ([_pack(box, top) for box in s.boxes] for s in (s1, s2))
    kept = _cross(xs, ys, top, dim, max_vectors)
    return SolutionSet(s1.chain, dim, tuple(_unpack(box, top, dim) for box in kept))

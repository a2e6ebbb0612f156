"""Finite totally ordered value chains, and solution sets of rank boxes on them.

A chain is declared as an ascending list of exact decimal labels, in ASCII
digits, that must include "0" and "1".  A value spelled as declared is looked
up directly; any other spelling ("0.50" for "0.5") is compared as a rational,
never as a float.  Only the order is ever used.  The declared spelling of
each label is kept as the canonical one for rendering.

The interval solver works on rank boxes.  A box is a plain tuple of
`(lo, hi)` rank pairs, one per variable, and stands for the points whose
every coordinate has a rank within its pair.  Bounds never cross, so every
box holds a point.  A `SolutionSet` keeps only the maximal boxes, sorted by
their bounds.  `cross_intersect` intersects two sets pair by pair and keeps
the running set maximal as each box is stored, so its budget bounds the
boxes actually held.  Chain values and printable boxes are built only when
a set is iterated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator

from .errors import BudgetExceededError

_DECIMAL_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")


def is_decimal_label(text: object) -> bool:
    """True when text is a plain non-negative decimal string like "0", "0.25"."""
    return isinstance(text, str) and bool(_DECIMAL_RE.match(text))


def _parse_decimal(label: object) -> Fraction:
    if not is_decimal_label(label):
        raise ValueError(f"chain values must be decimal strings, got {label!r}")
    return Fraction(label)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Chain:
    """Ascending tuple of distinct rationals in [0, 1] with both endpoints present."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        fractions = tuple(_parse_decimal(label) for label in labels)
        if len(labels) < 2:
            raise ValueError("a chain needs at least the two endpoints 0 and 1")
        for left, right in zip(fractions, fractions[1:]):
            if not left < right:
                raise ValueError(
                    f"chain labels must be strictly ascending, got {labels!r}"
                )
        if fractions[0] != 0:
            raise ValueError("a chain must start at value 0")
        if fractions[-1] != 1:
            raise ValueError("a chain must end at value 1")
        object.__setattr__(self, "_fractions", fractions)
        object.__setattr__(
            self, "_rank_by_fraction", {f: i for i, f in enumerate(fractions)}
        )
        object.__setattr__(
            self, "_rank_by_label", {label: i for i, label in enumerate(labels)}
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator["ChainValue"]:
        return (ChainValue(self, rank) for rank in range(len(self.labels)))

    def __getitem__(self, rank: int) -> "ChainValue":
        if not 0 <= rank < len(self.labels):
            raise IndexError(f"rank {rank} out of range for chain of {len(self.labels)}")
        return ChainValue(self, rank)

    @property
    def zero(self) -> "ChainValue":
        return ChainValue(self, 0)

    @property
    def one(self) -> "ChainValue":
        return ChainValue(self, len(self.labels) - 1)

    def label(self, rank: int) -> str:
        return self.labels[rank]

    def fraction(self, rank: int) -> Fraction:
        return self._fractions[rank]  # type: ignore[attr-defined]

    def rank_of(self, value: str | Fraction) -> int:
        """Rank of a member value.  A label spelled as declared is looked up
        directly; anything else is compared by exact rational equality."""
        if type(value) is str:
            rank = self._rank_by_label.get(value)  # type: ignore[attr-defined]
            if rank is not None:
                return rank
        try:
            frac = value if isinstance(value, Fraction) else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
        rank = self._rank_by_fraction.get(frac)  # type: ignore[attr-defined]
        if rank is None:
            raise ValueError(f"value {value!r} is not a member of the chain")
        return rank

    def label_ranks(self, values: list[object]) -> tuple[int, ...] | None:
        """Ranks of values that are all labels spelled as declared, else None."""
        get = self._rank_by_label.get  # type: ignore[attr-defined]
        ranks = tuple(get(v) if type(v) is str else None for v in values)
        return None if None in ranks else ranks  # type: ignore[return-value]

    def value(self, value: str | Fraction) -> "ChainValue":
        return ChainValue(self, self.rank_of(value))


@total_ordering
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

    @property
    def fraction(self) -> Fraction:
        return self.chain.fraction(self.rank)

    def __lt__(self, other: "ChainValue") -> bool:
        if not isinstance(other, ChainValue):
            return NotImplemented
        _require_same_chain(self, other)
        return self.rank < other.rank

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"ChainValue({self.label!r})"


def _require_same_chain(a: ChainValue, b: ChainValue) -> None:
    if a.chain != b.chain:
        raise ValueError("values live on different chains")


Box = tuple[tuple[int, int], ...]


def _inside(a: Box, b: Box) -> bool:
    """True when box a lies inside box b."""
    return all(blo <= alo and ahi <= bhi for (alo, ahi), (blo, bhi) in zip(a, b))


def _store(kept: list[Box], box: Box) -> None:
    """Add box to the antichain kept unless a kept box holds it, and drop the
    kept boxes it holds.  Whatever the arrival order, what stays is exactly
    the maximal boxes seen, each once."""
    if any(_inside(box, k) for k in kept):
        return
    kept[:] = [k for k in kept if not _inside(k, box)]
    kept.append(box)


def _store_capped(kept: list[Box], box: Box, max_vectors: int | None) -> None:
    """`_store`, then refuse once kept holds more than max_vectors boxes."""
    _store(kept, box)
    if max_vectors is not None and len(kept) > max_vectors:
        raise BudgetExceededError(len(kept), max_vectors, "interval solution set")


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
        label = self.chain.label
        pairs = (f"[{label(lo)},{label(hi)}]" for lo, hi in self.bounds)
        return "(" + ", ".join(pairs) + ")"


@dataclass(frozen=True)
class SolutionSet:
    """The maximal rank boxes of one dimension on one chain, canonically sorted.

    Construction normalizes: every box inside another one is dropped and the
    rest are sorted by their rank bounds.  The stored boxes cover the same
    points as the given ones and none lies inside another; sets built from
    the same boxes in any order or multiplicity compare equal structurally.
    Bounds that cross are rejected, so every box holds a point and the set
    is empty exactly when it denotes no point.
    """

    chain: Chain
    dim: int
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        top = len(self.chain) - 1
        kept: list[Box] = []
        for box in self.boxes:
            if len(box) != self.dim:
                raise ValueError(f"box dimension {len(box)} != set dimension {self.dim}")
            if not all(0 <= lo <= hi <= top for lo, hi in box):
                raise ValueError(f"bad box bounds {box}")
            _store(kept, tuple(box))
        object.__setattr__(self, "boxes", tuple(sorted(kept)))

    @classmethod
    def _canonical(
        cls, chain: Chain, dim: int, boxes: tuple[Box, ...]
    ) -> "SolutionSet":
        """The set of boxes that are already valid, maximal and sorted, taken
        as they are instead of normalized again."""
        self = object.__new__(cls)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "boxes", boxes)
        return self

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[IntervalVector]:
        return (IntervalVector(self.chain, box) for box in self.boxes)


def cross_intersect(
    s1: SolutionSet, s2: SolutionSet, *, max_vectors: int | None = None
) -> SolutionSet:
    """Intersect every box of s1 with every box of s2.

    The result covers exactly the points common to both sets.  Disjoint
    pairs build no box, and the running set stays maximal as each
    intersection is stored, so it never holds more than len(s1) * len(s2)
    boxes.  Raises BudgetExceededError as soon as it holds more than
    max_vectors.
    """
    if s1.chain != s2.chain:
        raise ValueError("solution sets live on different chains")
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    kept: list[Box] = []
    for x in s1.boxes:
        for y in s2.boxes:
            meet = []
            for (alo, ahi), (blo, bhi) in zip(x, y):
                lo = alo if alo > blo else blo
                hi = ahi if ahi < bhi else bhi
                if lo > hi:
                    break
                meet.append((lo, hi))
            else:
                _store_capped(kept, tuple(meet), max_vectors)
    return SolutionSet(s1.chain, s1.dim, tuple(kept))

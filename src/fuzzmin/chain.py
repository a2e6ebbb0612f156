"""Finite totally ordered value chains and the interval machinery built on them.

A chain is declared as an ascending list of exact decimal labels that must
include "0" and "1".  Values are compared as rationals, never as floats, and
only the order is ever used.  The declared spelling of each label is kept as
the canonical one for rendering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator, Sequence

_DECIMAL_RE = re.compile(r"\d+(\.\d+)?\Z")


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
        """Rank of a member value, looked up by exact rational equality."""
        try:
            frac = value if isinstance(value, Fraction) else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
        rank = self._rank_by_fraction.get(frac)  # type: ignore[attr-defined]
        if rank is None:
            raise ValueError(f"value {value!r} is not a member of the chain")
        return rank

    def value(self, value: str | Fraction) -> "ChainValue":
        return ChainValue(self, self.rank_of(value))

    def __contains__(self, value: object) -> bool:
        if isinstance(value, ChainValue):
            return value.chain == self
        if isinstance(value, (str, Fraction)):
            try:
                self.rank_of(value)
            except ValueError:
                return False
            return True
        return False


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


@dataclass(frozen=True)
class Interval:
    """Closed, non-empty interval of ranks on one chain.

    Intervals whose bounds would cross do not exist: `intersect` returns None
    for them, and "no solution" is only ever the empty `SolutionSet`.
    """

    chain: Chain
    lo_rank: int
    hi_rank: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo_rank <= self.hi_rank < len(self.chain):
            raise ValueError(f"bad interval bounds [{self.lo_rank}, {self.hi_rank}]")

    @classmethod
    def point(cls, v: ChainValue) -> "Interval":
        return cls(v.chain, v.rank, v.rank)

    @classmethod
    def full(cls, chain: Chain) -> "Interval":
        return cls(chain, 0, len(chain) - 1)

    @classmethod
    def at_most(cls, v: ChainValue) -> "Interval":
        return cls(v.chain, 0, v.rank)

    @classmethod
    def at_least(cls, v: ChainValue) -> "Interval":
        return cls(v.chain, v.rank, len(v.chain) - 1)

    @property
    def lo(self) -> ChainValue:
        return ChainValue(self.chain, self.lo_rank)

    @property
    def hi(self) -> ChainValue:
        return ChainValue(self.chain, self.hi_rank)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.lo_rank, self.hi_rank)

    def contains(self, v: ChainValue) -> bool:
        _require_same_chain(v, self.lo)
        return self.lo_rank <= v.rank <= self.hi_rank

    def __str__(self) -> str:
        return f"[{self.chain.label(self.lo_rank)},{self.chain.label(self.hi_rank)}]"


def intersect(x: Interval, y: Interval) -> Interval | None:
    """Intersection of two intervals, or None once the bounds cross."""
    if x.chain != y.chain:
        raise ValueError("intervals live on different chains")
    lo = max(x.lo_rank, y.lo_rank)
    hi = min(x.hi_rank, y.hi_rank)
    return Interval(x.chain, lo, hi) if lo <= hi else None


@dataclass(frozen=True)
class IntervalVector:
    """Fixed-dimension tuple of intervals, intersected coordinatewise."""

    coords: tuple[Interval, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len({c.chain for c in coords}) > 1:
            raise ValueError("interval vector mixes chains")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_nonempty(self) -> bool:
        # intervals are never empty, so always true; perfbench/spans.py reads it
        return True

    @property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(c.sort_key for c in self.coords)

    def intersect(self, other: "IntervalVector") -> "IntervalVector | None":
        """Coordinatewise intersection, or None when some coordinate pair is
        disjoint: then the two boxes share no point."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        coords = []
        for a, b in zip(self.coords, other.coords):
            c = intersect(a, b)
            if c is None:
                return None
            coords.append(c)
        return IntervalVector(tuple(coords))

    def contains_point(self, values: Sequence[ChainValue]) -> bool:
        if len(values) != self.dim:
            raise ValueError(f"point dimension {len(values)} != {self.dim}")
        return all(c.contains(v) for c, v in zip(self.coords, values))

    def contains_vector(self, other: "IntervalVector") -> bool:
        """True when each coordinate of other lies inside the matching one here."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return all(
            a.lo_rank <= b.lo_rank and b.hi_rank <= a.hi_rank
            for a, b in zip(self.coords, other.coords)
        )

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class SolutionSet:
    """The maximal interval vectors of one dimension, canonically sorted.

    Construction normalizes: every vector contained in another one is dropped
    and the rest are sorted by bound ranks.  The stored vectors cover the same
    points as the given ones and none lies inside another; sets built from the
    same vectors in any order or multiplicity compare equal structurally.
    Every vector holds a point, so the set is empty exactly when it denotes no
    point.
    """

    dim: int
    vectors: tuple[IntervalVector, ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if v.dim != self.dim:
                raise ValueError(f"vector dimension {v.dim} != set dimension {self.dim}")
        if len({c.chain for v in self.vectors for c in v.coords}) > 1:
            raise ValueError("solution set mixes chains")
        # a strict container is wider in total, so it is seen before what it contains
        maximal: list[IntervalVector] = []
        for v in sorted(
            set(self.vectors),
            key=lambda v: sum(c.hi_rank - c.lo_rank for c in v.coords),
            reverse=True,
        ):
            if not any(u.contains_vector(v) for u in maximal):
                maximal.append(v)
        object.__setattr__(
            self, "vectors", tuple(sorted(maximal, key=lambda v: v.sort_key))
        )

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[IntervalVector]:
        return iter(self.vectors)


def cross_intersect(s1: SolutionSet, s2: SolutionSet) -> SolutionSet:
    """Intersect every vector of s1 with every vector of s2.

    The result covers exactly the points common to both sets.  It never has
    more vectors than len(s1) * len(s2): disjoint pairs build no vector, and
    intersections inside another one are not stored.
    """
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    pairs = (x.intersect(y) for x in s1.vectors for y in s2.vectors)
    return SolutionSet(s1.dim, tuple(v for v in pairs if v is not None))

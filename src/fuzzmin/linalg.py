"""Matrices over a chain, the weights of an automaton.

Entries are stored as int ranks into the owning chain, row-major, and the
type is immutable.  Max-min composition is done on the ranks by the kernels
that need it (`automaton`, `oracles`), not on whole matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Chain


@dataclass(frozen=True)
class FuzzyMatrix:
    chain: Chain
    rows: int
    cols: int
    data: tuple[int, ...]  # entry ranks, row-major

    def __post_init__(self) -> None:
        data = tuple(self.data)
        object.__setattr__(self, "data", data)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"degenerate shape {self.rows}x{self.cols}")
        if len(data) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries,"
                f" got {len(data)}"
            )
        top = len(self.chain) - 1
        for r in data:
            if not 0 <= r <= top:
                raise ValueError(f"entry rank {r} outside chain")

    def rank_at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def row_ranks(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self.data[i * self.cols : (i + 1) * self.cols]

    def as_row_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view as rank tuples; the low-level form the kernels use."""
        c = self.cols
        return tuple(self.data[i * c : (i + 1) * c] for i in range(self.rows))


"""Matrices over a chain with max-min composition.

Entries are stored as int ranks into the owning chain, row-major.  All types
are immutable; every operation returns a fresh matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Chain, ChainValue


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

    @classmethod
    def identity(cls, chain: Chain, n: int) -> "FuzzyMatrix":
        """1 on the diagonal, 0 elsewhere: the unit of max-min composition."""
        top = len(chain) - 1
        data = tuple(top if i == j else 0 for i in range(n) for j in range(n))
        return cls(chain, n, n, data)

    def rank_at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def scalar(self) -> ChainValue:
        if (self.rows, self.cols) != (1, 1):
            raise ValueError("scalar() needs a 1x1 matrix")
        return ChainValue(self.chain, self.data[0])

    def row_ranks(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self.data[i * self.cols : (i + 1) * self.cols]

    def as_row_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view as rank tuples; the low-level form the kernels use."""
        c = self.cols
        return tuple(self.data[i * c : (i + 1) * c] for i in range(self.rows))

    def __str__(self) -> str:
        label = self.chain.label
        return "[" + ", ".join(
            "[" + ", ".join(label(r) for r in self.row_ranks(i)) + "]"
            for i in range(self.rows)
        ) + "]"


def _require_conformable(a: FuzzyMatrix, b: FuzzyMatrix) -> None:
    if a.chain != b.chain:
        raise ValueError("matrices live on different chains")
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions differ: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )


def maxmin_product(a: FuzzyMatrix, b: FuzzyMatrix) -> FuzzyMatrix:
    """Composition where + is max and * is min: out[i][j] = max_k min(a[i][k], b[k][j])."""
    _require_conformable(a, b)
    b_cols = tuple(
        tuple(b.data[k * b.cols + j] for k in range(b.rows)) for j in range(b.cols)
    )
    data = []
    for i in range(a.rows):
        row = a.data[i * a.cols : (i + 1) * a.cols]
        for col in b_cols:
            data.append(max(map(min, row, col)))
    return FuzzyMatrix(a.chain, a.rows, b.cols, tuple(data))


"""Fuzzy matrices, and the whole-matrix max-min reference product of the
test helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmin import Chain, FuzzyMatrix
from helpers import (
    as_fraction_grid,
    fraction_maxmin_product,
    identity,
    matrix,
    maxmin_product,
    scalar,
)

CH = Chain(("0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "1"))


def labels(m: FuzzyMatrix) -> list[list[str]]:
    return [[CH.label(m.rank_at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def test_product_by_hand():
    # each entry is the best bottleneck: row (0.5, 0.2) against column
    # (0.4, 0.6) gives max(min(0.5,0.4), min(0.2,0.6)) = 0.4, and so on
    a = matrix(CH, [["0.5", "0.2"], ["1", "0.3"]])
    b = matrix(CH, [["0.4", "0.7"], ["0.6", "0.1"]])
    assert labels(maxmin_product(a, b)) == [["0.4", "0.5"], ["0.4", "0.7"]]


def test_identity_is_neutral():
    a = matrix(CH, [["0.3", "0.7"], ["1", "0"]])
    e = identity(CH, 2)
    assert maxmin_product(a, e) == a
    assert maxmin_product(e, a) == a
    assert labels(e) == [["1", "0"], ["0", "1"]]


def test_row_times_column_is_a_scalar():
    row = matrix(CH, [["0.3", "0.7"]])
    col = matrix(CH, [["0.3"], ["0.7"]])
    assert scalar(maxmin_product(row, col)).label == "0.7"
    with pytest.raises(ValueError):
        scalar(row)


def test_shape_and_chain_checks():
    row = matrix(CH, [["0.3", "0.7"]])
    with pytest.raises(ValueError):
        maxmin_product(row, row)
    with pytest.raises(ValueError):
        maxmin_product(row, identity(Chain(("0", "1")), 2))
    with pytest.raises(ValueError):
        FuzzyMatrix(CH, 1, 2, (0,))
    with pytest.raises(ValueError):
        FuzzyMatrix(CH, 1, 1, (99,))
    with pytest.raises(ValueError):
        FuzzyMatrix(CH, 0, 1, ())


def test_views_and_accessors():
    m = matrix(CH, [["0", "0.5"], ["0.7", "1"]])
    assert m.rank_at(1, 0) == CH.rank_of("0.7")
    for i, j in ((2, 0), (0, -1)):
        with pytest.raises(IndexError, match=rf"^\({i}, {j}\) outside 2x2$"):
            m.rank_at(i, j)
    assert m.as_row_tuples()[1] == (CH.rank_of("0.7"), len(CH) - 1)
    assert m.as_row_tuples() == ((0, CH.rank_of("0.5")), (CH.rank_of("0.7"), len(CH) - 1))


ranks = st.integers(0, len(CH) - 1)


def matrices(rows: int, cols: int):
    return st.tuples(*([ranks] * (rows * cols))).map(
        lambda data: FuzzyMatrix(CH, rows, cols, data)
    )


@given(matrices(2, 3), matrices(3, 2))
def test_product_matches_fraction_reference(a, b):
    got = as_fraction_grid(maxmin_product(a, b))
    assert got == fraction_maxmin_product(as_fraction_grid(a), as_fraction_grid(b))


@given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
def test_product_is_associative(a, b, c):
    assert maxmin_product(maxmin_product(a, b), c) == maxmin_product(
        a, maxmin_product(b, c)
    )

"""Square counting: closed forms, enumerators, rails, and the naive subset oracle."""

import time

import pytest

from configcount.budget import OracleBudgetError
from configcount.geometry import LatticeGrid, LatticePoint, Square
from configcount.squares import (
    count_all_squares,
    count_axis_squares,
    count_squares_by_point_subsets,
    enumerate_all_squares,
    enumerate_axis_squares,
    _square_totals,
    _subset_square_counts,
    rail_decomposition,
)


def test_axis_count_five_by_five():
    b = count_axis_squares(5, 5)
    assert b.total == 30
    assert b.per_k == {1: 16, 2: 9, 3: 4, 4: 1}


def test_axis_count_small_grids():
    assert count_axis_squares(2, 2).per_k == {1: 1}
    assert count_axis_squares(2, 2).total == 1
    b = count_axis_squares(3, 4)
    assert b.per_k == {1: 6, 2: 2}
    assert b.total == 8
    assert b.total == count_squares_by_point_subsets(LatticeGrid(3, 4), "axis")


def test_axis_count_degenerate_grids():
    assert count_axis_squares(1, 1).total == 0
    assert count_axis_squares(1, 1).per_k == {}
    assert count_axis_squares(1, 9).total == 0


def test_enumerate_axis_examples():
    assert enumerate_axis_squares(LatticeGrid(2, 2)) == [Square(LatticePoint(0, 0), 1, 0)]
    assert len(enumerate_axis_squares(LatticeGrid(5, 5))) == 30
    assert enumerate_axis_squares(LatticeGrid(1, 5)) == []


def test_enumerate_axis_order():
    squares = enumerate_axis_squares(LatticeGrid(4, 3))
    keys = [(s.k, s.anchor.y, s.anchor.x) for s in squares]
    assert keys == sorted(keys)
    assert all(s.a == 0 for s in squares)


def test_enumerate_all_order():
    squares = enumerate_all_squares(LatticeGrid(5, 4))
    keys = [(s.k, s.a, s.anchor.y, s.anchor.x) for s in squares]
    assert keys == sorted(keys)


def test_squares_share_one_anchor_per_point():
    for enumerate_squares in (enumerate_axis_squares, enumerate_all_squares):
        # 7x5 points: only the 6x4 points with x < 6 and y < 4 anchor a square
        squares = enumerate_squares(LatticeGrid(7, 5))
        assert len({id(s.anchor) for s in squares}) == 6 * 4
        # no squares fit, so no anchor may be built for the 10^11 points
        for grid in (LatticeGrid(10**11, 1), LatticeGrid(1, 10**11)):
            start = time.perf_counter()
            assert enumerate_squares(grid) == []
            assert time.perf_counter() - start < 1


def _nested_range_axis_squares(grid):
    return [
        Square(LatticePoint(x, y), k, 0)
        for k in range(1, min(grid.cols, grid.rows))
        for y in range(grid.rows - k)
        for x in range(grid.cols - k)
    ]


def _nested_range_all_squares(grid):
    return [
        Square(LatticePoint(x, y), k, a)
        for k in range(1, min(grid.cols, grid.rows))
        for a in range(k)
        for y in range(grid.rows - k)
        for x in range(grid.cols - k)
    ]


def test_enumerators_match_the_nested_ranges_exactly():
    # The plain (k, a, y, x) ranges, one fresh anchor per square: same squares,
    # same order, on every grid up to 12x12.
    for cols in range(1, 13):
        for rows in range(1, 13):
            g = LatticeGrid(cols, rows)
            assert enumerate_axis_squares(g) == _nested_range_axis_squares(g), (cols, rows)
            assert enumerate_all_squares(g) == _nested_range_all_squares(g), (cols, rows)


def test_rail_decomposition_five_by_five():
    g = LatticeGrid(5, 5)
    r = rail_decomposition(g, 2)
    assert (r.rail_pairs, r.per_pair, r.total) == (3, 3, 9)
    r = rail_decomposition(g, 4)
    assert (r.rail_pairs, r.per_pair, r.total) == (1, 1, 1)
    r = rail_decomposition(g, 1)
    assert (r.rail_pairs, r.per_pair, r.total) == (4, 4, 16)


def test_rail_decomposition_rejects_oversized():
    with pytest.raises(ValueError, match="no squares of this size fit"):
        rail_decomposition(LatticeGrid(5, 5), 5)
    with pytest.raises(ValueError, match="no squares of this size fit"):
        rail_decomposition(LatticeGrid(5, 5), 0)
    with pytest.raises(ValueError, match="no squares of this size fit"):
        rail_decomposition(LatticeGrid(1, 1), 1)


def test_rail_consistency_with_class_counts():
    for cols, rows in [(5, 5), (3, 4), (8, 6), (2, 2)]:
        per_k = count_axis_squares(cols, rows).per_k
        g = LatticeGrid(cols, rows)
        for k, expected in per_k.items():
            assert rail_decomposition(g, k).total == expected


def test_all_count_examples():
    assert count_all_squares(5, 5).total == 50
    assert count_all_squares(2, 2).total == 1
    b = count_all_squares(3, 3)
    assert b.per_k == {1: 4, 2: 2}
    assert b.total == 6


def test_enumerate_all_examples_match_subset_oracle():
    for cols, rows, expected in [(5, 5, 50), (3, 3, 6), (2, 3, 2)]:
        g = LatticeGrid(cols, rows)
        squares = enumerate_all_squares(g)
        assert len(squares) == expected
        assert len(squares) == count_squares_by_point_subsets(g, "all")


def test_tilted_square_shows_up_in_three_by_three():
    assert Square(LatticePoint(0, 0), 2, 1) in enumerate_all_squares(LatticeGrid(3, 3))


def test_oracle_equivalence_small_sweep():
    # Full 1..8 sweep lives in the acceptance suite; keep this one cheap.
    for cols in range(1, 7):
        for rows in range(1, 7):
            g = LatticeGrid(cols, rows)
            axis = count_axis_squares(cols, rows).total
            every = count_all_squares(cols, rows).total
            assert axis == len(enumerate_axis_squares(g))
            assert every == len(enumerate_all_squares(g))
            assert axis == count_squares_by_point_subsets(g, "axis")
            assert every == count_squares_by_point_subsets(g, "all")


def test_transpose_symmetry_classwise():
    for cols in range(1, 9):
        for rows in range(1, 9):
            assert count_axis_squares(cols, rows).per_k == count_axis_squares(rows, cols).per_k
            assert count_all_squares(cols, rows).per_k == count_all_squares(rows, cols).per_k


def test_class_partition_matches_enumeration():
    for cols, rows in [(5, 5), (4, 6)]:
        for count_fn, enum_fn in [
            (count_axis_squares, enumerate_axis_squares),
            (count_all_squares, enumerate_all_squares),
        ]:
            per_k = count_fn(cols, rows).per_k
            groups = {}
            for s in enum_fn(LatticeGrid(cols, rows)):
                groups[s.k] = groups.get(s.k, 0) + 1
            assert groups == per_k


def test_growing_the_grid_never_shrinks_a_class():
    for cols in range(1, 8):
        for rows in range(1, 8):
            for count_fn in (count_axis_squares, count_all_squares):
                small = count_fn(cols, rows).per_k
                taller = count_fn(cols, rows + 1).per_k
                for k, n in small.items():
                    assert taller[k] >= n


def test_enumeration_budget_guard():
    with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
        enumerate_axis_squares(LatticeGrid(1000, 1000), max_candidates=100)
    with pytest.raises(OracleBudgetError):
        enumerate_all_squares(LatticeGrid(500, 500), max_candidates=100)
    # generous budgets change nothing
    assert len(enumerate_axis_squares(LatticeGrid(5, 5), max_candidates=10_000)) == 30


def test_budget_totals_match_the_closed_forms():
    # The totals come from power sums and each class from its own product, so
    # summing the classes checks one against the other.
    for cols in range(1, 40):
        for rows in range(1, 40):
            assert _square_totals(cols, rows) == (
                sum(count_axis_squares(cols, rows).per_k.values()),
                sum(count_all_squares(cols, rows).per_k.values()),
            )


def test_size_classes_are_computed_as_read():
    for cols in range(1, 30):
        for rows in range(1, 30):
            for count_fn in (count_axis_squares, count_all_squares):
                per_k = count_fn(cols, rows).per_k
                assert list(per_k.items()) == [(k, per_k[k]) for k in per_k]
                assert len(per_k) == per_k.size == min(cols, rows) - 1
    # n x n grids: OEIS A000330 (axis squares) and A002415 (all squares)
    assert [count_axis_squares(n, n).total for n in range(1, 9)] == [0, 1, 5, 14, 30, 55, 91, 140]
    assert [count_all_squares(n, n).total for n in range(1, 9)] == [0, 1, 6, 20, 50, 105, 196, 336]
    huge = count_all_squares(10**30, 10**30 + 1).per_k
    assert huge.size == 10**30 - 1
    assert huge[10**30 - 1] == (10**30 - 1) * 2
    assert huge.get(0) is None and 10**30 not in huge and "k" not in huge


def test_subset_oracle_refuses_large_grids_before_searching():
    searched = _subset_square_counts.cache_info()
    with pytest.raises(OracleBudgetError, match="416416712497500 candidate 4-point subsets"):
        count_squares_by_point_subsets(LatticeGrid(100, 100))
    assert _subset_square_counts.cache_info() == searched
    # C(9, 4) = 126 subsets on a 3x3 grid: the budget is inclusive
    with pytest.raises(OracleBudgetError):
        count_squares_by_point_subsets(LatticeGrid(3, 3), "axis", max_candidates=125)
    assert count_squares_by_point_subsets(LatticeGrid(3, 3), "axis", max_candidates=126) == 5


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        count_axis_squares(0, 5)
    with pytest.raises(ValueError):
        count_all_squares(3, -1)
    with pytest.raises(ValueError, match="unknown variant"):
        count_squares_by_point_subsets(LatticeGrid(2, 2), "tilted")

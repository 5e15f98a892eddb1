"""The canonical (anchor, k, a) square encoding."""

import pytest

from configcount.geometry import (
    LatticeGrid,
    LatticePoint,
    Square,
    square_vertices,
)


def test_vertices_unit_axis_square():
    s = Square(LatticePoint(0, 0), 1, 0)
    assert square_vertices(s) == [
        LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(1, 1), LatticePoint(0, 1),
    ]


def test_vertices_tilted_square():
    s = Square(LatticePoint(0, 0), 2, 1)
    assert square_vertices(s) == [
        LatticePoint(1, 0), LatticePoint(2, 1), LatticePoint(1, 2), LatticePoint(0, 1),
    ]


def test_vertices_translated_axis_square():
    s = Square(LatticePoint(1, 1), 3, 0)
    assert square_vertices(s) == [
        LatticePoint(1, 1), LatticePoint(4, 1), LatticePoint(4, 4), LatticePoint(1, 4),
    ]


def _side_vectors(s):
    vs = square_vertices(s)
    return [(vs[(i + 1) % 4].x - vs[i].x, vs[(i + 1) % 4].y - vs[i].y) for i in range(4)]


def test_sides_equal_and_perpendicular_for_all_small_squares():
    for k in range(1, 7):
        for a in range(k):
            s = Square(LatticePoint(0, 0), k, a)
            sides = _side_vectors(s)
            lengths = {dx * dx + dy * dy for dx, dy in sides}
            assert lengths == {a * a + (k - a) * (k - a)}
            for i in range(4):
                dx1, dy1 = sides[i]
                dx2, dy2 = sides[(i + 1) % 4]
                assert dx1 * dx2 + dy1 * dy2 == 0


def test_encoding_is_canonical_vertex_sets_distinct():
    # No two (anchor, k, a) triples inside a grid share a vertex set.
    for cols in range(1, 7):
        for rows in range(1, 7):
            seen = set()
            for k in range(1, min(cols, rows)):
                for a in range(k):
                    for y in range(rows - k):
                        for x in range(cols - k):
                            vs = frozenset(square_vertices(Square(LatticePoint(x, y), k, a)))
                            assert vs not in seen
                            seen.add(vs)


def test_axis_parallel_iff_zero_offset():
    for k in range(1, 7):
        for a in range(k):
            sides = _side_vectors(Square(LatticePoint(0, 0), k, a))
            axis_parallel = all(dx == 0 or dy == 0 for dx, dy in sides)
            assert axis_parallel == (a == 0)


def test_invalid_constructions_rejected():
    with pytest.raises(ValueError):
        LatticeGrid(0, 3)
    with pytest.raises(ValueError):
        Square(LatticePoint(0, 0), 0, 0)
    with pytest.raises(ValueError):
        Square(LatticePoint(0, 0), 2, 2)
    with pytest.raises(ValueError):
        Square(LatticePoint(0, 0), 2, -1)

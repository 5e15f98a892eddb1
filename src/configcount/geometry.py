"""Integer lattice grids and a canonical encoding for squares on them.

A square is stored as ``(anchor, k, a)`` where ``anchor`` is the bottom-left
corner of its axis-aligned bounding box, ``k`` is the bounding-box side in
lattice units, and ``a`` is a tilt offset with ``0 <= a < k``.  The vertices
are then, by ``key_vertices``,

    (x+a, y), (x+k, y+a), (x+k-a, y+k), (x, y+k-a)

for ``anchor = (x, y)``.  With ``a = 0`` this degenerates to the axis-aligned
square on the bounding box itself; any ``a > 0`` gives a tilted square whose
side length is ``sqrt(a**2 + (k-a)**2)``.  The encoding is canonical: distinct
triples give distinct vertex sets, so enumeration is three nested ranges and
"axis-aligned" is the single test ``a == 0``.

Coordinates are 0-based with y increasing upward.
"""

from __future__ import annotations

from functools import total_ordering

from .record import Record, set_field

# A square as (k, a, y, x): bounding-box size, tilt offset, anchor row and column.
SquareKey = tuple[int, int, int, int]


@total_ordering
class LatticePoint(Record):
    """An integer point, compared and ordered by (x, y), and only against another point."""

    __slots__ = ("x", "y")
    x: int
    y: int

    def __init__(self, x: int, y: int):
        set_field(self, "x", x)
        set_field(self, "y", y)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) < (other.x, other.y)


class LatticeGrid(Record):
    """A full rectangle of integer points {(x, y) : 0 <= x < cols, 0 <= y < rows}."""

    cols: int
    rows: int

    def __init__(self, cols: int, rows: int):
        if cols < 1 or rows < 1:
            raise ValueError("grid needs at least one point column and row")
        set_field(self, "cols", cols)
        set_field(self, "rows", rows)


class Square(Record):
    """Canonical square representation: bounding-box anchor, size k, tilt offset a."""

    __slots__ = ("anchor", "k", "a")
    anchor: LatticePoint
    k: int
    a: int

    def __init__(self, anchor: LatticePoint, k: int, a: int):
        if k < 1:
            raise ValueError("square size k must be positive")
        if not 0 <= a < k:
            raise ValueError("tilt offset a must satisfy 0 <= a < k")
        set_field(self, "anchor", anchor)
        set_field(self, "k", k)
        set_field(self, "a", a)


def key_vertices(key: SquareKey) -> tuple[tuple[int, int], ...]:
    """The four vertices of a key's square as (x, y), counter-clockwise from (x+a, y)."""
    k, a, y, x = key
    return (x + a, y), (x + k, y + a), (x + k - a, y + k), (x, y + k - a)


def square_vertices(s: Square) -> list[LatticePoint]:
    """The four vertices of ``s`` as points, in ``key_vertices`` order."""
    return [LatticePoint(*v) for v in key_vertices((s.k, s.a, s.anchor.y, s.anchor.x))]

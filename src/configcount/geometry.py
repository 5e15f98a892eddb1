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

from dataclasses import dataclass

# A square as (k, a, y, x): bounding-box size, tilt offset, anchor row and column.
SquareKey = tuple[int, int, int, int]


@dataclass(frozen=True, order=True, slots=True)
class LatticePoint:
    """An integer point, compared and ordered componentwise."""

    x: int
    y: int


@dataclass(frozen=True)
class LatticeGrid:
    """A full rectangle of integer points {(x, y) : 0 <= x < cols, 0 <= y < rows}."""

    cols: int
    rows: int

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise ValueError("grid needs at least one point column and row")


@dataclass(frozen=True, slots=True)
class Square:
    """Canonical square representation: bounding-box anchor, size k, tilt offset a."""

    anchor: LatticePoint
    k: int
    a: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("square size k must be positive")
        if not 0 <= self.a < self.k:
            raise ValueError("tilt offset a must satisfy 0 <= a < k")


def key_vertices(key: SquareKey) -> tuple[tuple[int, int], ...]:
    """The four vertices of a key's square as (x, y), counter-clockwise from (x+a, y)."""
    k, a, y, x = key
    return (x + a, y), (x + k, y + a), (x + k - a, y + k), (x, y + k - a)


def square_vertices(s: Square) -> list[LatticePoint]:
    """The four vertices of ``s`` as points, in ``key_vertices`` order."""
    return [LatticePoint(*v) for v in key_vertices((s.k, s.a, s.anchor.y, s.anchor.x))]

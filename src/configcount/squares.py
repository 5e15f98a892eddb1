"""Counting and enumerating squares whose vertices lie on a lattice grid.

Both variants group squares by bounding-box size k.  A k-box fits in
(cols-k)(rows-k) positions, and one loop serves both, keyed by how many tilts
a k-box admits:

* axis: one tilt (a = 0).  This is the rail picture: rows-k pairs of
  horizontal rails k units apart, cols-k slots per pair.
* all: k tilts (a = 0..k-1), so k(cols-k)(rows-k) squares per class.

The class counts (``SizeClasses``) are computed as they are read, and their
total comes from the power sums of k (on n x n grids, OEIS A000330 for axis
squares and A002415 for all squares).

``square_keys`` writes the canonical order once, as ``(k, a, y, x)`` keys, and
every command reads squares there.  The list builders, one ``Square`` per key
over a shared anchor table, serve only the library API.

``count_squares_by_point_subsets`` is a deliberately naive cross-check that
never looks at the (anchor, k, a) encoding: it tests every 4-point subset of
the grid for being a square.  Keep it slow and independent; its whole value
is that it can disagree with the enumerators above.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, ValuesView
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb
from operator import mul

from .budget import DEFAULT_ORACLE_BUDGET, OracleBudgetError
from .geometry import LatticeGrid, LatticePoint, Square, SquareKey
from .record import Record, set_field


class SizeClasses(Mapping):
    """Count per size class k = 1..min(cols, rows)-1, computed when read.

    Class k holds (k if tilted else 1)(cols-k)(rows-k) squares, never zero.
    Nothing is stored per class; ``size`` is the number of classes (``len``
    too, where it fits a machine integer).
    """

    def __init__(self, cols: int, rows: int, tilted: bool):
        LatticeGrid(cols, rows)  # refuses an empty grid with the grid's own message
        self.cols, self.rows, self.tilted = cols, rows, tilted
        self.size = min(cols, rows) - 1

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(range(1, self.size + 1))

    def __getitem__(self, k: int) -> int:
        if not isinstance(k, int) or not 1 <= k <= self.size:
            raise KeyError(k)
        return (k if self.tilted else 1) * (self.cols - k) * (self.rows - k)

    def values(self) -> ValuesView:
        return _SizeValues(self)

    def margins(self) -> tuple[range, range]:
        """cols-k and rows-k for k = 1..size, in class order."""
        n, cols, rows = self.size, self.cols, self.rows
        return range(cols - 1, cols - n - 1, -1), range(rows - 1, rows - n - 1, -1)

    def _values(self):
        # (cols-k)(rows-k), times k when tilted, for k = 1..size, without a Python-level loop.
        boxes = map(mul, *self.margins())
        return map(mul, range(1, self.size + 1), boxes) if self.tilted else boxes


class _SizeValues(ValuesView):
    def __iter__(self):
        return self._mapping._values()


class SizeClassBreakdown(Record):
    """Counts per size class k, plus their sum.  Zero classes are omitted."""

    per_k: SizeClasses
    total: int

    def __init__(self, per_k: SizeClasses, total: int):
        set_field(self, "per_k", per_k)
        set_field(self, "total", total)


class RailReport(Record):
    """One size class counted as rail pairs times positions per pair."""

    k: int
    rail_pairs: int
    per_pair: int
    total: int

    def __init__(self, k: int, rail_pairs: int, per_pair: int, total: int):
        set_field(self, "k", k)
        set_field(self, "rail_pairs", rail_pairs)
        set_field(self, "per_pair", per_pair)
        set_field(self, "total", total)


def _size_classes(cols: int, rows: int, tilted: bool) -> SizeClassBreakdown:
    return SizeClassBreakdown(SizeClasses(cols, rows, tilted), _square_totals(cols, rows)[tilted])


def count_axis_squares(cols: int, rows: int) -> SizeClassBreakdown:
    """Axis-aligned squares per side length k: (cols-k)(rows-k)."""
    return _size_classes(cols, rows, tilted=False)


def count_all_squares(cols: int, rows: int) -> SizeClassBreakdown:
    """All squares per bounding-box size k, one per tilt offset: k(cols-k)(rows-k)."""
    return _size_classes(cols, rows, tilted=True)


def rail_decomposition(grid: LatticeGrid, k: int) -> RailReport:
    """Count the size-k axis class by sliding a pair of horizontal rails.

    The rails sit k units apart; there are rows-k positions for the pair and
    cols-k squares between each pair.
    """
    if not 1 <= k <= min(grid.cols, grid.rows) - 1:
        raise ValueError("no squares of this size fit")
    rail_pairs = grid.rows - k
    per_pair = grid.cols - k
    return RailReport(k, rail_pairs, per_pair, rail_pairs * per_pair)


def _square_totals(cols: int, rows: int) -> tuple[int, int]:
    """(axis, all) square counts without a loop over k.

    With n = min(cols, rows) - 1, the sums of (cols-k)(rows-k) and
    k(cols-k)(rows-k) over k = 1..n expand into the power sums of k.
    """
    n = min(cols, rows) - 1
    s1 = n * (n + 1) // 2
    s2 = n * (n + 1) * (2 * n + 1) // 6
    s3 = s1 * s1
    return (n * cols * rows - (cols + rows) * s1 + s2,
            cols * rows * s1 - (cols + rows) * s2 + s3)


def square_keys(grid: LatticeGrid, tilted: bool,
                max_candidates: int | None = None) -> Iterator[SquareKey]:
    """Every square on the grid as a key ``(k, a, y, x)``, in that order.

    ``(x, y)`` is the anchor; axis squares have a = 0 only.  A grid with more
    squares than ``max_candidates`` is refused here, before the first key.
    """
    cols, rows = grid.cols, grid.rows
    count = _square_totals(cols, rows)[tilted]
    if max_candidates is not None and count > max_candidates:
        raise OracleBudgetError(
            f"oracle budget exceeded: {count} candidate squares > {max_candidates}"
        )
    return chain.from_iterable(
        product((k,), range(k if tilted else 1), range(rows - k), range(cols - k))
        for k in range(1, min(cols, rows))
    )


def _enumerate_squares(grid: LatticeGrid, tilted: bool, max_candidates: int | None) -> list[Square]:
    keys = square_keys(grid, tilted, max_candidates)
    # Only x < cols-1 and y < rows-1 anchor a square, so the table is no larger
    # than the k=1 class, which square_keys has bounded; a grid too thin for a
    # square builds none.
    cols, rows = grid.cols, grid.rows
    anchors = ([[LatticePoint(x, y) for x in range(cols - 1)] for y in range(rows - 1)]
               if min(cols, rows) > 1 else [])
    return [Square(anchors[y][x], k, a) for k, a, y, x in keys]


def enumerate_axis_squares(grid: LatticeGrid, max_candidates: int | None = None) -> list[Square]:
    """Every axis-aligned square on the grid, ordered by (k, anchor.y, anchor.x)."""
    return _enumerate_squares(grid, False, max_candidates)


def enumerate_all_squares(grid: LatticeGrid, max_candidates: int | None = None) -> list[Square]:
    """Every square (tilted or not) on the grid, ordered by (k, a, anchor.y, anchor.x)."""
    return _enumerate_squares(grid, True, max_candidates)


def _is_square_quad(quad) -> bool:
    # Four distinct points form a square iff of the six pairwise squared
    # distances the four smallest are equal and the two largest equal twice that.
    ds = sorted(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(quad, 2)
    )
    return ds[0] > 0 and ds[0] == ds[1] == ds[2] == ds[3] and ds[4] == ds[5] == 2 * ds[0]


def _is_axis_square_quad(quad) -> bool:
    xs = sorted({p[0] for p in quad})
    ys = sorted({p[1] for p in quad})
    if len(xs) != 2 or len(ys) != 2 or xs[1] - xs[0] != ys[1] - ys[0]:
        return False
    return set(quad) == {(x, y) for x in xs for y in ys}


@lru_cache(maxsize=128)
def _subset_square_counts(cols: int, rows: int) -> tuple[int, int]:
    pts = [(x, y) for x in range(cols) for y in range(rows)]
    axis = every = 0
    for quad in combinations(pts, 4):
        if _is_square_quad(quad):
            every += 1
        if _is_axis_square_quad(quad):
            axis += 1
    return axis, every


def count_squares_by_point_subsets(
    grid: LatticeGrid, variant: str = "all", max_candidates: int | None = DEFAULT_ORACLE_BUDGET
) -> int:
    """Naive oracle: test all 4-point subsets of the grid for squareness.

    ``variant`` is "axis" or "all".  Runtime is O(points^4); intended for
    desk-scale grids only, and refused with ``OracleBudgetError`` before any
    work when C(points, 4) exceeds ``max_candidates``.
    """
    subsets = comb(grid.cols * grid.rows, 4)
    if max_candidates is not None and subsets > max_candidates:
        raise OracleBudgetError(
            f"oracle budget exceeded: {subsets} candidate 4-point subsets > {max_candidates}"
        )
    axis, every = _subset_square_counts(grid.cols, grid.rows)
    if variant == "axis":
        return axis
    if variant == "all":
        return every
    raise ValueError(f"unknown variant: {variant!r}")

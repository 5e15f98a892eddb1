"""Expected answers, computed here and never by configcount.

Squares use the per-class sums (c-k)(r-k) and k(c-k)(r-k), words use a
transfer-matrix DP (or the per-symbol product when adjacency is dropped), and
self-avoiding base problems use pinned constants that ``run.py --self-check``
re-derives by brute force.  The brute-force helpers at the end exist only for that check.
"""

from __future__ import annotations

from itertools import combinations

SIDE = ((-1, 0), (0, -1), (0, 1), (1, 0))
KING = SIDE + ((-1, -1), (-1, 1), (1, -1), (1, 1))

# Self-avoiding readings of a 6-symbol word of one repeated letter on a 4x4
# table of that letter under king adjacency.  Every grid symmetry and letter
# relabelling maps readings to readings, so the constant holds for any seed.
PINNED_SELF_AVOIDING = {("king", 4, 4, 6): 22_672}


def squares_per_class(cols: int, rows: int, variant: str) -> dict[int, int]:
    """Axis: (c-k)(r-k) per side k.  All: k(c-k)(r-k) per bounding size k."""
    weight = (lambda k: 1) if variant == "axis" else (lambda k: k)
    return {k: weight(k) * (cols - k) * (rows - k) for k in range(1, min(cols, rows))}


def letter_cells(rows_data) -> dict[tuple[int, int], str]:
    """Cell (x, y) holds character x of row y."""
    return {(x, y): ch for y, row in enumerate(rows_data) for x, ch in enumerate(row)}


def rings_cells(word: str) -> dict[tuple[int, int], str]:
    """The manhattan-rings table: word[d] at Manhattan distance d from the center."""
    c = (len(word) - 1) // 2
    n = len(word)
    return {(x, y): word[abs(x - c) + abs(y - c)] for x in range(n) for y in range(n)}


def readings_per_end_cell(cells, word: str, adjacency: str) -> dict[tuple[int, int], int]:
    """Readings (revisits allowed) per terminal cell; zero classes dropped.

    ``none``: the product of per-symbol cell counts.  ``side``/``king``: the
    transfer matrix ways[i][cell] = [cell spells word[i]] * sum of
    ways[i-1][nbr] over adjacent cells.
    """
    if adjacency == "none":
        sizes = {}
        for sym in cells.values():
            sizes[sym] = sizes.get(sym, 0) + 1
        prefix = 1
        for ch in word[:-1]:
            prefix *= sizes.get(ch, 0)
        return {xy: prefix for xy in sorted(cells) if cells[xy] == word[-1] and prefix}
    offsets = SIDE if adjacency == "side" else KING
    ways = {xy: 1 for xy, sym in cells.items() if sym == word[0]}
    for ch in word[1:]:
        nxt = {}
        for (x, y), n in ways.items():
            for dx, dy in offsets:
                cell = (x + dx, y + dy)
                if cells.get(cell) == ch:
                    nxt[cell] = nxt.get(cell, 0) + n
        ways = nxt
    return dict(sorted(ways.items()))


# --- brute force, for the self-check only -------------------------------


def brute_squares(cols: int, rows: int, variant: str) -> dict[int, int]:
    """Squares counted from point pairs: each side rotated 90 degrees, each square once.

    Classes are keyed by bounding-box size, read off the four vertices.
    """
    points = [(x, y) for x in range(cols) for y in range(rows)]
    inside = set(points)
    seen = set()
    for (x0, y0), (x1, y1) in combinations(points, 2):
        dx, dy = x1 - x0, y1 - y0
        quad = ((x0, y0), (x1, y1), (x1 - dy, y1 + dx), (x0 - dy, y0 + dx))
        if all(p in inside for p in quad[2:]):
            seen.add(frozenset(quad))
    per: dict[int, int] = {}
    for quad in seen:
        xs = [p[0] for p in quad]
        ys = [p[1] for p in quad]
        if variant == "axis" and len(set(xs)) != 2:
            continue
        k = max(xs) - min(xs)
        if k != max(ys) - min(ys):
            raise AssertionError(f"bounding box of {sorted(quad)} is not square")
        per[k] = per.get(k, 0) + 1
    return dict(sorted(per.items()))


def brute_readings(cells, word: str, adjacency: str, distinct: bool) -> dict[tuple[int, int], int]:
    """Readings per terminal cell by explicit depth-first search."""
    offsets = SIDE if adjacency == "side" else KING
    per: dict[tuple[int, int], int] = {}

    def extend(path):
        i = len(path)
        if i == len(word):
            per[path[-1]] = per.get(path[-1], 0) + 1
            return
        if adjacency == "none":
            options = list(cells)
        else:
            x, y = path[-1]
            options = [(x + dx, y + dy) for dx, dy in offsets]
        for cell in options:
            if cells.get(cell) == word[i] and not (distinct and cell in path):
                extend(path + [cell])

    for start, sym in cells.items():
        if sym == word[0]:
            extend([start])
    return dict(sorted(per.items()))

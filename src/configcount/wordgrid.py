"""Letter grids and word-reading paths.

A reading of a word in a letter grid is a sequence of cells that spells the
word, with consecutive cells constrained by an adjacency rule:

* ``side``: consecutive cells must share an edge,
* ``king``: share an edge or a corner,
* ``none``: unconstrained (any cell holding the next symbol, repeats allowed).

``readings_per_end_cell`` counts the readings per end cell without listing
them.  Readings that may revisit cells go through a transfer matrix: level by
level, each cell adds its count to the cells that may follow it.  Readings
that keep to distinct cells of a word whose symbols recur go through a
visited-set DP: a state is a reading's set of visited cells and its end cell,
and readings in the same state merge.  ``reading_counter`` names the counter a
word gets.  ``word_readings`` is the brute-force oracle: depth-first
extension from every starting cell, yielding each reading as its tuple of
(x, y) cells, one at a time, in lexicographic order;
``enumerate_word_paths``, the public list API, wraps them in ``PathWitness``.
All of them step by one candidate rule over each symbol's cells, found once
per table by a scan of its columns; the search asks it once per (cell, next
symbol) pair.  The counter sums the reading prefixes the search would visit,
so it refuses a budget overrun under exactly the search's condition, and it
is the search's only budget, run before the first reading.

A ``LetterGrid`` is its rows of symbols, a cover of its cells by construction.
On the manhattan-rings layout, the symmetric board the closed form applies
to, an LxL grid (L odd), the cell at Manhattan distance d from the center
holds word[d], so each row is cut from the word with two slices.  Under side
adjacency and pairwise-distinct symbols, every reading walks strictly outward
from the center to one of the four corners, and each corner class is a count
of U/R move interleavings:

    total = 4 * C(L-1, (L-1)/2)
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from math import inf, prod

from .budget import OracleBudgetError
from .counting import MoveWord, count_move_words
from .record import Record, set_field

ADJACENCY_RULES = ("side", "king", "none")
# An adjacency rule: one of ADJACENCY_RULES.
AdjacencyRule = str

_SIDE_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, 0))
_KING_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
_OVERRUN = "oracle budget exceeded: more than {} cell visits"


class LetterGrid(Record):
    """A table of single symbols as its rows, top row first: (x, y) is ``lines[y][x]``.

    It keeps an instance dict, where ``cells_by_symbol`` is cached.
    """

    lines: tuple[str, ...]

    def __init__(self, lines: tuple[str, ...]):
        if not lines or not all(lines):
            raise ValueError("rows must be non-empty")
        if len(set(map(len, lines))) != 1:
            raise ValueError("rows must all have the same length")
        set_field(self, "lines", lines)

    @property
    def cols(self) -> int:
        return len(self.lines[0])

    @property
    def rows(self) -> int:
        return len(self.lines)

    @cached_property
    def cells_by_symbol(self) -> dict[str, list[tuple[int, int]]]:
        """Each symbol's cells in (x, y) order: the columns scanned left to right."""
        by_sym: dict[str, list[tuple[int, int]]] = {}
        for x, column in enumerate(zip(*self.lines)):
            for y, sym in enumerate(column):
                by_sym.setdefault(sym, []).append((x, y))
        return by_sym


class PathWitness(Record):
    """One concrete reading: the cell coordinates visited, in order."""

    __slots__ = ("cells",)
    cells: tuple[tuple[int, int], ...]

    def __init__(self, cells: tuple[tuple[int, int], ...]):
        set_field(self, "cells", cells)

    @property
    def final_cell(self) -> tuple[int, int]:
        return self.cells[-1]


class CountReport(Record):
    """A closed-form count with its per-terminal-cell class sizes."""

    total: int
    per_class: dict[tuple[int, int], int]

    def __init__(self, total: int, per_class: dict[tuple[int, int], int]):
        set_field(self, "total", total)
        set_field(self, "per_class", per_class)


def letter_grid_from_rows(rows_data) -> LetterGrid:
    """Build a grid from equal-length row strings, top row first."""
    return LetterGrid(tuple(rows_data))


def generate_manhattan_rings(word: str) -> LetterGrid:
    """The LxL grid (L = len(word), odd) with word[d] at Manhattan distance d.

    The center holds the first symbol and the four corners the last one; ring
    d holds 4*min(d, L-d) cells.  Row y is cut from the word: the symbol at x
    is word[|x-c| + d] for d = |y-c|, the left half word[d:d+c+1] reversed.
    """
    length = len(word)
    if length < 1 or length % 2 == 0:
        raise ValueError("manhattan-rings layout requires odd word length")
    c = (length - 1) // 2
    return LetterGrid(tuple(
        word[d:d + c + 1][::-1] + word[d + 1:d + c + 1]
        for d in (abs(y - c) for y in range(length))
    ))


def _reading_rule(grid: LetterGrid, word: str, adjacency: AdjacencyRule):
    """Each symbol's cells in (x, y) order, and ``candidates(cell, symbol)``: the
    cells holding ``symbol`` that a reading may step to from ``cell``."""
    if adjacency not in ADJACENCY_RULES:
        raise ValueError(f"unknown adjacency rule: {adjacency!r}")
    if len(word) < 1:
        raise ValueError("word must be non-empty")
    by_sym = grid.cells_by_symbol
    offsets = _SIDE_OFFSETS if adjacency == "side" else _KING_OFFSETS
    lines, cols, rows = grid.lines, grid.cols, grid.rows

    def candidates(cell: tuple[int, int], symbol: str) -> list[tuple[int, int]]:
        if adjacency == "none":
            return by_sym.get(symbol, [])
        # The offsets ascend in (dx, dy), so the neighbours come out in (x, y) order.
        x, y = cell
        return [
            (x + dx, y + dy)
            for dx, dy in offsets
            if 0 <= x + dx < cols and 0 <= y + dy < rows and lines[y + dy][x + dx] == symbol
        ]

    return by_sym, candidates


def reading_counter(word: str, distinct_cells: bool) -> str:
    """The name of the counter ``readings_per_end_cell`` runs: the visited-set DP
    when readings keep to distinct cells and a symbol recurs (only then can a
    reading revisit a cell), else the transfer matrix."""
    return "visited-set DP" if distinct_cells and len(set(word)) < len(word) else "transfer matrix"


def readings_per_end_cell(
    grid: LetterGrid,
    word: str,
    adjacency: AdjacencyRule = "side",
    *,
    distinct_cells: bool = False,
    max_visits: int | None = None,
) -> dict[tuple[int, int], int]:
    """Readings of ``word`` per end cell, in (x, y) order, zeros left out.

    A transfer matrix: readings of word[:i+1] ending at a cell sum those of
    word[:i] ending at the cells it may follow.  Under ``distinct_cells`` the
    state is a reading's visited set and end cell (the subset DP of Bellman,
    and of Held and Karp, 1962), unless no symbol recurs and so no cell can.
    More reading prefixes (one search visit each) than ``max_visits`` raise
    the search's OracleBudgetError, checked before each (cell, next cell) step.
    """
    by_sym, candidates = _reading_rule(grid, word, adjacency)
    limit = inf if max_visits is None else max_visits
    if reading_counter(word, distinct_cells) == "visited-set DP":
        return _visited_set_counts(word, by_sym, candidates, limit)
    level = dict.fromkeys(by_sym.get(word[0], ()), 1)
    needed = len(level)
    for symbol in word[1:]:
        if needed > limit:
            break
        if adjacency == "none":
            level = dict.fromkeys(by_sym.get(symbol, ()), sum(level.values()))
            needed += sum(level.values())
        else:
            counts: dict[tuple[int, int], int] = {}
            for cell, n in level.items():
                for nbr in candidates(cell, symbol):
                    needed += n
                    if needed > limit:
                        raise OracleBudgetError(_OVERRUN.format(limit))
                    counts[nbr] = counts.get(nbr, 0) + n
            level = counts
    if needed > limit:
        raise OracleBudgetError(_OVERRUN.format(limit))
    # The last symbol's cells, in (x, y) order, hold every end cell.
    return {cell: level[cell] for cell in by_sym.get(word[-1], ()) if level.get(cell)}


def _visited_set_counts(word, by_sym, candidates, limit) -> dict[tuple[int, int], int]:
    # level[cell] maps the visited sets of the readings of word[:i+1] that end at
    # cell, as bitmasks, to their counts.  Only a cell whose symbol recurs in the
    # word can be revisited, so only those cells are tracked; the others add no
    # bit.  The budget is checked before each (cell, next cell) step, so a level
    # is never built much past the budget.
    tracked = [cell for symbol, uses in Counter(word).items() if uses > 1
               for cell in by_sym.get(symbol, ())]
    unit = {cell: 1 << i for i, cell in enumerate(tracked)}
    level = {cell: {unit.get(cell, 0): 1} for cell in by_sym.get(word[0], ())}
    needed = len(level)
    for symbol in word[1:]:
        nxt: dict[tuple[int, int], dict] = {}
        for cell, sets in level.items():
            for nbr in candidates(cell, symbol):
                if needed > limit:
                    raise OracleBudgetError(_OVERRUN.format(limit))
                bit, into = unit.get(nbr, 0), nxt.setdefault(nbr, {})
                for visited, n in sets.items():
                    if not visited & bit:
                        state = visited | bit
                        into[state] = into.get(state, 0) + n
                        needed += n
        level = nxt
    if needed > limit:
        raise OracleBudgetError(_OVERRUN.format(limit))
    totals = ((cell, sum(level.get(cell, {}).values())) for cell in by_sym.get(word[-1], ()))
    return {cell: n for cell, n in totals if n}


def word_readings(
    grid: LetterGrid,
    word: str,
    adjacency: AdjacencyRule = "side",
    distinct_cells: bool = False,
    max_visits: int | None = None,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every reading of ``word`` in the grid, as its tuple of (x, y) cells, one at
    a time, in lexicographic order.  A search that would visit more cells than
    ``max_visits`` is refused first, by the reading counter, with
    OracleBudgetError."""
    by_sym, candidates = _reading_rule(grid, word, adjacency)
    if max_visits is not None:
        readings_per_end_cell(grid, word, adjacency, distinct_cells=distinct_cells,
                              max_visits=max_visits)
    return _search(word, by_sym, candidates, distinct_cells)


def _search(word, by_sym, candidates, distinct_cells) -> Iterator[tuple[tuple[int, int], ...]]:
    # Depth-first from every cell holding the first symbol, kept on an explicit
    # stack so long words cannot exhaust the interpreter's recursion limit.
    # Candidates are tried in ascending (x, y) order, which makes the output
    # order lexicographic.
    last = len(word) - 1
    # next_of[i] maps a cell at position i to its candidates for word[i + 1],
    # filled on first use.  Positions followed by the same symbol share one map;
    # one map for all positions would be wrong, as a cell may be followed by
    # different symbols at different positions.
    memo = {symbol: {} for symbol in word}
    next_of = [memo[symbol] for symbol in word[1:]]
    path: list[tuple[int, int]] = []
    # Only consulted under distinct_cells, where a path never repeats a cell.
    on_path: set[tuple[int, int]] = set()
    # pending[i] holds the untried candidates for position i; len(path) == len(pending) - 1.
    pending = [iter(by_sym.get(word[0], []))]
    while pending:
        i = len(path)
        if i == last:
            # Every candidate left at the last position completes a reading.
            prefix = tuple(path)
            for cell in pending.pop():
                if not (distinct_cells and cell in on_path):
                    yield prefix + (cell,)
            if path:
                on_path.discard(path.pop())
            continue
        for cell in pending[-1]:
            if distinct_cells and cell in on_path:
                continue
            path.append(cell)
            on_path.add(cell)
            known = next_of[i]
            following = known.get(cell)
            if following is None:
                following = known[cell] = candidates(cell, word[i + 1])
            pending.append(iter(following))
            break
        else:
            pending.pop()
            if path:
                on_path.discard(path.pop())


def enumerate_word_paths(grid: LetterGrid, word: str, adjacency: AdjacencyRule = "side",
                         distinct_cells: bool = False,
                         max_visits: int | None = None) -> list[PathWitness]:
    """``word_readings`` as a list of ``PathWitness``."""
    return [PathWitness(cells) for cells in
            word_readings(grid, word, adjacency, distinct_cells, max_visits)]


def count_word_paths_closed(word: str) -> CountReport:
    """Closed-form reading count on the manhattan-rings board, side adjacency.

    Valid when the word's symbols are pairwise distinct (each ring then holds
    exactly one symbol and every path moves strictly outward).  The four
    corner classes are symmetric; each one counts the interleavings of
    (L-1)/2 upward and (L-1)/2 sideways moves.
    """
    length = len(word)
    if length < 1 or length % 2 == 0:
        raise ValueError("manhattan-rings layout requires odd word length")
    if length == 1:
        return CountReport(1, {(0, 0): 1})
    half = (length - 1) // 2
    per_corner = count_move_words(MoveWord(half, half))
    corners = {
        (x, y): per_corner for x in (0, length - 1) for y in (0, length - 1)
    }
    return CountReport(4 * per_corner, dict(sorted(corners.items())))


def count_paths_by_symbol_product(grid: LetterGrid, word: str) -> int:
    """Unconstrained reading count: the product of per-symbol cell counts.

    With no adjacency rule every cell tuple spelling the word is a reading,
    so the count multiplies out one factor per position: the number of cells
    holding that position's symbol, counted in the rows themselves.
    """
    if len(word) < 1:
        raise ValueError("word must be non-empty")
    return prod(sum(line.count(symbol) for line in grid.lines) ** uses
                for symbol, uses in Counter(word).items())

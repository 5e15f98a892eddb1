"""Deterministic SVG figures for counting problems.

Everything is emitted as plain strings with integer coordinates, in a fixed
element order, so identical inputs produce byte-identical files.  Square
problems draw the point grid with every square of the key stream as a
polygon; word problems draw the letter table.  A highlight either marks one
size class of squares or traces one enumerated witness as an arrowed polyline;
the witness is taken from the stream, and no list of witnesses is held.

A figure is written in pieces: the head, runs of at most ``_ELEMENTS``
elements, then the tail, so its memory does not grow with the figure.  Each
pixel coordinate is formatted once per column and once per row, and each
element is one ``str.format`` call on those strings.
"""

from __future__ import annotations

from collections.abc import Iterator
from html import escape
from itertools import islice, product

from .budget import DEFAULT_ORACLE_BUDGET
from .speclang import ProblemSpec
from .verify import class_total, counted_witnesses, letter_grid, table_size

Highlight = tuple[str, int]  # ("class", k) or ("witness", index)

# Elements per piece of a figure.
_ELEMENTS = 4096


def _head(width: int, height: int, cell_size: int) -> str:
    font = max(cell_size // 2, 6)
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>",
        ".pt { fill: #333333; }",
        ".sq { fill: none; stroke: #999999; stroke-width: 2; }",
        ".sq.hl { fill: none; stroke: #cc3333; stroke-width: 3; }",
        ".cell { fill: #ffffff; stroke: #555555; }",
        f".glyph {{ font-family: monospace; font-size: {font}px; text-anchor: middle; }}",
        ".witness { fill: none; stroke: #cc3333; stroke-width: 3; }",
        "</style>",
        "<defs>",
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6" '
        'markerHeight="6" orient="auto">',
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#cc3333"/>',
        "</marker>",
        "</defs>",
    ]
    return "\n".join(head) + "\n"


_TAIL = "</svg>\n"


def _pieces(elements: Iterator[str]) -> Iterator[str]:
    """The elements joined ``_ELEMENTS`` at a time."""
    while piece := "".join(islice(elements, _ELEMENTS)):
        yield piece


def _refuse_large_figure(elements: int) -> None:
    if elements > DEFAULT_ORACLE_BUDGET:
        raise ValueError(f"figure too large: {elements} elements > {DEFAULT_ORACLE_BUDGET}")


def _squares_figure(spec: ProblemSpec, cell_size: int,
                    highlight: Highlight | None) -> Iterator[str]:
    keys, classes = counted_witnesses(spec)
    count = class_total(spec, classes)
    # A one-row grid has no squares to refuse, but it still draws every point.
    _refuse_large_figure(count + spec.cols * spec.rows)

    # The highlighted squares are one run of the key stream: a witness, or a
    # size class, since the keys are sorted by k first.
    mode, value = highlight or (None, None)
    if mode == "class":
        if not 1 <= value < min(spec.cols, spec.rows):
            raise ValueError(f"no squares in size class k={value}")
        first = sum(islice(classes.values(), value - 1))
        marked = range(first, first + classes[value])
    elif mode == "witness":
        if not 0 <= value < count:
            raise ValueError(f"witness index {value} out of range (have {count})")
        marked = range(value, value + 1)
    else:
        marked = range(0)

    margin = cell_size
    width = 2 * margin + (spec.cols - 1) * cell_size
    height = 2 * margin + (spec.rows - 1) * cell_size
    xs = [str(margin + x * cell_size) for x in range(spec.cols)]
    # lattice y grows upward, svg y grows downward
    ys = [str(margin + (spec.rows - 1 - y) * cell_size) for y in range(spec.rows)]

    yield _head(width, height, cell_size)
    for cls, n in (("sq", marked.start), ("sq hl", len(marked)), ("sq", None)):
        polygon = f'<polygon class="{cls}" points="{{}},{{}} {{}},{{}} {{}},{{}} {{}},{{}}"/>\n'.format
        # The vertices in geometry.key_vertices order.
        yield from _pieces(
            polygon(xs[x + a], ys[y], xs[x + k], ys[y + a], xs[x + k - a], ys[y + k],
                    xs[x], ys[y + k - a])
            for k, a, y, x in islice(keys, n)
        )
    radius = max(cell_size // 10, 2)
    circle = f'<circle class="pt" cx="{{0[0]}}" cy="{{0[1]}}" r="{radius}"/>\n'.format
    yield from _pieces(map(circle, product(xs, ys)))
    yield _TAIL


def _word_figure(spec: ProblemSpec, cell_size: int,
                 highlight: Highlight | None) -> Iterator[str]:
    cols, rows = table_size(spec)  # a table too large to build is refused first
    _refuse_large_figure(2 * cols * rows)
    grid = letter_grid(spec)

    witness = None
    if highlight is not None:
        mode, value = highlight
        if mode == "class":
            raise ValueError("size-class highlight only applies to squares problems")
        # Counted in the table drawn; no reading is drawn for an index out of range.
        readings, classes = counted_witnesses(spec, table=grid)
        have = class_total(spec, classes)
        if 0 <= value < have:
            witness = next(islice(readings, value, None), None)
        if witness is None:
            raise ValueError(f"witness index {value} out of range (have {have})")

    margin = cell_size // 2
    width = 2 * margin + grid.cols * cell_size
    height = 2 * margin + grid.rows * cell_size
    font = max(cell_size // 2, 6)
    half = cell_size // 2
    lefts = [margin + x * cell_size for x in range(grid.cols)]
    tops = [margin + y * cell_size for y in range(grid.rows)]
    mid_xs = [str(left + half) for left in lefts]

    yield _head(width, height, cell_size)
    rect = (f'<rect class="cell" x="{{0[1]}}" y="{{0[0]}}" '
            f'width="{cell_size}" height="{cell_size}"/>\n').format
    yield from _pieces(map(rect, product(map(str, tops), map(str, lefts))))
    glyphs = {symbol: escape(symbol, quote=False) for symbol in set().union(*grid.lines)}
    text = '<text class="glyph" x="{0[1]}" y="{0[0]}">{1}</text>\n'.format
    yield from _pieces(map(
        text,
        product([str(top + half + font // 3) for top in tops], mid_xs),
        (glyphs[symbol] for line in grid.lines for symbol in line),
    ))
    if witness is not None:
        points = " ".join(f"{mid_xs[x]},{tops[y] + half}" for x, y in witness)
        yield f'<polyline class="witness" points="{points}" marker-end="url(#arrow)"/>\n'
    yield _TAIL


def render_pieces(spec: ProblemSpec, cell_size: int = 40,
                  highlight: Highlight | None = None) -> Iterator[str]:
    """The SVG figure for one problem, as a stream of text pieces.

    Every refusal (ValueError, OracleBudgetError) is raised before the first
    piece: the figure is too large, the highlight is out of range, or the
    problem overruns the oracle budget.
    """
    if cell_size < 1:
        raise ValueError("cell size must be positive")
    figure = _squares_figure if spec.kind == "squares" else _word_figure
    return figure(spec, cell_size, highlight)


def render_problem(
    spec: ProblemSpec, cell_size: int = 40, highlight: Highlight | None = None
) -> str:
    """The SVG figure for one problem, as text: ``render_pieces`` joined."""
    return "".join(render_pieces(spec, cell_size, highlight))

"""Deterministic SVG figures for counting problems.

Everything is emitted as plain strings with integer coordinates, in a fixed
element order, so identical inputs produce byte-identical files.  Square
problems draw the point grid with every square of the key stream as a
polygon; word problems draw the letter table.  A highlight either marks one
size class of squares or traces one enumerated witness as an arrowed polyline;
the witness is taken from the stream, and no list of witnesses is held.
"""

from __future__ import annotations

from html import escape
from itertools import islice

from .budget import DEFAULT_ORACLE_BUDGET
from .geometry import key_vertices
from .speclang import ProblemSpec
from .verify import (
    class_total,
    closed_form_classes,
    enumerate_witnesses,
    letter_grid,
    table_size,
)

Highlight = tuple[str, int]  # ("class", k) or ("witness", index)


def _document(width: int, height: int, cell_size: int, body: list[str]) -> str:
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
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _refuse_large_figure(elements: int) -> None:
    if elements > DEFAULT_ORACLE_BUDGET:
        raise ValueError(f"figure too large: {elements} elements > {DEFAULT_ORACLE_BUDGET}")


def _squares_figure(spec: ProblemSpec, cell_size: int, highlight: Highlight | None) -> str:
    keys = enumerate_witnesses(spec)
    count = class_total(spec, closed_form_classes(spec))
    # A one-row grid has no squares to refuse, but it still draws every point.
    _refuse_large_figure(count + spec.cols * spec.rows)

    mode, value = highlight or (None, None)
    if mode == "class" and not 1 <= value < min(spec.cols, spec.rows):
        raise ValueError(f"no squares in size class k={value}")
    if mode == "witness" and not 0 <= value < count:
        raise ValueError(f"witness index {value} out of range (have {count})")

    margin = cell_size
    width = 2 * margin + (spec.cols - 1) * cell_size
    height = 2 * margin + (spec.rows - 1) * cell_size

    def px(x: int) -> int:
        return margin + x * cell_size

    def py(y: int) -> int:
        # lattice y grows upward, svg y grows downward
        return margin + (spec.rows - 1 - y) * cell_size

    body = []
    for i, key in enumerate(keys):
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in key_vertices(key))
        cls = "sq hl" if (key[0] if mode == "class" else i) == value else "sq"
        body.append(f'<polygon class="{cls}" points="{pts}"/>')
    radius = max(cell_size // 10, 2)
    for x in range(spec.cols):
        for y in range(spec.rows):
            body.append(f'<circle class="pt" cx="{px(x)}" cy="{py(y)}" r="{radius}"/>')
    return _document(width, height, cell_size, body)


def _word_figure(spec: ProblemSpec, cell_size: int, highlight: Highlight | None) -> str:
    cols, rows = table_size(spec)  # a table too large to build is refused first
    _refuse_large_figure(2 * cols * rows)
    grid = letter_grid(spec)

    witness = None
    if highlight is not None:
        mode, value = highlight
        if mode == "class":
            raise ValueError("size-class highlight only applies to squares problems")
        readings = iter(enumerate_witnesses(spec, table=grid))  # in the table drawn
        skipped = sum(1 for _ in islice(readings, max(value, 0)))
        witness = next(readings, None) if value >= 0 else None
        if witness is None:
            have = skipped + sum(1 for _ in readings)
            raise ValueError(f"witness index {value} out of range (have {have})")

    margin = cell_size // 2
    width = 2 * margin + grid.cols * cell_size
    height = 2 * margin + grid.rows * cell_size
    font = max(cell_size // 2, 6)

    body = []
    for y in range(grid.rows):
        for x in range(grid.cols):
            left = margin + x * cell_size
            top = margin + y * cell_size
            body.append(
                f'<rect class="cell" x="{left}" y="{top}" '
                f'width="{cell_size}" height="{cell_size}"/>'
            )
    for y in range(grid.rows):
        for x in range(grid.cols):
            cx = margin + x * cell_size + cell_size // 2
            cy = margin + y * cell_size + cell_size // 2 + font // 3
            glyph = escape(grid.cells[(x, y)], quote=False)
            body.append(f'<text class="glyph" x="{cx}" y="{cy}">{glyph}</text>')
    if witness is not None:
        pts = " ".join(
            f"{margin + x * cell_size + cell_size // 2},{margin + y * cell_size + cell_size // 2}"
            for x, y in witness
        )
        body.append(f'<polyline class="witness" points="{pts}" marker-end="url(#arrow)"/>')
    return _document(width, height, cell_size, body)


def render_problem(
    spec: ProblemSpec, cell_size: int = 40, highlight: Highlight | None = None
) -> str:
    """The SVG figure for one problem, as text."""
    if cell_size < 1:
        raise ValueError("cell size must be positive")
    if spec.kind == "squares":
        return _squares_figure(spec, cell_size, highlight)
    return _word_figure(spec, cell_size, highlight)

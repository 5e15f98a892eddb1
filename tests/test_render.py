"""SVG figures: highlight counts, witness arrows, determinism, error paths."""

from collections import Counter

import pytest

import configcount.render as render_mod
import configcount.verify as verify_mod
from configcount.budget import OracleBudgetError
from configcount.geometry import LatticeGrid, key_vertices
from configcount.render import render_pieces, render_problem
from configcount.cli import main
from configcount.speclang import ProblemSpec, parse_spec
from configcount.squares import (
    count_all_squares,
    count_axis_squares,
    enumerate_all_squares,
    enumerate_axis_squares,
    square_blocks,
    square_keys,
)

from conftest import BLOCK_GRIDS, SAMPLES, assert_same_text, block_cuts

AXIS5 = ProblemSpec("axis5", "squares", cols=5, rows=5, variant="axis")
ALL5 = ProblemSpec("all5", "squares", cols=5, rows=5, variant="all")
OPEN_SIDE = ProblemSpec("open", "word-paths", word="Open!", layout="manhattan-rings",
                        adjacency="side")


def test_class_highlight_count_matches_breakdown():
    svg = render_problem(AXIS5, highlight=("class", 2))
    assert svg.count('<polygon class="sq hl"') == count_axis_squares(5, 5).per_k[2] == 9
    assert svg.count("<polygon") == 30
    svg = render_problem(ALL5, highlight=("class", 2))
    assert svg.count('<polygon class="sq hl"') == count_all_squares(5, 5).per_k[2] == 18


def test_squares_figure_has_all_points():
    svg = render_problem(AXIS5)
    assert svg.count('<circle class="pt"') == 25
    assert '<polygon class="sq hl"' not in svg


def test_single_point_grid_draws_no_squares():
    svg = render_problem(ProblemSpec("p", "squares", cols=1, rows=1, variant="axis"))
    assert svg.count('<circle class="pt"') == 1
    assert "<polygon" not in svg


def test_witness_arrow_has_one_point_per_cell():
    svg = render_problem(OPEN_SIDE, highlight=("witness", 0))
    start = svg.index('<polyline class="witness" points="')
    points = svg[start:].split('"')[3]
    assert len(points.split(" ")) == 5
    assert 'marker-end="url(#arrow)"' in svg


def test_word_figure_draws_the_table():
    svg = render_problem(OPEN_SIDE)
    assert svg.count('<rect class="cell"') == 25
    assert svg.count("<text") == 25
    assert '<polyline class="witness"' not in svg


def test_letters_are_xml_escaped():
    spec = ProblemSpec("x", "word-paths", word="<&>", layout="manhattan-rings",
                       adjacency="side")
    svg = render_problem(spec)
    assert "&lt;" in svg and "&amp;" in svg and "&gt;" in svg
    assert "><&" not in svg


def test_rendering_is_pure():
    assert render_problem(AXIS5, highlight=("class", 2)) == render_problem(
        AXIS5, highlight=("class", 2)
    )


def test_out_of_range_highlights_rejected():
    with pytest.raises(ValueError, match="out of range"):
        render_problem(AXIS5, highlight=("witness", 30))
    with pytest.raises(ValueError, match="no squares in size class"):
        render_problem(AXIS5, highlight=("class", 9))
    with pytest.raises(ValueError, match="only applies to squares"):
        render_problem(OPEN_SIDE, highlight=("class", 1))
    with pytest.raises(ValueError, match="out of range"):
        render_problem(OPEN_SIDE, highlight=("witness", 24))


WALK = ProblemSpec("walk", "word-paths", word="aaaa", layout="explicit",
                   rows_data=["aaa", "aaa", "aaa"], adjacency="king", distinct_cells=True)


@pytest.mark.parametrize("spec,have", [(WALK, 496), (OPEN_SIDE, 24)], ids=["counter", "closed"])
def test_out_of_range_witness_is_refused_before_drawing_a_reading(monkeypatch, spec, have):
    # The index is checked against the count of the table drawn (the reading
    # counter, or the closed form); the search is asked for no reading.
    drawn = []
    real = verify_mod.word_readings

    def spy(*args, **kwargs):
        for cells in real(*args, **kwargs):
            drawn.append(cells)
            yield cells

    monkeypatch.setattr(verify_mod, "word_readings", spy)
    for index in (have, 99999999, -1):
        with pytest.raises(ValueError) as err:
            render_problem(spec, highlight=("witness", index))
        assert str(err.value) == f"witness index {index} out of range (have {have})"
    assert drawn == []
    svg = render_problem(spec, highlight=("witness", have - 1))
    assert len(drawn) == have
    assert f'points="{_arrow_points(drawn[-1])}"' in svg


def _arrow_points(cells, cell_size=40):
    return " ".join(f"{cell_size // 2 + x * cell_size + cell_size // 2},"
                    f"{cell_size // 2 + y * cell_size + cell_size // 2}" for x, y in cells)


@pytest.mark.parametrize("spec,highlight", [
    (ALL5, None), (ALL5, ("class", 3)), (ALL5, ("witness", 49)),
    (OPEN_SIDE, None), (WALK, ("witness", 7)),
], ids=["squares", "class", "witness", "word", "reading"])
def test_pieces_join_to_the_figure(monkeypatch, spec, highlight):
    # Pieces of a few elements each give the same bytes as one piece per run.
    whole = render_problem(spec, highlight=highlight)
    monkeypatch.setattr(render_mod, "_ELEMENTS", 3)
    pieces = list(render_pieces(spec, highlight=highlight))
    assert "".join(pieces) == whole
    assert pieces[0].startswith("<?xml") and pieces[0].endswith("</defs>\n")
    assert pieces[-1] == "</svg>\n"
    assert max(piece.count("\n") for piece in pieces[1:]) <= 3


def _figure_key_by_key(spec, keys, cell_size, highlight):
    """A squares figure's documented bytes, a polygon per key with its
    vertices from ``key_vertices``, then a circle per point."""
    def px(x):
        return cell_size + x * cell_size

    def py(y):
        return cell_size + (spec.rows - 1 - y) * cell_size

    mode, value = highlight or (None, None)
    polygons = "".join(
        '<polygon class="{}" points="{}"/>\n'.format(
            "sq hl" if (key[0] == value if mode == "class" else i == value) else "sq",
            " ".join(f"{px(x)},{py(y)}" for x, y in key_vertices(key)))
        for i, key in enumerate(keys))
    radius = max(cell_size // 10, 2)
    circles = "".join(f'<circle class="pt" cx="{px(x)}" cy="{py(y)}" r="{radius}"/>\n'
                      for x in range(spec.cols) for y in range(spec.rows))
    head = render_mod._head((spec.cols + 1) * cell_size, (spec.rows + 1) * cell_size, cell_size)
    return head + polygons + circles + "</svg>\n"


@pytest.mark.parametrize("variant", ["axis", "all"])
@pytest.mark.parametrize("cols, rows", BLOCK_GRIDS, ids=lambda size: str(size))
def test_squares_figure_matches_one_polygon_per_key(cols, rows, variant):
    # render fills a piece of polygons a row segment at a time; its bytes are
    # the figure drawn key by key, with a size class or a witness highlighted
    # anywhere in a block.
    spec = ProblemSpec("g", "squares", cols=cols, rows=rows, variant=variant)
    keys = list(square_keys(square_blocks(LatticeGrid(cols, rows), variant == "all")))
    sizes = sorted({1, min(cols, rows) - 1} & {k for k, *_ in keys})
    highlights = [None, *(("class", k) for k in sizes),
                  *(("witness", i) for i in block_cuts(keys))]
    for cell_size in (1, 40):
        for highlight in highlights:
            assert_same_text(render_problem(spec, cell_size=cell_size, highlight=highlight),
                             _figure_key_by_key(spec, keys, cell_size, highlight),
                             f"cell size {cell_size}, highlight {highlight}")


@pytest.mark.parametrize("highlight", [None, ("witness", 2500), ("class", 1)])
def test_pieces_cut_rows_longer_than_a_piece(highlight):
    # 5000x3 `axis` has rows of 4,999 and 4,998 squares, longer than a piece.
    spec = ProblemSpec("long", "squares", cols=5000, rows=3, variant="axis")
    pieces = list(render_pieces(spec, highlight=highlight))
    keys = list(square_keys(square_blocks(LatticeGrid(spec.cols, spec.rows), False)))
    assert_same_text("".join(pieces), _figure_key_by_key(spec, keys, 40, highlight), "pieces")
    assert pieces[1].count("<polygon") == render_mod._ELEMENTS < 4999
    assert max(piece.count("\n") for piece in pieces[1:]) <= render_mod._ELEMENTS


@pytest.mark.parametrize("spec,highlight", [
    (ProblemSpec("row", "squares", cols=10**11, rows=1, variant="all"), None),
    (AXIS5, ("class", 9)),
    (AXIS5, ("witness", 30)),
    (OPEN_SIDE, ("witness", 24)),
    (ProblemSpec("big", "squares", cols=4000, rows=4000, variant="axis"), None),
], ids=["too-large", "class", "square-index", "reading-index", "budget"])
def test_every_refusal_comes_before_the_first_piece(spec, highlight):
    pieces = render_pieces(spec, highlight=highlight)
    with pytest.raises((ValueError, OracleBudgetError)):
        next(pieces)


@pytest.mark.parametrize("spec", [
    AXIS5, ALL5,
    ProblemSpec("wide", "squares", cols=7, rows=3, variant="all"),
    ProblemSpec("row", "squares", cols=4, rows=1, variant="axis"),
], ids=["axis5", "all5", "all7x3", "row"])
def test_class_highlight_accepts_exactly_the_sizes_that_fit(spec):
    # The bounds are checked without the enumeration; the list builder is the reference.
    build = enumerate_all_squares if spec.variant == "all" else enumerate_axis_squares
    sizes = Counter(s.k for s in build(LatticeGrid(spec.cols, spec.rows)))
    for k in range(-1, min(spec.cols, spec.rows) + 2):
        if k in sizes:
            svg = render_problem(spec, highlight=("class", k))
            assert svg.count('<polygon class="sq hl"') == sizes[k]
        else:
            with pytest.raises(ValueError, match=f"^no squares in size class k={k}$"):
                render_problem(spec, highlight=("class", k))


def test_cell_size_must_be_positive():
    with pytest.raises(ValueError):
        render_problem(AXIS5, cell_size=0)


# ---------------------------------------------------------------------------
# through the CLI


def test_render_command_writes_svg(runner, tmp_path):
    out = tmp_path / "fig.svg"
    result = runner.invoke(main, ["render", str(SAMPLES), "--problem", "squares5",
                                  "--highlight", "k=2", "-o", str(out)])
    assert result.exit_code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<?xml")
    assert text.count('<polygon class="sq hl"') == 9


def test_render_command_witness_highlight(runner, tmp_path):
    out = tmp_path / "w.svg"
    result = runner.invoke(main, ["render", str(SAMPLES), "--problem", "open-side",
                                  "--highlight", "0", "-o", str(out)])
    assert result.exit_code == 0
    assert '<polyline class="witness"' in out.read_text(encoding="utf-8")


def test_render_command_rejects_bad_highlight(runner, tmp_path):
    out = tmp_path / "x.svg"
    for bad in ("k=banana", "banana", "k=99", "999", "1_0", " 0", "+1", "k= 2", "k=+2"):
        result = runner.invoke(main, ["render", str(SAMPLES), "--problem", "squares5",
                                      "--highlight", bad, "-o", str(out)])
        assert result.exit_code == 2, bad


def test_render_command_unwritable_path_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["render", str(SAMPLES), "--problem", "squares5",
                                  "-o", str(tmp_path)])
    assert result.exit_code == 2


def test_render_command_matches_library_output(runner, tmp_path):
    out = tmp_path / "fig.svg"
    runner.invoke(main, ["render", str(SAMPLES), "--problem", "open-side", "-o", str(out)])
    spec = next(s for s in parse_spec(SAMPLES.read_text(encoding="utf-8"))
                if s.name == "open-side")
    assert out.read_text(encoding="utf-8") == render_problem(spec)

"""Acceptance gate: one test per criterion, each printing its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own report.
"""

import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import configcount.verify as verify_mod
from configcount.cli import main
from configcount.counting import MoveWord, MultisetSpec, count_move_words, multiset_permutations
from configcount.geometry import LatticeGrid
from configcount.speclang import ParseError, ProblemSpec, parse_spec, print_spec
from configcount.squares import (
    count_all_squares,
    count_axis_squares,
    count_squares_by_point_subsets,
    enumerate_all_squares,
    rail_decomposition,
)
from configcount.wordgrid import (
    count_paths_by_symbol_product,
    enumerate_word_paths,
    generate_manhattan_rings,
)

from conftest import ERROR_CORPUS, SAMPLES, Runner, perturb_first_class, perturb_total

DISTINCT_WORDS = {1: "a", 3: "abc", 5: "abcde", 7: "abcdefg"}


def _report(number: int, label: str) -> None:
    print(f"acceptance criterion {number} ({label}): PASS")


def _invoke(*args):
    return Runner().invoke(main, [str(a) for a in args])


def test_criterion_1_squares5_reproduction():
    started = time.perf_counter()
    result = _invoke("count", SAMPLES, "--problem", "squares5", "--format", "json")
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["total"] == "30"
    assert doc["classes"] == [
        {"label": "k=1", "count": "16"},
        {"label": "k=2", "count": "9"},
        {"label": "k=3", "count": "4"},
        {"label": "k=4", "count": "1"},
    ]
    assert elapsed < 1.0
    _report(1, "5x5 axis count is 30 = 16+9+4+1")


def test_criterion_2_rail_reproduction():
    report = rail_decomposition(LatticeGrid(5, 5), 2)
    assert report.rail_pairs == 3
    assert report.per_pair == 3
    assert report.total == 9
    _report(2, "size-2 rails: 3 pairs x 3 = 9")


def test_criterion_3_open_reading_reproduction():
    started = time.perf_counter()
    result = _invoke("count", SAMPLES, "--problem", "open-side", "--format", "json")
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["total"] == "24"
    assert [c["count"] for c in doc["classes"]] == ["6", "6", "6", "6"]
    assert elapsed < 1.0
    _report(3, "Open! side count is 24 = 4x6")


def test_criterion_4_multiset_formula():
    assert multiset_permutations(MultisetSpec(4, (2, 2))) == 6
    assert count_move_words(MoveWord(2, 2)) == 6
    _report(4, "4!/(2!2!) = 6 and UURR interleavings = 6")


def test_criterion_5_oracle_equivalence_sweep():
    started = time.perf_counter()
    for cols in range(1, 9):
        for rows in range(1, 9):
            grid = LatticeGrid(cols, rows)
            assert count_axis_squares(cols, rows).total == count_squares_by_point_subsets(
                grid, "axis"
            ), (cols, rows, "axis")
            assert count_all_squares(cols, rows).total == count_squares_by_point_subsets(
                grid, "all"
            ), (cols, rows, "all")
    for length, word in DISTINCT_WORDS.items():
        closed = 1 if length == 1 else 4 * math.comb(length - 1, (length - 1) // 2)
        oracle = len(enumerate_word_paths(generate_manhattan_rings(word), word, "side"))
        assert closed == oracle, word
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, f"grids to 8x8 and words to length 7 match oracles in {elapsed:.1f}s")


def test_criterion_6_derived_values_two_paths():
    assert count_all_squares(5, 5).total == 50
    assert len(enumerate_all_squares(LatticeGrid(5, 5))) == 50
    grid = generate_manhattan_rings("Open!")
    assert count_paths_by_symbol_product(grid, "Open!") == 1024
    assert len(enumerate_word_paths(grid, "Open!", "none")) == 1024
    _report(6, "5x5 all-squares 50 and unrestricted Open! 1024, both twice")


def _sweep_spec_text() -> str:
    specs = []
    for cols in range(1, 9):
        for rows in range(1, 9):
            for variant in ("axis", "all"):
                specs.append(ProblemSpec(f"g{cols}x{rows}-{variant}", "squares",
                                         cols=cols, rows=rows, variant=variant))
    for length, word in DISTINCT_WORDS.items():
        for adjacency in ("side", "king", "none"):
            if adjacency != "side" and length == 7:
                continue  # desk scale: 147k unconstrained witnesses stay in unit tests
            specs.append(ProblemSpec(f"w{length}-{adjacency}", "word-paths", word=word,
                                     layout="manhattan-rings", adjacency=adjacency))
    return print_spec(specs)


def test_criterion_7_harness_sensitivity(tmp_path, monkeypatch):
    sweep = tmp_path / "sweep.ccspec"
    sweep.write_text(_sweep_spec_text(), encoding="utf-8")

    clean = _invoke("verify", sweep)
    assert clean.exit_code == 0, clean.stdout

    for family in [f.name for f in verify_mod.FAMILIES.values() if f.closed]:
        for perturb in (perturb_total, perturb_first_class):
            for delta in (1, -1):
                with monkeypatch.context() as patched:
                    perturb(patched, family, delta)
                    perturbed = _invoke("verify", sweep)
                assert perturbed.exit_code == 1, (family, perturb.__name__, delta)
                assert "FAIL" in perturbed.stdout
    _report(7, "sweep verifies clean; every +-1 closed-form total or class fault trips exit 1")


def test_criterion_7_perturbs_every_closed_form_family():
    # Criterion 7 reaches a closed-form family only through a sweep problem of it.
    swept = {verify_mod.family_of(spec).name for spec in parse_spec(_sweep_spec_text())}
    closed = {family.name for family in verify_mod.FAMILIES.values() if family.closed}
    assert closed - swept == set()


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,9}", fullmatch=True)
_symbols = st.characters(blacklist_categories=("Cc", "Cs"))


@st.composite
def _problem_specs(draw):
    kind = draw(st.sampled_from(["squares", "rings", "explicit"]))
    if kind == "squares":
        return ProblemSpec(
            "x", "squares",
            cols=draw(st.integers(min_value=1, max_value=500)),
            rows=draw(st.integers(min_value=1, max_value=500)),
            variant=draw(st.sampled_from(["axis", "all"])),
        )
    adjacency = draw(st.sampled_from(["side", "king", "none"]))
    distinct = draw(st.booleans())
    if kind == "rings":
        half = draw(st.integers(min_value=0, max_value=4))
        word = draw(st.text(alphabet=_symbols, min_size=2 * half + 1, max_size=2 * half + 1))
        return ProblemSpec("x", "word-paths", word=word, layout="manhattan-rings",
                           adjacency=adjacency, distinct_cells=distinct)
    word = draw(st.text(alphabet=_symbols, min_size=1, max_size=8))
    width = draw(st.integers(min_value=1, max_value=5))
    rows_data = tuple(draw(st.lists(
        st.text(alphabet=_symbols, min_size=width, max_size=width),
        min_size=1, max_size=5,
    )))
    return ProblemSpec("x", "word-paths", word=word, layout="explicit",
                       rows_data=rows_data, adjacency=adjacency, distinct_cells=distinct)


@st.composite
def _spec_files(draw):
    bodies = draw(st.lists(_problem_specs(), min_size=1, max_size=3))
    names = draw(st.lists(_names, min_size=len(bodies), max_size=len(bodies), unique=True))
    return [ProblemSpec(**dict(vars(body), name=name)) for body, name in zip(bodies, names)]


@settings(max_examples=200, deadline=None)
@given(_spec_files())
def _roundtrip_property(specs):
    assert parse_spec(print_spec(specs)) == specs


def test_criterion_8_parser_round_trip_and_error_corpus():
    _roundtrip_property()  # 200 hypothesis examples

    corpus = sorted(ERROR_CORPUS.glob("*.ccspec"))
    assert len(corpus) >= 10
    for path in corpus:
        with pytest.raises(ParseError) as exc_info:
            parse_spec(path.read_text(encoding="utf-8"))
        assert exc_info.value.line >= 1
        assert exc_info.value.column >= 1
        result = _invoke("count", path)
        assert result.exit_code == 2, path.name
    _report(8, f"200 generated specs round-trip; {len(corpus)} bad files positioned + exit 2")


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "configcount", *args],
        capture_output=True, cwd=cwd, timeout=120,
    )


def test_criterion_9_byte_determinism(tmp_path):
    render_a = tmp_path / "a.svg"
    render_b = tmp_path / "b.svg"
    commands = [
        ["count", str(SAMPLES)],
        ["count", str(SAMPLES), "--format", "json"],
        ["enumerate", str(SAMPLES), "--problem", "squares5", "--limit", "5"],
        ["enumerate", str(SAMPLES), "--problem", "open-side", "--format", "json"],
        ["verify", str(SAMPLES)],
        ["explain", str(SAMPLES), "--problem", "squares5"],
        ["explain", str(SAMPLES), "--problem", "open-free", "--format", "json"],
    ]
    for args in commands:
        first = _run_cli(args, SAMPLES.parent)
        second = _run_cli(args, SAMPLES.parent)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
        assert first.stdout  # something was actually printed

    args = ["render", str(SAMPLES), "--problem", "squares5", "--highlight", "k=2"]
    first = _run_cli([*args, "-o", str(render_a)], SAMPLES.parent)
    second = _run_cli([*args, "-o", str(render_b)], SAMPLES.parent)
    assert first.returncode == second.returncode == 0
    assert render_a.read_bytes() == render_b.read_bytes()
    assert first.stdout == second.stdout == b""
    _report(9, "stdout and SVG artifacts byte-identical across runs")

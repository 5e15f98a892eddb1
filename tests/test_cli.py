"""Command-line behavior: formats, exit codes, determinism, error messages."""

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import configcount.cli as cli_mod
import configcount.geometry as geometry
import configcount.render as render_mod
import configcount.squares as squares_mod
import configcount.verify as verify_mod
from configcount.cli import main
from configcount.geometry import LatticeGrid
from configcount.speclang import ProblemSpec, print_spec
from configcount.squares import _square_totals, enumerate_all_squares, enumerate_axis_squares

from conftest import ERROR_CORPUS, REPO_ROOT, SAMPLES, Runner, perturb_total
from test_speclang import _SPEC_TOKENS, _explicit_specs, _names, _rings_specs
from test_verify import _step_iii


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# count


def test_count_text_squares5(runner):
    result = invoke(runner, "count", SAMPLES, "--problem", "squares5")
    assert result.exit_code == 0
    assert result.stdout == (
        "problem squares5: squares axis 5x5\n"
        "k=1: 16\nk=2: 9\nk=3: 4\nk=4: 1\n"
        "total 30\n"
    )


def test_count_text_all_problems(runner):
    result = invoke(runner, "count", SAMPLES)
    assert result.exit_code == 0
    assert "total 30" in result.stdout
    assert "total 50" in result.stdout
    assert "total 24" in result.stdout
    assert "total 1024" in result.stdout


def test_count_json_serializes_counts_as_strings(runner):
    result = invoke(runner, "count", SAMPLES, "--problem", "open-side", "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc == {
        "problem": "open-side",
        "kind": "word-paths",
        "total": "24",
        "classes": [
            {"label": "(0,0)", "count": "6"},
            {"label": "(0,4)", "count": "6"},
            {"label": "(4,0)", "count": "6"},
            {"label": "(4,4)", "count": "6"},
        ],
    }


def test_count_json_all_problems_one_object_per_line(runner):
    result = invoke(runner, "count", SAMPLES, "--format", "json")
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 5
    names = [json.loads(line)["problem"] for line in lines]
    assert names == ["squares5", "squares5-all", "open-side", "open-free", "open-king"]


def test_count_huge_grid_uses_exact_integers(runner, tmp_path):
    spec = tmp_path / "huge.ccspec"
    spec.write_text("problem big { kind: squares cols: 1000000 rows: 2 variant: axis }")
    result = invoke(runner, "count", spec)
    assert result.exit_code == 0
    assert "total 999999" in result.stdout


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_first_square(runner):
    result = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5", "--limit", "1")
    assert result.exit_code == 0
    assert result.stdout == "(0,0) k=1 a=0\n(omitted 29 more)\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_limit_past_sys_maxsize_prints_every_witness(runner, fmt):
    whole = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5", "--format", fmt)
    limited = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5", "--format", fmt,
                     "--limit", 10**20)
    assert (limited.exit_code, limited.stdout) == (0, whole.stdout)
    assert whole.stdout.count("k=" if fmt == "text" else '"k"') == 30


def test_enumerate_all_witnesses_of_open_reading(runner):
    result = invoke(runner, "enumerate", SAMPLES, "--problem", "open-side")
    assert result.exit_code == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 24
    assert lines[0] == "(2,2) (1,2) (0,2) (0,1) (0,0)"


def test_enumerate_json(runner):
    result = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5",
                    "--limit", "2", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["witnesses"] == [
        {"anchor": [0, 0], "k": 1, "a": 0},
        {"anchor": [1, 0], "k": 1, "a": 0},
    ]
    assert doc["omitted"] == "28"


_LIMITED = (
    ProblemSpec("sq", "squares", cols=7, rows=5, variant="all"),
    ProblemSpec("tm", "word-paths", word="abab", layout="explicit",
                rows_data=("aba", "bab", "aab"), adjacency="king"),
    ProblemSpec("dp", "word-paths", word="aaaaa", layout="explicit",
                rows_data=("aaa", "aaa"), adjacency="king", distinct_cells=True),
)


@pytest.mark.parametrize("spec", _LIMITED, ids=lambda spec: spec.name)
def test_enumerate_limit_reads_omitted_off_the_count(runner, tmp_path, monkeypatch, spec):
    # The stream is drawn up to the limit and no further; what it would still
    # have yielded is the problem's count (power sums, transfer matrix,
    # visited-set DP) less the limit.
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    total = sum(1 for _ in verify_mod.enumerate_witnesses(spec))
    drawn = []
    real = verify_mod.enumerate_witnesses

    def spy(*args, **kwargs):
        stream = real(*args, **kwargs)
        return (drawn.append(item) or item for item in stream)

    monkeypatch.setattr(verify_mod, "enumerate_witnesses", spy)
    for limit in (1, 3, total - 1, total, total + 5):
        for fmt in ("text", "json"):
            drawn.clear()
            result = invoke(runner, "enumerate", path, "--problem", spec.name,
                            "--format", fmt, "--limit", limit)
            assert result.exit_code == 0
            assert len(drawn) == min(limit, total), (limit, fmt)
            omitted = total - len(drawn)
            if fmt == "json":
                assert json.loads(result.stdout)["omitted"] == str(omitted)
            else:
                tail = f"(omitted {omitted} more)\n" if omitted else ""
                assert result.stdout.count("\n") == len(drawn) + bool(omitted)
                assert result.stdout.endswith(tail)
    assert total > 5


def test_enumerate_unknown_problem_exits_2(runner):
    result = invoke(runner, "enumerate", SAMPLES, "--problem", "nope")
    assert result.exit_code == 2
    assert "no such problem" in result.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_samples_exits_0(runner):
    result = invoke(runner, "verify", SAMPLES)
    assert result.exit_code == 0
    assert result.stdout.count("PASS") == 5
    assert "FAIL" not in result.stdout


def test_verify_shows_per_class_rows(runner):
    result = invoke(runner, "verify", SAMPLES, "--problem", "squares5")
    assert "closed form 30, oracle 30" in result.stdout
    assert "k=2: expected 9, observed 9" in result.stdout
    assert "duplicates: 0" in result.stdout


def test_verify_json(runner):
    result = invoke(runner, "verify", SAMPLES, "--problem", "open-free", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "PASS"
    assert doc["closed_form_total"] is None
    assert doc["oracle_total"] == "1024"
    assert doc["partition"][0] == {"label": "(0,0)", "expected": None, "observed": "256"}


def test_verify_fault_injection_exits_1(runner, monkeypatch):
    perturb_total(monkeypatch, "squares-axis", -1)
    result = invoke(runner, "verify", SAMPLES)
    assert result.exit_code == 1
    assert "FAIL" in result.stdout
    assert "closed-form total 29 != oracle total 30" in result.stdout


def test_only_a_standalone_run_freezes_the_collector(runner, tmp_path, monkeypatch):
    # A standalone run freezes the collector once, on every exit, so Python's
    # exit-time collections skip what the run made.  An in-process caller (the
    # runner, perfbench's spans) never freezes: that would pin its garbage.
    # A spy stands in for gc.freeze, which must not run in the test process.
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
    big = tmp_path / "big.ccspec"
    big.write_text("problem big { kind: squares cols: 4000 rows: 4000 variant: all }")
    cases = {"count": (["count", SAMPLES], 0), "FAIL": (["verify", SAMPLES], 1),
             "refusal": (["verify", big], 2), "usage": (["count", SAMPLES, "--format", "xml"], 2),
             "help": (["--help"], 0)}
    perturb_total(monkeypatch, "squares-axis", 1)
    for standalone_mode, freezes in ((True, 1), (False, 0)):
        for case, (args, code) in cases.items():
            calls.clear()
            result = runner.invoke(main, [str(a) for a in args], standalone_mode=standalone_mode)
            assert (result.exit_code, result.exception, len(calls)) == (code, None, freezes), (
                case, standalone_mode)


# The closed form of each of samples.ccspec's closed-form problems.
_SAMPLE_CLOSED_FORMS = {"squares5": "count_axis_squares", "squares5-all": "count_all_squares",
                        "open-side": "count_word_paths_closed"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["count", "verify", "explain"])
def test_commands_call_each_closed_form_where_verify_looks_it_up(runner, monkeypatch,
                                                                 command, fmt):
    # Tests and the traced benchmark replace a closed form in verify's namespace;
    # code that held the function itself would bypass the replacement silently.
    calls = []

    def spy(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in _SAMPLE_CLOSED_FORMS.values():
        monkeypatch.setattr(verify_mod, name, spy(name, getattr(verify_mod, name)))
    for problem, name in _SAMPLE_CLOSED_FORMS.items():
        calls.clear()
        result = invoke(runner, command, SAMPLES, "--problem", problem, "--format", fmt)
        assert result.exit_code == 0, (problem, result.stdout)
        assert calls == [name], problem


def test_verify_budget_exceeded_exits_2(runner, tmp_path):
    spec = tmp_path / "big.ccspec"
    spec.write_text("problem small { kind: squares cols: 3 rows: 3 variant: all }\n"
                    "problem big { kind: squares cols: 4000 rows: 4000 variant: all }")
    result = invoke(runner, "verify", spec)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: problem big: oracle budget exceeded: ")
    assert result.stdout.startswith("problem small: PASS")


def test_verify_reports_every_problem_around_overruns(runner, tmp_path, monkeypatch):
    perturb_total(monkeypatch, "squares-axis", 1)
    spec = tmp_path / "mixed.ccspec"
    spec.write_text("problem big1 { kind: squares cols: 4000 rows: 4000 variant: all }\n"
                    "problem small { kind: squares cols: 3 rows: 3 variant: all }\n"
                    "problem big2 { kind: squares cols: 5000 rows: 5000 variant: all }\n"
                    "problem failing { kind: squares cols: 3 rows: 3 variant: axis }")
    result = invoke(runner, "verify", spec, "--format", "json")
    # a budget error outranks the FAIL
    assert result.exit_code == 2
    errors = result.stderr.splitlines()
    assert len(errors) == 2
    assert errors[0].startswith("error: problem big1: oracle budget exceeded: ")
    assert errors[1].startswith("error: problem big2: oracle budget exceeded: ")
    docs = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(d["problem"], d["verdict"]) for d in docs] == [("small", "PASS"), ("failing", "FAIL")]


def _small_budget(monkeypatch, budget=1000):
    # Under the default budget an overrunning word search takes seconds; a
    # small one keeps the overrun real without the wait.  count reads word
    # classes off the reading counter, so its budget is lowered too.
    real = verify_mod.enumerate_witnesses
    monkeypatch.setattr(verify_mod, "enumerate_witnesses",
                        lambda spec, _budget=None, table=None: real(spec, budget, table))
    _small_counter_budget(monkeypatch, budget)


def _small_counter_budget(monkeypatch, budget):
    real = verify_mod.readings_per_end_cell
    monkeypatch.setattr(verify_mod, "readings_per_end_cell",
                        lambda *args, max_visits, **kwargs: real(*args, max_visits=budget, **kwargs))


_OVERRUN_BETWEEN = (
    "problem small { kind: squares cols: 3 rows: 3 variant: all }\n"
    'problem big { kind: word-paths word: "aaaaaa" layout: explicit '
    'rows-data: ["aaa", "aaa", "aaa"] adjacency: none }\n'
    'problem tiny { kind: word-paths word: "ab" layout: explicit rows-data: ["ab"] adjacency: side }'
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_reports_every_problem_around_an_overrun(runner, tmp_path, monkeypatch, fmt):
    _small_budget(monkeypatch)
    spec = tmp_path / "mixed.ccspec"
    spec.write_text(_OVERRUN_BETWEEN)
    result = invoke(runner, "count", spec, "--format", fmt)
    assert result.exit_code == 2
    assert result.stderr == "error: problem big: oracle budget exceeded: more than 1000 cell visits\n"
    if fmt == "text":
        assert result.stdout == ("problem small: squares all 3x3\nk=1: 4\nk=2: 2\ntotal 6\n\n"
                                 "problem tiny: word-paths 'ab' explicit side\n(1,0): 1\ntotal 1\n")
    else:
        docs = [json.loads(line) for line in result.stdout.splitlines()]
        assert [(d["problem"], d["total"]) for d in docs] == [("small", "6"), ("tiny", "1")]


@pytest.mark.parametrize("command", ["count", "verify"])
def test_every_problem_overrunning_leaves_stdout_empty(runner, tmp_path, monkeypatch, command):
    _small_budget(monkeypatch)
    spec = tmp_path / "big.ccspec"
    spec.write_text(_OVERRUN_BETWEEN)
    result = invoke(runner, command, spec, "--problem", "big")
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["enumerate", "render"])
def test_budget_error_names_the_problem(runner, tmp_path, command):
    spec = tmp_path / "big.ccspec"
    spec.write_text("problem big { kind: squares cols: 4000 rows: 4000 variant: axis }")
    args = [command, spec, "--problem", "big"]
    if command == "render":
        args += ["-o", tmp_path / "big.svg"]
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: problem big: oracle budget exceeded: ")


@pytest.mark.parametrize("command", ["count", "verify"])
def test_deep_word_exits_0(runner, tmp_path, command):
    # 1500 nested positions: deeper than the interpreter's default recursion limit.
    spec = tmp_path / "deep.ccspec"
    spec.write_text('problem deep { kind: word-paths word: "' + "a" * 1500 + '" '
                    'layout: explicit rows-data: ["a"] adjacency: none }')
    result = invoke(runner, command, spec, "--problem", "deep", "--format", "json")
    assert result.exit_code == 0, result.stdout
    doc = json.loads(result.stdout)
    assert doc.get("total", doc.get("oracle_total")) == "1"


# ---------------------------------------------------------------------------
# explain


def test_explain_squares5_shows_addition(runner):
    result = invoke(runner, "explain", SAMPLES, "--problem", "squares5")
    assert result.exit_code == 0
    assert "Step i)" in result.stdout
    assert "16 + 9 + 4 + 1 = 30" in result.stdout


def test_explain_open_reading_shows_product(runner):
    result = invoke(runner, "explain", SAMPLES, "--problem", "open-side")
    assert result.exit_code == 0
    assert "4 × 6 = 24" in result.stdout


def test_explain_oracle_only_is_marked(runner):
    result = invoke(runner, "explain", SAMPLES, "--problem", "open-free")
    assert result.exit_code == 0
    assert "enumeration only, no closed form; total 1024" in result.stdout


def test_explain_grid_with_no_squares(runner, tmp_path):
    spec = tmp_path / "tiny.ccspec"
    spec.write_text("problem tiny { kind: squares cols: 1 rows: 1 variant: axis }")
    result = invoke(runner, "explain", spec, "--problem", "tiny")
    assert result.exit_code == 0
    assert "total 0" in result.stdout


def test_explain_json_mirrors_trace(runner):
    result = invoke(runner, "explain", SAMPLES, "--problem", "squares5", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["step_iv"]["rule"] == "addition"
    assert doc["step_iv"]["total"] == "30"
    assert doc["step_iv"]["classes"][0] == {"label": "k=1", "count": "16"}
    assert len(doc["step_ii"]) == 2
    assert len(doc["step_iii"]) == 4


# ---------------------------------------------------------------------------
# streamed listings


# Reference formatters that build each document whole, as one list of lines or
# one json.dumps call, with the total summed from the classes.  The streamed
# output of count and explain must be the same bytes.
def _whole_count_text(spec, classes):
    label = verify_mod.family_of(spec).label
    lines = [f"problem {spec.name}: {cli_mod._describe(spec)}"]
    lines += [f"{label % key}: {n}" for key, n in classes.items()]
    lines.append(f"total {sum(classes.values())}")
    return "\n".join(lines)


def _whole_count_json(spec, classes):
    return json.dumps({
        "problem": spec.name,
        "kind": spec.kind,
        "total": str(sum(classes.values())),
        "classes": [{"label": verify_mod.family_of(spec).label % key, "count": str(n)}
                    for key, n in classes.items()],
    })


def _whole_explain_json(trace):
    rows = list(_step_iii(trace))
    sizes = list(trace.classes.values())
    return json.dumps({
        "problem": trace.problem,
        "step_i": trace.step_i,
        "step_ii": list(trace.step_ii),
        "step_iii": [{"label": label, "note": note} for label, note in rows],
        "step_iv": {
            "classes": [{"label": label, "count": str(n)} for (label, _), n in zip(rows, sizes)],
            "rule": trace.step_iv_rule,
            "total": str(sum(sizes)),
        },
    })


def _whole_explain_text(trace):
    sizes = list(trace.classes.values())
    total = sum(sizes)
    lines = [f"problem {trace.problem}", f"Step i) {trace.step_i}", "Step ii) constraints:"]
    lines += [f"  - {item}" for item in trace.step_ii]
    lines.append("Step iii) classes:")
    lines += [f"  - {label}: {note}" for label, note in _step_iii(trace)]
    if trace.step_iv_rule == "enumeration-only":
        step_iv = f"enumeration only, no closed form; total {total}"
    elif trace.step_iv_rule == "product":
        step_iv = (f"{len(sizes)} × {sizes[0]} = {total} "
                   f"(product principle over {len(sizes)} symmetric classes)")
    elif not sizes:
        step_iv = f"total {total} (no classes fit)"
    else:
        step_iv = f"{' + '.join(map(str, sizes))} = {total} (addition principle)"
    lines.append(f"Step iv) {step_iv}")
    return "\n".join(lines)


def _rings(name, word, adjacency, distinct=False):
    return ProblemSpec(name, "word-paths", word=word, layout="manhattan-rings",
                       adjacency=adjacency, distinct_cells=distinct)


@pytest.mark.parametrize("spec, listed", [
    (ProblemSpec("wide", "squares", cols=2000, rows=1500, variant="axis"), 1499),
    (ProblemSpec("wide", "squares", cols=2000, rows=1500, variant="all"), 1499),
    # The listing spans several writes.
    (ProblemSpec("giant", "squares", cols=20000, rows=20000, variant="all"), 19999),
    # 2,998 classes: whole blocks of rows, then a part block.
    (ProblemSpec("odd", "squares", cols=3001, rows=2999, variant="axis"), 2998),
    (ProblemSpec("odd", "squares", cols=3001, rows=2999, variant="all"), 2998),
    (_rings("closed", "abcdefghi", "side"), 4),
    (_rings("single", "x", "side"), 1),
    # Distinct symbols keep the counters cheap (see enumerate's byte test).
    (_rings("king", "abcdefg", "king"), 4),
    (_rings("free", "abcdefg", "none", distinct=True), 4),
    # End cells up to x = 11: labels of one and two digits.
    (ProblemSpec("table", "word-paths", word="ab", layout="explicit",
                 rows_data=("abababababab", "babababababa", "abababababab"), adjacency="king"),
     18),
    # JSON escapes a name or a word past ASCII, a quote and a backslash.
    (ProblemSpec("é", "squares", cols=3, rows=3, variant="all"), 2),
    (_rings("x²", "abcde", "side"), 4),
    (_rings("quoted", 'a"\\éb', "side"), 4),
], ids=["axis", "all", "20000x20000-all", "3001x2999-axis", "3001x2999-all", "rings-closed",
        "rings-single", "rings-king", "rings-none", "table-12-cols", "name-e-acute",
        "name-x-squared", "rings-escaped-word"])
def test_streamed_listings_match_whole_documents(runner, tmp_path, spec, listed):
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    classes = dict(verify_mod.class_counts(spec))
    trace = verify_mod.build_step_trace(spec)
    assert len(classes) == listed
    expected = {
        ("count", "text"): _whole_count_text(spec, classes),
        ("count", "json"): _whole_count_json(spec, classes),
        ("explain", "text"): _whole_explain_text(trace),
        ("explain", "json"): _whole_explain_json(trace),
    }
    for (command, fmt), document in expected.items():
        result = invoke(runner, command, path, "--problem", spec.name, "--format", fmt)
        assert result.exit_code == 0
        assert result.stdout == document + "\n", (command, fmt)


_THIN = ProblemSpec("thin", "squares", cols=1, rows=5, variant="all")
_TWO = ProblemSpec("two", "squares", cols=2, rows=2, variant="axis")
_ONE_LETTER = ProblemSpec("one", "word-paths", word="a", layout="explicit", rows_data=("a",),
                          adjacency="side")
_NO_READING = ProblemSpec("none", "word-paths", word="ab", layout="explicit", rows_data=("aa",),
                          adjacency="king")


@pytest.mark.parametrize("spec, documents", [
    (_THIN, {
        ("count", "text"): "problem thin: squares all 1x5\ntotal 0\n",
        ("count", "json"):
            '{"problem": "thin", "kind": "squares", "total": "0", "classes": []}\n',
        ("explain", "text"):
            "problem thin\nStep i) squares of any tilt drawn on a 1x5 grid of points\n"
            "Step ii) constraints:\n  - all four vertices are grid points\n"
            "Step iii) classes:\nStep iv) total 0 (no classes fit)\n",
        ("explain", "json"):
            '{"problem": "thin", "step_i": "squares of any tilt drawn on a 1x5 grid of points", '
            '"step_ii": ["all four vertices are grid points"], "step_iii": [], '
            '"step_iv": {"classes": [], "rule": "addition", "total": "0"}}\n',
    }),
    (_TWO, {
        ("count", "text"): "problem two: squares axis 2x2\nk=1: 1\ntotal 1\n",
        ("count", "json"):
            '{"problem": "two", "kind": "squares", "total": "1", '
            '"classes": [{"label": "k=1", "count": "1"}]}\n',
        ("explain", "text"):
            "problem two\nStep i) axis-aligned squares drawn on a 2x2 grid of points\n"
            "Step ii) constraints:\n  - all four vertices are grid points\n"
            "  - sides are parallel to the coordinate axes\nStep iii) classes:\n"
            "  - k=1: 1 rail pairs at distance 1, 1 squares per pair\n"
            "Step iv) 1 = 1 (addition principle)\n",
        ("explain", "json"):
            '{"problem": "two", "step_i": "axis-aligned squares drawn on a 2x2 grid of points", '
            '"step_ii": ["all four vertices are grid points", '
            '"sides are parallel to the coordinate axes"], '
            '"step_iii": [{"label": "k=1", '
            '"note": "1 rail pairs at distance 1, 1 squares per pair"}], '
            '"step_iv": {"classes": [{"label": "k=1", "count": "1"}], "rule": "addition", '
            '"total": "1"}}\n',
    }),
    (_ONE_LETTER, {
        ("count", "text"): "problem one: word-paths 'a' explicit side\n(0,0): 1\ntotal 1\n",
        ("count", "json"):
            '{"problem": "one", "kind": "word-paths", "total": "1", '
            '"classes": [{"label": "(0,0)", "count": "1"}]}\n',
        ("explain", "text"):
            "problem one\nStep i) readings of 'a' in a 1x1 letter grid\n"
            "Step ii) constraints:\n  - consecutive cells share a side\n"
            "  - the visited cells spell 'a' in order\nStep iii) classes:\n"
            "  - (0,0): readings ending at cell (0,0)\n"
            "Step iv) enumeration only, no closed form; total 1\n",
        ("explain", "json"):
            '{"problem": "one", "step_i": "readings of \'a\' in a 1x1 letter grid", '
            '"step_ii": ["consecutive cells share a side", '
            '"the visited cells spell \'a\' in order"], '
            '"step_iii": [{"label": "(0,0)", "note": "readings ending at cell (0,0)"}], '
            '"step_iv": {"classes": [{"label": "(0,0)", "count": "1"}], '
            '"rule": "enumeration-only", "total": "1"}}\n',
    }),
    (_NO_READING, {
        ("count", "text"): "problem none: word-paths 'ab' explicit king\ntotal 0\n",
        ("count", "json"):
            '{"problem": "none", "kind": "word-paths", "total": "0", "classes": []}\n',
        ("explain", "text"):
            "problem none\nStep i) readings of 'ab' in a 2x1 letter grid\n"
            "Step ii) constraints:\n  - consecutive cells share a side or a corner\n"
            "  - the visited cells spell 'ab' in order\nStep iii) classes:\n"
            "Step iv) enumeration only, no closed form; total 0\n",
        ("explain", "json"):
            '{"problem": "none", "step_i": "readings of \'ab\' in a 2x1 letter grid", '
            '"step_ii": ["consecutive cells share a side or a corner", '
            '"the visited cells spell \'ab\' in order"], "step_iii": [], '
            '"step_iv": {"classes": [], "rule": "enumeration-only", "total": "0"}}\n',
    }),
], ids=["thin-grid", "2x2-axis", "one-letter", "no-reading"])
def test_listing_edge_documents(runner, tmp_path, spec, documents):
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    for (command, fmt), stdout in documents.items():
        result = invoke(runner, command, path, "--problem", spec.name, "--format", fmt)
        assert (result.exit_code, result.stdout) == (0, stdout), (command, fmt)


def _whole_enumerate(spec, fmt, limit):
    # enumerate's document built whole from the library's Square list.
    build = enumerate_all_squares if spec.variant == "all" else enumerate_axis_squares
    squares = build(LatticeGrid(spec.cols, spec.rows))
    shown = squares[:limit]
    omitted = len(squares) - len(shown)
    if fmt == "json":
        return json.dumps({
            "problem": spec.name,
            "kind": spec.kind,
            "witnesses": [{"anchor": [s.anchor.x, s.anchor.y], "k": s.k, "a": s.a}
                          for s in shown],
            "omitted": str(omitted),
        }) + "\n"
    lines = [f"({s.anchor.x},{s.anchor.y}) k={s.k} a={s.a}" for s in shown]
    if omitted:
        lines.append(f"(omitted {omitted} more)")
    return "\n".join(lines) + "\n" if lines else ""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("variant", ["axis", "all"])
def test_streamed_enumeration_matches_whole_documents(runner, tmp_path, variant, fmt):
    path = tmp_path / "g.ccspec"
    for cols in range(1, 13):
        for rows in range(1, 13):
            spec = ProblemSpec("g", "squares", cols=cols, rows=rows, variant=variant)
            path.write_text(print_spec([spec]))
            for limit in (None, 1, 7, 100):
                args = ["enumerate", path, "--problem", "g", "--format", fmt]
                result = invoke(runner, *args, *(() if limit is None else ("--limit", limit)))
                assert result.exit_code == 0
                assert result.stdout == _whole_enumerate(spec, fmt, limit), (cols, rows, limit)


def _documented_enumerate(spec, fmt, limit):
    # enumerate's documented output, built whole with json.dumps and f-strings
    # from the library's witness stream.
    witnesses = list(verify_mod.enumerate_witnesses(spec, None))
    shown = witnesses[:limit]
    omitted = len(witnesses) - len(shown)
    if spec.kind == "squares":
        items = [{"anchor": [x, y], "k": k, "a": a} for k, a, y, x in shown]
        lines = [f"({x},{y}) k={k} a={a}" for k, a, y, x in shown]
    else:
        items = [{"cells": [[x, y] for x, y in cells]} for cells in shown]
        lines = [" ".join(f"({x},{y})" for x, y in cells) for cells in shown]
    if fmt == "json":
        return json.dumps({"problem": spec.name, "kind": spec.kind, "witnesses": items,
                           "omitted": str(omitted)}) + "\n"
    if omitted:
        lines.append(f"(omitted {omitted} more)")
    return "".join(line + "\n" for line in lines)


def _assert_enumerate_bytes(runner, tmp_path, spec, limit):
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]), encoding="utf-8")
    for fmt in ("text", "json"):
        for extra in ((), ("--limit", limit)):
            result = invoke(runner, "enumerate", path, "--problem", spec.name,
                            "--format", fmt, *extra)
            assert result.exit_code == 0, result.stdout
            expected = _documented_enumerate(spec, fmt, limit if extra else None)
            if result.stdout != expected:
                # Name the first differing byte: a diff of long outputs takes minutes.
                at = next(i for i, (a, b) in enumerate(zip(result.stdout + "$", expected + "$"))
                          if a != b)
                pytest.fail(f"{fmt} {extra}: byte {at}: {result.stdout[at - 40:at + 40]!r} "
                            f"!= {expected[at - 40:at + 40]!r}")


_table_words = st.text(alphabet="ab", min_size=1, max_size=3)
_wide_tables = st.integers(min_value=1, max_value=13).flatmap(
    lambda cols: st.lists(st.text(alphabet="ab", min_size=cols, max_size=cols),
                          min_size=1, max_size=3).map(tuple))
_witness_specs = st.one_of(
    st.builds(lambda name, cols, rows, variant: ProblemSpec(
                  name, "squares", cols=cols, rows=rows, variant=variant),
              _names, st.integers(1, 13), st.integers(1, 13), st.sampled_from(["axis", "all"])),
    st.builds(lambda name, word, table, adjacency, distinct: ProblemSpec(
                  name, "word-paths", word=word, layout="explicit", rows_data=table,
                  adjacency=adjacency, distinct_cells=distinct),
              _names, _table_words, _wide_tables, st.sampled_from(["side", "king", "none"]),
              st.booleans()),
    st.builds(lambda name, word, adjacency, distinct: ProblemSpec(
                  name, "word-paths", word=word, layout="manhattan-rings",
                  adjacency=adjacency, distinct_cells=distinct),
              _names,
              # Distinct symbols keep every count cheap on an 11x11 table.
              st.integers(0, 5).flatmap(lambda h: st.permutations("abcdefghijk").map(
                  lambda letters: "".join(letters[:2 * h + 1]))),
              st.sampled_from(["side", "king", "none"]), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(spec=_witness_specs, limit=st.integers(1, 40))
def test_enumerate_writes_the_documented_bytes(tmp_path_factory, spec, limit):
    # Witnesses are formatted from templates and column/row strings, not
    # through json.dumps; the bytes must be json.dumps of the documented form,
    # with coordinates of one and two digits.
    try:
        total = verify_mod.family_of(spec).total(verify_mod.class_counts(spec))
    except verify_mod.OracleBudgetError:
        total = None
    assume(total is not None and total <= 3000)
    _assert_enumerate_bytes(Runner(), tmp_path_factory.mktemp("e"), spec, limit)


@pytest.mark.parametrize("spec, fmt, stdout", [
    (ProblemSpec("one", "word-paths", word="a", layout="explicit", rows_data=("a",),
                 adjacency="side"), "json",
     '{"problem": "one", "kind": "word-paths", "witnesses": [{"cells": [[0, 0]]}], '
     '"omitted": "0"}\n'),
    (ProblemSpec("one", "word-paths", word="a", layout="explicit", rows_data=("a",),
                 adjacency="side"), "text", "(0,0)\n"),
    (ProblemSpec("none", "word-paths", word="ab", layout="explicit", rows_data=("aa",),
                 adjacency="king"), "json",
     '{"problem": "none", "kind": "word-paths", "witnesses": [], "omitted": "0"}\n'),
    (ProblemSpec("none", "word-paths", word="ab", layout="explicit", rows_data=("aa",),
                 adjacency="king"), "text", ""),
    (ProblemSpec("thin", "squares", cols=1, rows=5, variant="all"), "json",
     '{"problem": "thin", "kind": "squares", "witnesses": [], "omitted": "0"}\n'),
    (ProblemSpec("thin", "squares", cols=1, rows=5, variant="all"), "text", ""),
], ids=["one-letter-json", "one-letter-text", "no-reading-json", "no-reading-text",
        "thin-grid-json", "thin-grid-text"])
def test_enumerate_edge_documents(runner, tmp_path, spec, fmt, stdout):
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    for extra in ((), ("--limit", 1), ("--limit", 5)):
        result = invoke(runner, "enumerate", path, "--problem", spec.name, "--format", fmt,
                        *extra)
        assert (result.exit_code, result.stdout) == (0, stdout), extra


class _WriteRecorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


_KING_WALK_6 = ProblemSpec("king-walk", "word-paths", word="aaaaaa", layout="explicit",
                           rows_data=("aaaa",) * 4, adjacency="king", distinct_cells=True)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec, total", [
    (ProblemSpec("t30", "squares", cols=30, rows=30, variant="all"), 67425),
    (_KING_WALK_6, 22672),
], ids=["30x30-all", "king-walk"])
def test_enumerate_write_holds_a_bounded_number_of_witnesses(tmp_path, monkeypatch,
                                                              spec, total, fmt):
    # The cli docstring's bound: at most 16,384 JSON items or 256 lines per write.
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    main(["enumerate", str(path), "--problem", spec.name, "--format", fmt],
         standalone_mode=False)
    monkeypatch.undo()
    marker = '"anchor"' if spec.kind == "squares" else '"cells"'
    per_write = [w.count(marker) if fmt == "json" else w.count("\n") for w in recorder.writes]
    assert sum(per_write) == total
    assert max(per_write) <= (16384 if fmt == "json" else 256)
    if fmt == "json":
        assert len(json.loads("".join(recorder.writes))["witnesses"]) == total


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["count", "explain"])
def test_listing_write_holds_a_bounded_number_of_classes(tmp_path, monkeypatch, command, fmt):
    # The cli docstring's bound: at most 256 listing lines, or 16,384 step iv
    # terms or JSON items, per write.  20000x20000 `all` has 19,999 classes.
    spec = ProblemSpec("t20000", "squares", cols=20000, rows=20000, variant="all")
    path = tmp_path / "p.ccspec"
    path.write_text(print_spec([spec]))
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    main([command, str(path), "--problem", spec.name, "--format", fmt], standalone_mode=False)
    monkeypatch.undo()
    listings = 2 if command == "explain" else 1
    if fmt == "json":
        items = [w.count('"label"') for w in recorder.writes]
        assert sum(items) == 19999 * listings
        assert max(items) <= 16384
        return
    lines = [w.count("k=") for w in recorder.writes]  # one per listing line
    terms = [w.count(" + ") for w in recorder.writes]
    assert sum(lines) == 19999
    assert sum(terms) == (19998 if command == "explain" else 0)
    assert max(lines) <= 256
    assert max(terms) <= 16384


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_listing_writes_stay_bounded_over_many_listings(tmp_path, monkeypatch, fmt):
    # 300 listings of 100 classes each: the bound holds across listings, not
    # only within one.
    spec = "problem p { kind: squares cols: 101 rows: 101 variant: axis }\n"
    path = tmp_path / "p.ccspec"
    path.write_text("".join(spec.replace(" p ", f" p{i} ") for i in range(300)))
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    main(["count", str(path), "--format", fmt], standalone_mode=False)
    monkeypatch.undo()
    marker = '"label"' if fmt == "json" else "k="
    per_write = [w.count(marker) for w in recorder.writes]
    assert sum(per_write) == 300 * 100
    assert max(per_write) <= (16384 if fmt == "json" else 256)


_FIELDS = st.integers(min_value=-2**70, max_value=2**70)


@st.composite
def _listings(draw):
    """A row template of 1-4 ``%d`` fields among literal text and ``%%``, and
    equal-length columns for it: none, one, or about a block of rows."""
    width = draw(st.integers(1, 4))
    text = st.sampled_from(["", "k=", ": ", "%%", " (%%d) ", "\n", "é"])
    template = "".join(draw(text) + "%d" for _ in range(width)) + draw(text)
    block = cli_mod._ITEMS
    rows = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 5]))
    columns = tuple(draw(st.lists(_FIELDS, min_size=rows, max_size=rows))
                    for _ in range(width))
    return template, columns


@settings(max_examples=150, deadline=None)
@given(_listings(), st.sampled_from(["", ", ", " + "]))
def test_filled_blocks_equal_their_rows(listing, separator):
    template, columns = listing
    assert ("".join(cli_mod._rows(template, columns, separator))
            == separator.join(template % row for row in zip(*columns)))
    # Iterators are read once, as the families' map columns are.
    assert ("".join(cli_mod._rows(template, tuple(map(iter, columns)), separator))
            == separator.join(template % row for row in zip(*columns)))


def test_no_command_builds_a_square(runner, tmp_path, monkeypatch):
    built = []

    class SpySquare(geometry.Square):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for module in (geometry, squares_mod):
        monkeypatch.setattr(module, "Square", SpySquare)
    path = tmp_path / "all5.ccspec"
    path.write_text(print_spec([ProblemSpec("all5", "squares", cols=5, rows=5, variant="all"),
                                ProblemSpec("axis5", "squares", cols=5, rows=5, variant="axis")]))
    svg = tmp_path / "all5.svg"
    for args in (["verify"],
                 ["enumerate", "--problem", "all5"],
                 ["enumerate", "--problem", "all5", "--limit", "3"],
                 ["enumerate", "--problem", "all5", "--format", "json"],
                 ["enumerate", "--problem", "all5", "--format", "json", "--limit", "3"],
                 ["render", "--problem", "all5", "-o", svg],
                 ["render", "--problem", "all5", "--highlight", "k=2", "-o", svg],
                 ["render", "--problem", "all5", "--highlight", "7", "-o", svg]):
        result = invoke(runner, args[0], path, *args[1:])
        assert result.exit_code == 0, args
    assert built == []
    # The spy sees the library's list builder build its squares.
    assert len(enumerate_all_squares(LatticeGrid(5, 5))) == len(built) == 50


@pytest.mark.parametrize("command", ["count", "explain"])
def test_oversize_listing_is_refused_before_writing(runner, tmp_path, command):
    spec = tmp_path / "huge.ccspec"
    spec.write_text("problem huge { kind: squares cols: 100000000 rows: 100000001 variant: axis }")
    start = time.perf_counter()
    result = invoke(runner, command, spec, "--problem", "huge")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: problem huge: oracle budget exceeded: "
                             "listing of 99999999 classes > 10000000\n")


# 10^4298 columns: every count of this problem has more than 4,300 digits,
# Python's default limit for str() of an int, which the CLI lifts.
_WIDE_COLS = 10**4298
_WIDE = f"problem wide {{ kind: squares cols: {_WIDE_COLS} rows: 100 variant: axis }}"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_past_4300_digits_print_in_full(runner, tmp_path, fmt):
    spec = tmp_path / "wide.ccspec"
    spec.write_text(_WIDE)
    count = invoke(runner, "count", spec, "--format", fmt)
    explain = invoke(runner, "explain", spec, "--problem", "wide", "--format", fmt)
    assert (count.exit_code, count.stderr, explain.exit_code, explain.stderr) == (0, "", 0, "")
    total = sum((_WIDE_COLS - k) * (100 - k) for k in range(1, 100))
    assert len(str(total)) == 4302
    if fmt == "json":
        doc = json.loads(count.stdout)
        assert (doc["total"], len(doc["classes"])) == (str(total), 99)
        assert json.loads(explain.stdout)["step_iv"]["total"] == str(total)
    else:
        assert count.stdout.endswith(f"\ntotal {total}\n")
        assert explain.stdout.endswith(f" = {total} (addition principle)\n")


@pytest.mark.parametrize("args", [["verify"], ["verify", "--format", "json"],
                                  ["enumerate", "--problem", "wide", "--limit", "1"],
                                  ["render", "--problem", "wide", "-o", "out.svg"]],
                         ids=["verify", "verify-json", "enumerate", "render"])
def test_audits_past_4300_digits_exit_2_naming_the_budget(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("wide.ccspec").write_text(_WIDE)
    result = invoke(runner, args[0], "wide.ccspec", *args[1:])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: problem wide: oracle budget exceeded: ")
    assert result.stderr.count("\n") == 1
    assert not Path("out.svg").exists()


@pytest.mark.parametrize("args", [["count"], ["verify"], ["explain", "--problem", "p"],
                                  ["enumerate", "--problem", "p"],
                                  ["render", "--problem", "p", "-o", "out.svg"]],
                         ids=["count", "verify", "explain", "enumerate", "render"])
def test_an_integer_literal_past_4300_digits_exits_2_in_every_command(runner, args):
    path = ERROR_CORPUS / "e15_long_integer.ccspec"
    # The CLI lifts Python's limit on int digits; the parser keeps its own.
    assert invoke(runner, "--help").exit_code == 0
    result = invoke(runner, args[0], path, *args[1:])
    assert (result.exit_code, result.stdout, result.stderr) == (
        2, "", f"error: {path}: 1:33: integer literal too long (5000 digits)\n")


def _run_capped(args, cwd, limit_mb):
    """``python -m configcount <args>`` with its address space capped; exit code and stdout."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = cwd / "out.txt"
    with open(out, "wb") as stdout:
        done = subprocess.run([sys.executable, "-m", "configcount", *args], cwd=cwd,
                              stdout=stdout, stderr=subprocess.PIPE, preexec_fn=cap,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return done.returncode, out.read_text(encoding="utf-8"), done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_listings_stream_in_bounded_memory(tmp_path):
    # 299,999 classes: about 26 MB of explain text and 42 MB of explain JSON,
    # written under a 64 MB address-space cap on the child alone.
    (tmp_path / "big.ccspec").write_text(
        "problem p { kind: squares cols: 300000 rows: 300000 variant: axis }")
    total = _square_totals(300000, 300000)[0]
    endings = {
        ("count", "text"): f"\ntotal {total}\n",
        ("count", "json"): f'{{"label": "k=299999", "count": "1"}}]}}\n',
        ("explain", "text"): f" + 1 = {total} (addition principle)\n",
        ("explain", "json"): f'"rule": "addition", "total": "{total}"}}}}\n',
    }
    for (command, fmt), ending in endings.items():
        code, out, err = _run_capped([command, "big.ccspec", "--problem", "p", "--format", fmt],
                                     tmp_path, 64)
        assert code == 0, (command, fmt, err[-500:])
        assert out.endswith(ending), (command, fmt, out[-200:])
        if command == "count" and fmt == "json":
            assert json.loads(out)["total"] == str(total)


_T60 = "problem t60 { kind: squares cols: 60 rows: 60 variant: all }"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_verify_streams_squares_in_bounded_memory(tmp_path):
    # 1,079,700 witnesses, audited under a 64 MB address-space cap.
    (tmp_path / "t60.ccspec").write_text(_T60)
    code, out, err = _run_capped(["verify", "t60.ccspec"], tmp_path, 64)
    assert code == 0, err[-500:]
    assert out.startswith("problem t60: PASS (closed form 1079700, oracle 1079700)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_enumerate_streams_squares_in_bounded_memory(tmp_path):
    # 1,079,700 witnesses, none held: --limit counts the rest, JSON writes them all.
    (tmp_path / "t60.ccspec").write_text(_T60)
    args = ["enumerate", "t60.ccspec", "--problem", "t60"]
    code, out, err = _run_capped([*args, "--limit", "1"], tmp_path, 64)
    assert (code, out, err) == (0, "(0,0) k=1 a=0\n(omitted 1079699 more)\n", b"")
    code, out, err = _run_capped([*args, "--format", "json"], tmp_path, 64)
    assert code == 0, err[-500:]
    assert out.startswith('{"problem": "t60", "kind": "squares", "witnesses": '
                          '[{"anchor": [0, 0], "k": 1, "a": 0}, ')
    assert out.endswith('{"anchor": [0, 0], "k": 59, "a": 58}], "omitted": "0"}\n')
    assert out.count('"anchor"') == 1079700


_KING_WALK_11 = ('problem walk { kind: word-paths word: "aaaaaaaaaaa" layout: explicit '
                 'rows-data: ["aaaa", "aaaa", "aaaa", "aaaa"] adjacency: king '
                 'distinct-cells: true }')


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_count_reads_self_avoiding_words_off_the_visited_set_dp(tmp_path):
    # 1,594,648 readings, none listed: count merges them into 160,436 DP states.
    (tmp_path / "walk.ccspec").write_text(_KING_WALK_11)
    code, out, err = _run_capped(["count", "walk.ccspec"], tmp_path, 64)
    assert code == 0, err[-500:]
    assert out.startswith("problem walk: word-paths 'aaaaaaaaaaa' explicit king distinct-cells\n")
    assert out.endswith("\ntotal 1594648\n")


_KING_WALK_9 = ('problem w { kind: word-paths word: "aaaaaaaaa" layout: explicit '
                'rows-data: ["aaaa", "aaaa", "aaaa", "aaaa"] adjacency: king '
                'distinct-cells: true }')


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_verify_and_enumerate_stream_readings_in_bounded_memory(tmp_path):
    # 436,984 self-avoiding readings, none held: verify tallies each one as the
    # search yields it, and enumerate --limit reads the rest off the count.
    (tmp_path / "w.ccspec").write_text(_KING_WALK_9)
    code, out, err = _run_capped(["verify", "w.ccspec"], tmp_path, 64)
    assert code == 0, err[-500:]
    assert out.startswith("problem w: PASS (oracle 436984, enumeration only)\n")
    code, out, err = _run_capped(["enumerate", "w.ccspec", "--problem", "w", "--limit", "1"],
                                 tmp_path, 64)
    assert (code, err) == (0, b"")
    assert out == ("(0,0) (0,1) (0,2) (0,3) (1,2) (1,1) (1,0) (2,0) (2,1)\n"
                   "(omitted 436983 more)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("command", [["render", "--highlight", "0", "-o", "out.svg"],
                                     ["enumerate", "--limit", "1"]], ids=lambda c: c[0])
def test_self_avoiding_overrun_is_refused_before_searching(tmp_path, command):
    # The visited-set DP refuses a 12-letter walk on a 5x5 table before the
    # first reading; a search that counted its own visits held every reading
    # until the count tripped (render: 31 s at 1.9 GB).
    (tmp_path / "big.ccspec").write_text(
        'problem big { kind: word-paths word: "aaaaaaaaaaaa" layout: explicit rows-data: '
        '["aaaaa", "aaaaa", "aaaaa", "aaaaa", "aaaaa"] adjacency: king distinct-cells: true }')
    code, out, err = _run_capped([command[0], "big.ccspec", "--problem", "big", *command[1:]],
                                 tmp_path, 256)
    assert (code, out, err) == (2, "", b"error: problem big: oracle budget exceeded: "
                                       b"more than 10000000 cell visits\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_running_out_of_memory_exits_2_naming_the_problem(tmp_path):
    # The visited-set DP of a 4-letter walk on a 100x100 table of one letter
    # keeps a bitmask over 10^4 cells per state: about 336 MB, uncapped.
    rows = ", ".join(['"' + "a" * 100 + '"'] * 100)
    (tmp_path / "sparse.ccspec").write_text(
        'problem sparse { kind: word-paths word: "aaaa" layout: explicit '
        f"rows-data: [{rows}] adjacency: side distinct-cells: true }}")
    code, out, err = _run_capped(["count", "sparse.ccspec"], tmp_path, 64)
    assert (code, out, err) == (2, "", b"error: problem sparse: out of memory\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_render_writes_squares_in_bounded_memory(tmp_path):
    # 1,079,700 polygons and 3,600 points, 73 MB of SVG, written piece by piece
    # under a 64 MB address-space cap (held as one string, it took 298 MB).
    (tmp_path / "t60.ccspec").write_text(_T60)
    code, out, err = _run_capped(["render", "t60.ccspec", "--problem", "t60", "-o", "out.svg"],
                                 tmp_path, 64)
    assert (code, out, err) == (0, "", b"")
    svg = (tmp_path / "out.svg").read_bytes()
    assert svg.count(b"<polygon") == 1079700
    assert svg.count(b"<circle") == 3600
    assert svg.endswith(b"</svg>\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_render_writes_a_large_letter_table_in_bounded_memory(tmp_path):
    # The 1,001-symbol abab...a rings word: 1,002,001 cells, 112 MB of SVG.  The
    # table is its 1,001 rows cut from the word, so drawing it fits under a
    # 64 MB address-space cap (a dict of the cells took 143 MB uncapped).
    (tmp_path / "rings.ccspec").write_text(
        f'problem big {{ kind: word-paths word: "{"ab" * 500}a" layout: manhattan-rings '
        "adjacency: side }")
    code, out, err = _run_capped(["render", "rings.ccspec", "--problem", "big", "-o", "out.svg"],
                                 tmp_path, 64)
    assert (code, out, err) == (0, "", b"")
    svg = tmp_path / "out.svg"
    texts, tail = 0, b""
    with open(svg, "rb") as fh:
        # Four bytes of overlap catch a "<text" split across two reads, and
        # cannot hold a whole one.
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            texts += (tail + chunk).count(b"<text")
            tail = chunk[-4:]
    svg.unlink()
    assert texts == 1002001


# ---------------------------------------------------------------------------
# exit-code discipline and determinism


@pytest.mark.parametrize("corpus_file", sorted(ERROR_CORPUS.glob("*.ccspec")),
                         ids=lambda p: p.name)
def test_malformed_files_exit_2(runner, corpus_file):
    result = invoke(runner, "count", corpus_file)
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_missing_file_exits_2(runner):
    result = invoke(runner, "count", "definitely-not-here.ccspec")
    assert result.exit_code == 2


def test_bad_format_value_exits_2(runner):
    result = invoke(runner, "count", SAMPLES, "--format", "svg")
    assert result.exit_code == 2


_USAGE_ERRORS = {
    "no-arguments": [],
    "unknown-command": ["tally", SAMPLES],
    "unknown-option": ["count", SAMPLES, "--bogus"],
    "extra-argument": ["count", SAMPLES, SAMPLES],
    "missing-spec-file": ["count"],
    "enumerate-missing-problem": ["enumerate", SAMPLES],
    "explain-missing-problem": ["explain", SAMPLES],
    "render-missing-problem": ["render", SAMPLES, "-o", "{tmp}/out.svg"],
    "render-missing-output": ["render", SAMPLES, "--problem", "squares5"],
    "format-xml": ["count", SAMPLES, "--format", "xml"],
    "limit-0": ["enumerate", SAMPLES, "--problem", "squares5", "--limit", "0"],
    "limit-not-a-number": ["enumerate", SAMPLES, "--problem", "squares5", "--limit", "x"],
    "limit-plus": ["enumerate", SAMPLES, "--problem", "squares5", "--limit", "+2"],
    "limit-underscore": ["enumerate", SAMPLES, "--problem", "squares5", "--limit", "1_0"],
    "cell-size-0": ["render", SAMPLES, "--problem", "squares5", "--cell-size", "0",
                    "-o", "{tmp}/out.svg"],
    "cell-size-space": ["render", SAMPLES, "--problem", "squares5", "--cell-size", " 2",
                        "-o", "{tmp}/out.svg"],
    "nonexistent-spec-file": ["count", "{tmp}/definitely-not-here.ccspec"],
    "directory-as-spec-file": ["verify", "{tmp}"],
}


@pytest.mark.parametrize("spec_file, reason", [("", "No such file or directory"),
                                               (f"{SAMPLES}/", "Not a directory")],
                         ids=["empty", "trailing-slash"])
def test_a_spec_file_is_opened_as_named(runner, spec_file, reason):
    # The name is not normalized: "" is not the current directory, and a
    # file's name followed by "/" names no directory.
    result = invoke(runner, "count", spec_file)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {spec_file}: {reason}\n"


# Each command's options, and the argument every command takes.
_HELP = {
    "count": ["SPEC_FILE", "--problem", "--format"],
    "enumerate": ["SPEC_FILE", "--problem", "--format", "--limit"],
    "verify": ["SPEC_FILE", "--problem", "--format"],
    "explain": ["SPEC_FILE", "--problem", "--format"],
    "render": ["SPEC_FILE", "--problem", "--highlight", "--cell-size", "-o", "--output"],
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_usage_errors_exit_2_with_nothing_on_stdout(runner, tmp_path, case):
    args = [str(a).replace("{tmp}", str(tmp_path)) for a in _USAGE_ERRORS[case]]
    result = invoke(runner, *args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "out.svg").exists()
    # argparse writes every usage line: the reader leaves each such line to it.
    assert (cli_mod._read(args) is None) == result.stderr.startswith("usage: ")


def _argparse_reads(argv):
    """``vars(parse_args(argv))`` of the argparse parser, or None where it
    writes help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli_mod._parser("configcount").parse_args(argv))
        except SystemExit:
            return None


# Words that argparse reads its own way, or refuses: the reader leaves each of
# them to it, as a word or as an option's value.
_ODD_WORDS = ["-1", "-2", "-", "--", "---", "--problem=squares5", "--format=json", "--help",
              "-h", "--form", "-osquares.svg", "-1 x"]
# Spec file names, and values an option takes or refuses.
_VALUES = ["samples.ccspec", "squares5", "count", "out.svg", "k=3", "x y", ""]
_INTEGERS = ["1", "3", "007", "\u0663", "9" * 4300]
_NOT_INTEGERS = ["0", "00", "+2", "1_0", " 2", "2 ", "0x2", "2.0", "9" * 4301]


@st.composite
def _command_lines(draw):
    """A command's spec file and options, each mostly once but sometimes absent
    or twice, in any order, with values mostly taken, sometimes odd words
    among them, and now and then a wrong command."""
    command = draw(st.sampled_from(sorted(cli_mod._COMMANDS)))
    _, *options = cli_mod._COMMANDS[command]
    times = st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2])
    anything = st.sampled_from(_VALUES + _INTEGERS + _NOT_INTEGERS + _ODD_WORDS + ["xml"])
    pieces = [[draw(anything)] for _ in range(draw(times))]
    for flags, keywords in options:
        choices = keywords.get("choices")
        taken, refused = ((choices, ["xml", "TEXT", "json "]) if choices
                          else (_INTEGERS, _NOT_INTEGERS) if "type" in keywords
                          else (_VALUES, _ODD_WORDS))
        values = [st.sampled_from(taken)] * 4 + [st.sampled_from(refused), anything]
        pieces += [[draw(st.sampled_from(flags)), draw(values[draw(st.integers(0, 5))])]
                   for _ in range(draw(times))]
    if draw(st.integers(0, 9)) == 9:
        pieces.append([draw(st.sampled_from(_ODD_WORDS))])
    words = [word for piece in draw(st.permutations(pieces)) for word in piece]
    if draw(st.integers(0, 9)) == 9:
        command = draw(st.sampled_from(["", "tally", "--help", "Count", "coun"]))
    return [command, *words]


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
def test_the_reader_reads_a_command_line_as_argparse_does(argv):
    read = cli_mod._read(argv)
    assert read is None or read == _argparse_reads(argv)


@pytest.mark.parametrize("argv", [
    ["count", "samples.ccspec"],
    ["verify", "--format", "json", "samples.ccspec", "--problem", "squares5"],
    ["explain", "--problem", "open-side", "samples.ccspec"],
    ["enumerate", "samples.ccspec", "--limit", "\u0663", "--format", "json", "--problem", "p"],
    ["enumerate", "samples.ccspec", "--problem", "p", "--limit", "9" * 4300],
    ["render", "-o", "f.svg", "samples.ccspec", "--problem", "p", "--highlight", "k=3",
     "--cell-size", "007"],
    ["render", "samples.ccspec", "--output", "", "--problem", "", "--highlight", "x y"],
    ["count", "x y", "--problem", "count"],
    ["count", ""],
])
def test_the_reader_reads_each_well_formed_command_line(argv):
    read = cli_mod._read(argv)
    assert read is not None and read == _argparse_reads(argv)


# Each integer option, as the arguments after SPEC_FILE up to its value.
_INTEGER_OPTIONS = {
    "limit": ["enumerate", "--problem", "squares5", "--limit"],
    "cell-size": ["render", "--problem", "squares5", "-o", "{tmp}/out.svg", "--cell-size"],
    "highlight": ["render", "--problem", "squares5", "-o", "{tmp}/out.svg", "--highlight"],
    "highlight-class": ["render", "--problem", "squares5", "-o", "{tmp}/out.svg",
                        "--highlight", "k="],
}


@pytest.mark.parametrize("value", ["+2", "1_0", " 2", "2 ", "-2", "0x2", "2.0", "", "9" * 4301],
                         ids=["plus", "underscore", "leading-space", "trailing-space", "minus",
                              "hex", "decimal-point", "empty", "4301-digits"])
@pytest.mark.parametrize("option", sorted(_INTEGER_OPTIONS))
def test_integer_options_take_only_what_a_ccspec_integer_takes(runner, tmp_path, option, value):
    *args, flag = (a.replace("{tmp}", str(tmp_path)) for a in _INTEGER_OPTIONS[option])
    # The CLI lifts Python's limit on int digits; the options keep their own.
    assert invoke(runner, "--help").exit_code == 0
    if flag == "k=":
        flag, value = args.pop(), flag + value
    result = invoke(runner, args[0], SAMPLES, *args[1:], flag, value)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.endswith(
        f"error: invalid highlight: {value!r} (use an index or k=SIZE)\n" if flag == "--highlight"
        else f"error: argument {flag}: {value!r} is not a positive integer\n")
    assert not (tmp_path / "out.svg").exists()


def test_integer_options_take_any_decimal_digits_up_to_4300(runner, tmp_path):
    # Digits of any script, as in a .ccspec file: "\u0663" is 3.
    limited = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5", "--limit", "\u0663")
    assert (limited.exit_code, limited.stdout.splitlines()[-1]) == (0, "(omitted 27 more)")
    whole = invoke(runner, "enumerate", SAMPLES, "--problem", "squares5", "--limit", "9" * 4300)
    assert (whole.exit_code, whole.stdout.count("\n")) == (0, 30)
    out = tmp_path / "out.svg"
    for option, value in (("--cell-size", "0" * 4299 + "7"), ("--highlight", "k=\u0663")):
        result = invoke(runner, "render", SAMPLES, "--problem", "squares5", option, value,
                        "-o", out)
        assert result.exit_code == 0, (option, result.stderr)
    far = invoke(runner, "render", SAMPLES, "--problem", "squares5", "--highlight", "9" * 4300,
                 "-o", out)
    assert (far.exit_code, far.stderr) == (
        2, f"error: problem squares5: witness index {'9' * 4300} out of range (have 30)\n")


def test_help_names_every_command(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    for command in _HELP:
        assert command in result.stdout


@pytest.mark.parametrize("command", sorted(_HELP))
def test_command_help_names_its_options(runner, command):
    result = invoke(runner, command, "--help")
    assert result.exit_code == 0
    for option in _HELP[command]:
        assert option in result.stdout


def test_validation_error_exits_2(runner, tmp_path):
    spec = tmp_path / "bad.ccspec"
    spec.write_text("problem bad { kind: squares cols: 5 }")
    result = invoke(runner, "count", spec)
    assert result.exit_code == 2
    assert "missing field: rows" in result.stderr


def test_every_command_is_deterministic_in_process(runner, tmp_path):
    commands = [
        ("count", SAMPLES),
        ("count", SAMPLES, "--format", "json"),
        ("enumerate", SAMPLES, "--problem", "open-side"),
        ("verify", SAMPLES),
        ("explain", SAMPLES, "--problem", "squares5"),
    ]
    for command in commands:
        first = invoke(runner, *command)
        second = invoke(runner, *command)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code == 0


# ---------------------------------------------------------------------------
# refusals come before the work; every failure exits 2


@pytest.mark.parametrize("command", ["verify", "enumerate", "render"])
def test_huge_grid_is_refused_before_enumerating(runner, tmp_path, command):
    spec = tmp_path / "huge.ccspec"
    spec.write_text("problem huge { kind: squares cols: 100000000 rows: 100000000 variant: all }")
    args = [command, spec, "--problem", "huge"]
    if command == "render":
        args += ["-o", tmp_path / "huge.svg"]
    start = time.perf_counter()
    result = invoke(runner, *args)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stderr == ("error: problem huge: oracle budget exceeded: "
                             "8333333333333332500000000000000 candidate squares > 10000000\n")


def test_unconstrained_reading_overrun_is_refused_before_searching(runner, tmp_path):
    spec = tmp_path / "mixed.ccspec"
    spec.write_text("problem small { kind: squares cols: 3 rows: 3 variant: all }\n"
                    'problem big { kind: word-paths word: "' + "a" * 36 + '" layout: explicit '
                    'rows-data: ["aaa", "aaa", "aaa"] adjacency: none }')
    start = time.perf_counter()
    result = invoke(runner, "count", spec)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stdout == "problem small: squares all 3x3\nk=1: 4\nk=2: 2\ntotal 6\n"
    assert result.stderr == ("error: problem big: oracle budget exceeded: "
                             "more than 10000000 cell visits\n")


def test_adjacent_reading_overrun_is_refused_before_searching(runner, tmp_path):
    spec = tmp_path / "mixed.ccspec"
    spec.write_text("problem small { kind: squares cols: 3 rows: 3 variant: all }\n"
                    'problem big { kind: word-paths word: "' + "a" * 40 + '" layout: explicit '
                    'rows-data: ["aaa", "aaa", "aaa"] adjacency: king }')
    start = time.perf_counter()
    result = invoke(runner, "count", spec)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stdout == "problem small: squares all 3x3\nk=1: 4\nk=2: 2\ntotal 6\n"
    assert result.stderr == ("error: problem big: oracle budget exceeded: "
                             "more than 10000000 cell visits\n")


@pytest.mark.parametrize("command", ["count", "verify", "enumerate", "explain", "render"])
def test_oversize_rings_table_is_refused_before_building_it(runner, tmp_path, command):
    # A 3163-symbol word asks for a 3163 x 3163 table, just over the default budget.
    spec = tmp_path / "rings.ccspec"
    spec.write_text('problem rings { kind: word-paths word: "' + "ab" * 1581 + 'a" '
                    "layout: manhattan-rings adjacency: side }")
    args = [command, spec, "--problem", "rings"]
    if command == "render":
        args += ["-o", tmp_path / "rings.svg"]
    start = time.perf_counter()
    result = invoke(runner, *args)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stderr == ("error: problem rings: oracle budget exceeded: "
                             "letter table of 10004569 cells > 10000000\n")


def test_word_figure_too_large_is_refused_before_building_the_table(runner, tmp_path,
                                                                    monkeypatch):
    # A 2237-symbol word's table fits the budget (5,004,169 cells); its figure,
    # a cell and a glyph per cell, does not.
    calls = []
    monkeypatch.setattr(verify_mod, "generate_manhattan_rings", calls.append)
    spec = tmp_path / "w.ccspec"
    spec.write_text('problem w { kind: word-paths word: "' + "ab" * 1118 + 'a" '
                    "layout: manhattan-rings adjacency: side }")
    start = time.perf_counter()
    result = invoke(runner, "render", spec, "--problem", "w", "-o", tmp_path / "w.svg")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stderr == ("error: problem w: figure too large: "
                             "10008338 elements > 10000000\n")
    assert calls == []


def test_one_row_grid_too_large_to_draw_exits_2(runner, tmp_path):
    # No squares fit, so the enumeration budget never trips; the points still do.
    spec = tmp_path / "row.ccspec"
    spec.write_text("problem row { kind: squares cols: 100000000000 rows: 1 variant: all }")
    result = invoke(runner, "render", spec, "--problem", "row", "-o", tmp_path / "row.svg")
    assert result.exit_code == 2
    assert result.stderr == ("error: problem row: figure too large: "
                             "100000000000 elements > 10000000\n")


_REFUSED_RENDERS = {
    "too-large": ("problem p { kind: squares cols: 100000000000 rows: 1 variant: all }", [],
                  "figure too large: 100000000000 elements > 10000000"),
    "highlight": ("problem p { kind: squares cols: 5 rows: 5 variant: axis }",
                  ["--highlight", "30"], "witness index 30 out of range (have 30)"),
    "budget": ("problem p { kind: squares cols: 4000 rows: 4000 variant: axis }", [],
               "oracle budget exceeded: 21325334000 candidate squares > 10000000"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_RENDERS))
def test_refused_render_leaves_the_output_alone(runner, tmp_path, case):
    text, extra, reason = _REFUSED_RENDERS[case]
    spec = tmp_path / "p.ccspec"
    spec.write_text(text)
    out = tmp_path / "fig.svg"
    for before in (None, b"an earlier figure\n"):
        if before is not None:
            out.write_bytes(before)
        result = invoke(runner, "render", spec, "--problem", "p", *extra, "-o", out)
        assert (result.exit_code, result.stderr) == (2, f"error: problem p: {reason}\n")
        if before is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == before


def test_render_failing_after_the_first_piece_exits_2_naming_the_problem(runner, tmp_path,
                                                                         monkeypatch):
    def pieces(spec, cell_size, highlight):
        yield "<svg>\n"
        raise MemoryError

    monkeypatch.setattr(cli_mod, "render_pieces", pieces)
    result = invoke(runner, "render", SAMPLES, "--problem", "squares5", "-o", tmp_path / "f.svg")
    assert (result.exit_code, result.stderr) == (2, "error: problem squares5: out of memory\n")


def test_importing_the_cli_skips_network_and_xml_modules():
    # Every command imports cli; xml.sax.saxutils pulled in urllib.request,
    # http.client and email at start-up.  json loads only for verify --format
    # json: the other JSON commands encode strings with _json's C encoder.
    # html loads only to draw a letter table's glyphs.  There is no click, and
    # no record is a dataclass, which would load inspect (and with it ast, dis
    # and tokenize).  A well-formed command of each verb then runs without
    # argparse, and so without gettext and locale, which argparse loads.
    modules = {"urllib.request", "xml.sax", "json", "html", "click", "dataclasses", "inspect"}
    commands = [["count", "samples.ccspec"], ["verify", "samples.ccspec"],
                ["explain", "samples.ccspec", "--problem", "squares5"],
                ["enumerate", "samples.ccspec", "--problem", "squares5", "--limit", "3"],
                ["render", "samples.ccspec", "--problem", "squares5", "-o", os.devnull],
                ["count", "samples.ccspec", "--format", "json"],
                ["explain", "samples.ccspec", "--problem", "squares5", "--format", "json"],
                ["enumerate", "samples.ccspec", "--problem", "squares5", "--format", "json"]]
    code = (f"import contextlib, io, sys, configcount.cli as cli\n"
            f"print(sorted({modules!r} & set(sys.modules)))\n"
            f"for args in {commands!r}:\n"
            f"    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        cli.main.main(args=args, standalone_mode=False)\n"
            f"print(sorted({{'argparse', 'gettext', 'locale'}} & set(sys.modules)))\n"
            f"print(sorted(name for name in sys.modules if name.startswith('json')))")
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "[]\n[]\n[]\n"


def _child(args, cwd, stdout, stderr=subprocess.PIPE):
    """``python -m configcount <args>`` as a child process, writing to ``stdout``
    and ``stderr``."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "configcount", *args], cwd=cwd,
                            stdout=stdout, stderr=stderr,
                            env={**os.environ, "PYTHONPATH": path})


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_2_with_one_error_line():
    # Exit 1 means "verification failed": a failed write must not read as one.
    for args in (["verify"], ["explain", "--problem", "open-side"],
                 ["enumerate", "--problem", "squares5"]):
        for fmt in ("text", "json"):
            with open("/dev/full", "wb") as full:
                child = _child([args[0], str(SAMPLES), *args[1:], "--format", fmt],
                               REPO_ROOT, full)
                _, err = child.communicate(timeout=60)
            assert (child.returncode, err) == (2, b"error: stdout: No space left on device\n"), (
                args, fmt)


class _FullStream:
    """A stdout with no file descriptor whose writes fail as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", ["no-descriptor", "dev-full"])
def test_failed_writes_leave_no_descriptor_open(monkeypatch, kind):
    if kind == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        stdout = _FullStream() if kind == "no-descriptor" else open("/dev/full", "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as exit_:
            main.main(args=["count", str(SAMPLES)], prog_name="configcount",
                      standalone_mode=False)
        assert exit_.value.code == 2
        if kind == "dev-full":
            stdout.close()  # its descriptor now writes to the null device
    assert sys.stderr.getvalue() == "error: stdout: No space left on device\n" * 5
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("args", [["count", str(SAMPLES)], ["--help"]], ids=["count", "help"])
def test_a_closed_stdout_exits_2_with_one_error_line(args):
    # Python sets sys.stdout to None when descriptor 1 is closed (`>&-`).
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "configcount", *args], cwd=REPO_ROOT,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stderr) == (2, b"error: stdout: Bad file descriptor\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_to_a_full_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        child = _child(["--help"], REPO_ROOT, full)
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (2, b"error: stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_command_help_to_a_full_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        child = _child(["count", "--help"], REPO_ROOT, full)
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (2, b"error: stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_error_line_to_a_full_stderr_still_exits_2(tmp_path):
    # The refusal's error line cannot be written; the exit code still tells it
    # from a FAIL.
    (tmp_path / "big.ccspec").write_text(
        "problem big { kind: squares cols: 4000 rows: 4000 variant: all }")
    with open("/dev/full", "wb") as full:
        child = _child(["verify", "big.ccspec"], tmp_path, subprocess.PIPE, full)
        out, _ = child.communicate(timeout=60)
    assert (child.returncode, out) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_usage_error_to_a_full_stderr_still_exits_2():
    with open("/dev/full", "wb") as full:
        child = _child(["count", str(SAMPLES), "--format", "xml"], REPO_ROOT, subprocess.PIPE,
                       full)
        out, _ = child.communicate(timeout=60)
    assert (child.returncode, out) == (2, b"")


def test_a_closed_pipe_exits_2_with_one_error_line(tmp_path):
    # A reader that stops early, like `head -c 100`, closes the pipe mid-listing.
    (tmp_path / "giant.ccspec").write_text(
        "problem giant { kind: squares cols: 100000 rows: 100000 variant: all }")
    child = _child(["explain", "giant.ccspec", "--problem", "giant"], tmp_path, subprocess.PIPE)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err.count(b"\n") == 1 and err.startswith(b"error: stdout: ")
    assert b"Traceback" not in err


def _small_budget_everywhere(monkeypatch, budget=1000):
    # Enumerate and render reach the enumerator through verify.counted_witnesses;
    # render also caps a figure's size by the default budget, count and explain
    # read word classes off the reading counter, class_counts caps their
    # listings, and verify streams square keys without the enumerator.
    real = verify_mod.enumerate_witnesses
    monkeypatch.setattr(verify_mod, "enumerate_witnesses",
                        lambda spec, _budget=None, table=None: real(spec, budget, table))
    monkeypatch.setattr(render_mod, "DEFAULT_ORACLE_BUDGET", budget)
    _small_counter_budget(monkeypatch, budget)
    real_counts = verify_mod.class_counts
    for module in (verify_mod, cli_mod):
        monkeypatch.setattr(module, "class_counts",
                            lambda spec, _budget=None, table=None: real_counts(spec, budget, table))
    real_verify = verify_mod.verify_problem
    monkeypatch.setattr(cli_mod, "verify_problem",
                        lambda spec: real_verify(spec, oracle_budget=budget))


@st.composite
def _cli_cases(draw):
    command = draw(st.sampled_from(["count", "explain", "verify", "enumerate", "render"]))
    side = st.integers(1, 10**30)
    squares = st.builds(lambda cols, rows, variant: ProblemSpec("p", "squares", cols=cols,
                                                                rows=rows, variant=variant),
                        side, side, st.sampled_from(["axis", "all"]))
    printed = st.one_of(squares, _rings_specs, _explicit_specs).map(
        lambda spec: print_spec([ProblemSpec(**dict(vars(spec), name="p"))]))
    soup = st.lists(st.sampled_from(_SPEC_TOKENS), max_size=16).map("".join)
    return command, draw(st.one_of(soup, printed))


@settings(max_examples=150, deadline=None)
@given(_cli_cases())
def test_cli_exits_0_1_or_2_without_a_traceback(case):
    command, text = case
    args = [command, "spec.ccspec"]
    if command not in ("count", "verify"):
        args += ["--problem", "p"]
    if command == "render":
        args += ["-o", "out.svg"]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.chdir(tmp)
        _small_budget_everywhere(mp)
        Path("spec.ccspec").write_text(text, encoding="utf-8")
        result = Runner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.stdout
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception

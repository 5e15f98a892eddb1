"""Check each command's output against the benchmark's own answers.

A checker returns a list of mismatches; an empty list means the output is
correct.  Output that cannot be parsed is a mismatch, never a crash.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import reference
from workloads import Command, Expected, Problem, cells_of

_TOTAL_RE = re.compile(r"(?:total|=) (\d+)(?: \(|$)")


def _blocks(text: str) -> list[list[str]]:
    return [b.splitlines() for b in text.strip("\n").split("\n\n") if b.strip()]


def _compare(name: str, want: Expected, total: int, classes: dict[str, int] | None) -> list[str]:
    bad = []
    if total != want.total:
        bad.append(f"{name}: total {total}, expected {want.total}")
    if want.classes is not None and classes is not None and classes != want.classes:
        wrong = sorted(set(classes.items()) ^ set(want.classes.items()))[:3]
        bad.append(f"{name}: class counts differ, e.g. {wrong}")
    return bad


def count_text(cmd: Command, out: str, answers, problems) -> list[str]:
    blocks = _blocks(out)
    if len(blocks) != len(cmd.problems):
        return [f"count: {len(blocks)} problem blocks, expected {len(cmd.problems)}"]
    bad = []
    for name, lines in zip(cmd.problems, blocks):
        if not lines[0].startswith(f"problem {name}: ") or not lines[-1].startswith("total "):
            bad.append(f"count: malformed block for {name}")
            continue
        classes = dict(line.rsplit(": ", 1) for line in lines[1:-1])
        bad += _compare(name, answers[name], int(lines[-1][6:]),
                        {k: int(v) for k, v in classes.items()})
    return bad


def count_json(cmd: Command, out: str, answers, problems) -> list[str]:
    rows = [json.loads(line) for line in out.splitlines() if line]
    if [r["problem"] for r in rows] != list(cmd.problems):
        return ["count --format json: problems missing or out of order"]
    bad = []
    for r in rows:
        classes = {c["label"]: int(c["count"]) for c in r["classes"]}
        bad += _compare(r["problem"], answers[r["problem"]], int(r["total"]), classes)
    return bad


_VERIFY_HEAD = re.compile(
    r"problem (\S+): (\w+) \((?:closed form (\d+), oracle (\d+)|oracle (\d+), enumeration only)\)$"
)


def verify_text(cmd: Command, out: str, answers, problems) -> list[str]:
    blocks = _blocks(out)
    if len(blocks) != len(cmd.problems):
        return [f"verify: {len(blocks)} problem blocks, expected {len(cmd.problems)}"]
    bad = []
    for name, lines in zip(cmd.problems, blocks):
        m = _VERIFY_HEAD.match(lines[0])
        if not m or m.group(1) != name:
            bad.append(f"verify: malformed head for {name}: {lines[0][:80]!r}")
            continue
        if m.group(2) != "PASS":
            bad.append(f"verify: {name} verdict {m.group(2)}")
        want = answers[name]
        if m.group(3) is not None and int(m.group(3)) != want.total:
            bad.append(f"verify: {name} closed form {m.group(3)}, expected {want.total}")
        oracle = int(m.group(4) or m.group(5))
        observed = {}
        for line in lines[1:]:
            if line.startswith(("duplicates: ", "note: ")):
                continue
            label, rest = line.split(": ", 1)
            observed[label] = int(rest.rsplit("observed ", 1)[1])
        if "duplicates: 0" not in lines:
            bad.append(f"verify: {name} reports duplicates")
        bad += _compare(name, want, oracle, observed)
    return bad


def explain(cmd: Command, out: str, answers, problems) -> list[str]:
    (name,) = cmd.problems
    lines = out.splitlines()
    if not lines or lines[0] != f"problem {name}" or not lines[-1].startswith("Step iv) "):
        return [f"explain: malformed output for {name}"]
    last = lines[-1]
    m = _TOTAL_RE.search(last)
    if not m:
        return [f"explain: no total in {last[:80]!r}"]
    want = answers[name]
    bad = _compare(name, want, int(m.group(1)), None)
    if last.endswith("(addition principle)") and want.classes is not None:
        terms = [int(t) for t in last[9:].split(" = ")[0].split(" + ")]
        by_k = [n for _, n in sorted((int(k[2:]), n) for k, n in want.classes.items())]
        if terms != by_k:
            bad.append(f"explain: {name} class terms differ")
    return bad


def _square_vertices(x, y, k, a):
    return ((x + a, y), (x + k, y + a), (x + k - a, y + k), (x, y + k - a))


def enumerate_json(cmd: Command, out: str, answers, problems) -> list[str]:
    (name,) = cmd.problems
    doc = json.loads(out)
    p: Problem = problems[name]
    items = doc["witnesses"]
    want = answers[name]
    bad = [] if doc["omitted"] == "0" else [f"enumerate: {name} omitted {doc['omitted']}"]
    if p.kind == "squares":
        keys = [(w["anchor"][0], w["anchor"][1], w["k"], w["a"]) for w in items]
        per: dict[str, int] = {}
        for x, y, k, a in keys:
            per[f"k={k}"] = per.get(f"k={k}", 0) + 1
            inside = all(0 <= vx < p.cols and 0 <= vy < p.rows
                         for vx, vy in _square_vertices(x, y, k, a))
            if not (0 <= a < k and inside and (p.variant == "all" or a == 0)):
                bad.append(f"enumerate: {name} invalid square {(x, y, k, a)}")
                break
    else:
        keys = [tuple(map(tuple, w["cells"])) for w in items]
        cells = cells_of(p)
        offsets = set(reference.SIDE if p.adjacency == "side" else reference.KING)
        per = {}
        for path in keys:
            end = f"({path[-1][0]},{path[-1][1]})"
            per[end] = per.get(end, 0) + 1
            spelled = "".join(cells.get(c, "") for c in path) == p.word
            steps = p.adjacency == "none" or all(
                (b[0] - a[0], b[1] - a[1]) in offsets for a, b in zip(path, path[1:]))
            if not (spelled and steps and (not p.distinct or len(set(path)) == len(path))):
                bad.append(f"enumerate: {name} invalid reading {path}")
                break
    if len(set(keys)) != len(keys):
        bad.append(f"enumerate: {name} repeats witnesses")
    return bad + _compare(name, want, len(keys), per)


def _svg(cmd: Command, workdir: Path) -> str:
    return (workdir / cmd.arg("-o")).read_text(encoding="utf-8")


def render_squares(cmd: Command, svg: str, answers, problems) -> list[str]:
    (name,) = cmd.problems
    p, want, k = problems[name], answers[name], int(cmd.arg("--highlight").removeprefix("k="))
    found = (svg.count('<polygon class="sq'), svg.count('<polygon class="sq hl"'),
             svg.count('<circle class="pt"'))
    expect = (want.total, want.classes[f"k={k}"], p.cols * p.rows)
    return [] if found == expect else [f"render: {name} polygons/highlights/points {found}, expected {expect}"]


def render_words(cmd: Command, svg: str, answers, problems) -> list[str]:
    (name,) = cmd.problems
    p = problems[name]
    n = len(cells_of(p))
    found = (svg.count('<rect class="cell"'), svg.count('<text class="glyph"'),
             svg.count('<polyline class="witness"'))
    return [] if found == (n, n, 1) else [f"render: {name} cells/glyphs/paths {found}, expected {(n, n, 1)}"]


CHECKERS = {
    "count-text": count_text,
    "count-json": count_json,
    "verify-text": verify_text,
    "explain": explain,
    "enumerate-json": enumerate_json,
    "render-squares": render_squares,
    "render-words": render_words,
}


def check(cmd: Command, code: int, stdout: str, workdir: Path, answers, problems) -> list[str]:
    """Mismatches for one finished command; exit code 0 is always expected."""
    if code != 0:
        return [f"{' '.join(cmd.args)}: exit {code}"]
    try:
        out = _svg(cmd, workdir) if cmd.verb == "render" else stdout
        return CHECKERS[cmd.check](cmd, out, answers, problems)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
        return [f"{' '.join(cmd.args)}: unreadable output ({type(exc).__name__}: {exc})"]

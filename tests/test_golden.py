"""Golden bytes: the full stdout of every command, and ``render``'s SVG file.

Each case runs the CLI in-process and compares its output byte for byte with
a file under ``tests/data/golden/``.  The cases cover ``samples.ccspec`` and
``branches.ccspec``, which reaches the dispatch branches the samples leave
out: explicit layouts, king adjacency, distinct cells, repeated symbols, a
1x1 grid and a length-1 word.

After a deliberate output change, re-capture with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from configcount.cli import main
from configcount.speclang import parse_spec

from conftest import Runner

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SPEC_FILES = (REPO_ROOT / "samples.ccspec", GOLDEN / "branches.ccspec")

# (problem, highlight or None) for render; None draws no highlight.
RENDERS = (
    ("squares5", None),
    ("squares5", "k=2"),
    ("squares5-all", "k=3"),
    ("open-side", None),
    ("open-side", "0"),
    ("tiny", None),
    ("strip-all", "7"),
    ("table-king-distinct", "3"),
    ("glyphs", None),
)


def _cases() -> list[tuple[str, list[str]]]:
    """(golden file name, command-line arguments) for every pinned command."""
    cases = []
    for spec_file in SPEC_FILES:
        stem = spec_file.stem
        for fmt, ext in (("text", "txt"), ("json", "json")):
            for command in ("count", "verify"):
                cases.append((f"{command}-{stem}.{ext}",
                              [command, str(spec_file), "--format", fmt]))
            for spec in parse_spec(spec_file.read_text(encoding="utf-8")):
                args = [str(spec_file), "--problem", spec.name, "--format", fmt]
                cases.append((f"explain-{spec.name}.{ext}", ["explain", *args]))
                cases.append((f"enumerate-{spec.name}.{ext}", ["enumerate", *args]))
                cases.append((f"enumerate-{spec.name}-limit3.{ext}",
                              ["enumerate", *args, "--limit", "3"]))
    return cases


def _spec_file_of(problem: str) -> Path:
    for spec_file in SPEC_FILES:
        if any(s.name == problem for s in parse_spec(spec_file.read_text(encoding="utf-8"))):
            return spec_file
    raise KeyError(problem)


def _render_cases() -> list[tuple[str, list[str]]]:
    cases = []
    for problem, highlight in RENDERS:
        args = ["render", str(_spec_file_of(problem)), "--problem", problem]
        name = f"render-{problem}"
        if highlight is not None:
            args += ["--highlight", highlight]
            name += "-hl-" + highlight.replace("=", "")
        cases.append((name + ".svg", args))
    return cases


def _stdout(args: list[str]) -> bytes:
    result = Runner().invoke(main, args)
    assert result.exit_code == 0, result.stdout
    return result.stdout_bytes


def _svg(args: list[str], out: Path) -> bytes:
    result = Runner().invoke(main, [*args, "-o", str(out)])
    assert result.exit_code == 0, result.stdout
    return out.read_bytes()


@pytest.mark.parametrize("name,args", _cases(), ids=[name for name, _ in _cases()])
def test_stdout_matches_golden(name, args):
    assert _stdout(args) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,args", _render_cases(), ids=[name for name, _ in _render_cases()])
def test_svg_matches_golden(name, args, tmp_path):
    assert _svg(args, tmp_path / "figure.svg") == (GOLDEN / name).read_bytes()


def _capture() -> None:
    for name, args in _cases():
        (GOLDEN / name).write_bytes(_stdout(args))
    for name, args in _render_cases():
        _svg(args, GOLDEN / name)


if __name__ == "__main__":
    _capture()

"""configcount benchmark: time to a verdict, peak RSS, and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload squares-audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --self-check

One client runs the CLI (``python -m configcount ...`` from ``src/``) as child
processes, one command at a time: a closed loop sized for a 2-core machine.
A round is one pass over the workload's commands; rounds repeat until
``--seconds`` have passed, and every command's output is checked against the
benchmark's own answers.  With ``--trace 0`` the end-to-end metrics are
reported, times scaled to a reference machine speed (see YARDSTICK_REF_S);
with ``--trace 1`` the CLI runs in this process with span recorders around
each module's public functions, and the per-layer metrics are reported.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark sources

import argparse
import json
import math
import os
import shutil
import statistics
import time
from pathlib import Path

import checks
import children
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
# A workload run must end within 180 s: no round starts this long after it began.
LAST_ROUND_START_S = 100.0

VERBS = ("count", "verify", "explain", "enumerate", "render")

# Machine speed on a shared host drifts: on a 2-vCPU cloud VM the same command's
# median over a 30 s run moved by up to 1.8x within minutes, far beyond a 25%
# bound.  So before every command the run also times yardstick.py, a fixed
# amount of pure-Python work in a child process that imports nothing from the
# program, and it reports each time scaled by YARDSTICK_REF_S / (median
# yardstick time of the run): seconds at the speed where the yardstick takes
# YARDSTICK_REF_S.  These metrics carry "scaled" in their names; raw times are
# printed beside them.
YARDSTICK = Path(__file__).resolve().with_name("yardstick.py")
YARDSTICK_REF_S = 0.1


class Fatal(Exception):
    """The benchmark cannot run: no result is printed and the exit code is 2."""


def _tail(samples: list[float], unit: str) -> str:
    """Median, then the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"median {statistics.median(samples):.4f} {unit}"
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        return text + f", p{pct} {ordered[n - 11]:.4f} {unit} (n={n})"
    return text + f", max {ordered[-1]:.4f} {unit} (n={n}; no percentile has 10 samples beyond it)"


# --- set-up --------------------------------------------------------------


class Workspace:
    """One workload in one scratch directory under .perfbench/ (removed on close)."""

    def __init__(self, workload: str, seed: int):
        if not (SRC / "configcount" / "cli.py").is_file():
            raise Fatal(f"no program sources at {SRC / 'configcount'}: run from the repository root")
        self.name, self.seed = workload, seed
        self.work = OUT_DIR / f"work-{os.getpid()}-{workload}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.setup_s: list[float] = []
        self.yardstick_s: list[float] = []
        self.wl = self.env = None

    def set_up(self, repeats: int) -> None:
        """Generate the inputs and warm a fresh bytecode cache, ``repeats`` times."""
        for i in range(repeats):
            start = time.perf_counter()
            self.wl = workloads.build(self.name, self.seed)
            for fname, text in self.wl.files.items():
                (self.work / fname).write_text(text, encoding="utf-8")
            self.env = children.child_env(SRC, self.work / f"pycache-{i}")
            warm = children.run_cli(["--help"], self.work, self.env)
            self.setup_s.append(time.perf_counter() - start)
            if warm.code != 0:
                raise Fatal(f"configcount --help exited {warm.code}: {warm.stderr.strip()[-300:]}")
        self.yardstick()  # its first run compiles the standard library into the cache
        self.answers = {n: workloads.expected(p) for n, p in self.wl.problems.items()}
        self.verify_witnesses = sum(self.answers[n].total for c in self.wl.commands
                                    if c.verb == "verify" for n in c.problems)

    def yardstick(self) -> float:
        res = children.run([sys.executable, str(YARDSTICK)], self.work, self.env)
        if res.code != 0:
            raise Fatal(f"yardstick exited {res.code}: {res.stderr.strip()[-300:]}")
        return res.wall_s

    def clear_output(self, cmd) -> None:
        """Remove a file the command writes, so a stale one cannot pass the check."""
        if "-o" in cmd.args:
            (self.work / cmd.arg("-o")).unlink(missing_ok=True)

    def check(self, cmd, code: int, stdout: str) -> list[str]:
        return checks.check(cmd, code, stdout, self.work, self.answers, self.wl.problems)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _rounds(seconds: float, started: float, one_round) -> int:
    """Call ``one_round`` until ``seconds`` have passed (at least once); the count.

    No round starts if, at the pace of the last one, it would end after
    twice ``seconds``, or later than LAST_ROUND_START_S into the workload.
    """
    rounds = 0
    begin = time.perf_counter()
    last = 0.0
    while not rounds or (time.perf_counter() - begin < seconds
                         and time.perf_counter() - begin + last <= 2 * seconds
                         and time.perf_counter() - started < LAST_ROUND_START_S):
        round_start = time.perf_counter()
        one_round()
        rounds += 1
        last = time.perf_counter() - round_start
    return rounds


# --- untraced run: end-to-end metrics ------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    ws = Workspace(workload, seed)
    try:
        ws.set_up(SETUP_REPEATS)
        commands = ws.wl.commands
        samples: list[list[float]] = [[] for _ in commands]
        failures: list[str] = []
        fails_here: list[bool] = []
        peak_rss = 0.0

        def one_round():
            nonlocal peak_rss
            for cmd, walls in zip(commands, samples):
                ws.yardstick_s.append(ws.yardstick())
                ws.clear_output(cmd)
                res = children.run_cli(cmd.args, ws.work, ws.env)
                walls.append(res.wall_s)
                peak_rss = max(peak_rss, res.peak_rss_mb)
                bad = ws.check(cmd, res.code, res.stdout)
                if res.code != 0:
                    bad.append(f"stderr: {res.stderr.strip()[-200:]}")
                failures.extend(bad[:3])
                fails_here.append(bool(bad))

        rounds = _rounds(seconds, started, one_round)
    finally:
        ws.close()

    scale = YARDSTICK_REF_S / statistics.median(ws.yardstick_s)
    medians = [statistics.median(walls) for walls in samples]
    per_verb = {v: sum(m for c, m in zip(commands, medians) if c.verb == v) for v in VERBS}
    metrics = {
        "setup_s": (statistics.median(ws.setup_s) * scale, "s"),
        "wall_scaled_s": (sum(medians) * scale, "s"),
        **{f"{v}_scaled_s": (value * scale, "s") for v, value in per_verb.items()},
        "peak_rss_mb": (peak_rss, "MB"),
        "verify_witnesses_per_scaled_s": (ws.verify_witnesses / (per_verb["verify"] * scale), "1/s"),
    }
    attempted, failed = len(fails_here), sum(fails_here)
    lines = [
        f"workload {workload} seed {seed}: {rounds} rounds, {attempted} commands, "
        f"{failed} failed, failed_ratio {failed / attempted:.4f}",
        f"  yardstick: {_tail(ws.yardstick_s, 's')}; scaled = raw x {scale:.4f}",
        f"  setup: {_tail(ws.setup_s, 's')} over {SETUP_REPEATS} set-ups",
        *(f"  {c.verb}: {_tail(walls, 's')}  [configcount {' '.join(c.args)}]"
          for c, walls in zip(commands, samples)),
        f"  raw: wall_s {sum(medians):.4f}, "
        + ", ".join(f"{v}_s {value:.4f}" for v, value in per_verb.items()),
        *(f"  {name}: {value:.4f} {unit}" for name, (value, unit) in metrics.items()),
        f"  ({ws.verify_witnesses} witnesses audited by one pass of verify; "
        "command times are medians, summed per command kind)",
        *(f"  FAILED: {f}" for f in failures[:20]),
    ]
    return _result(attempted, failed, metrics, lines)


# --- traced run: per-layer metrics ---------------------------------------


def _layer_totals(rec: spans.Recorder, first_span: int, stdout_bytes: int) -> dict[str, float]:
    own = rec.spans[first_span:]
    selfs = spans.self_times(own)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    covered_verify = verify_dur = 0.0
    for s in own:
        layer = "cli" if s.name.startswith("cli.") else s.name
        total[layer] = total.get(layer, 0.0) + (s.end - s.start)
        self_total[layer] = self_total.get(layer, 0.0) + selfs[s.id]
        if s.name == "cli.verify":
            verify_dur += s.end - s.start
            covered_verify += (s.end - s.start) - selfs[s.id]
    return {
        "cli.self_s": self_total.get("cli", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "speclang.parse_s": total.get("speclang.parse", 0.0),
        "squares.closed_form_s": total.get("squares.closed_form", 0.0),
        "squares.enumerate_s": total.get("squares.enumerate", 0.0),
        "wordgrid.closed_form_s": total.get("wordgrid.closed_form", 0.0),
        "wordgrid.enumerate_s": total.get("wordgrid.enumerate", 0.0),
        "verify.audit_s": total.get("verify.audit", 0.0),
        "verify.self_s": self_total.get("verify.problem", 0.0),
        "verify.trace_s": self_total.get("verify.trace", 0.0),
        "render.self_s": self_total.get("render.problem", 0.0),
        "trace.wall_s": total.get("cli", 0.0),
        "trace.verify_coverage": covered_verify / verify_dur if verify_dur else 0.0,
    }


_COUNTS = ("speclang.problems", "squares.classes", "squares.witnesses", "wordgrid.witnesses",
           "render.svg_bytes", "budget.errors")
_UNITS = {"_s": "s", "_bytes": "bytes", "_mb": "MB", "coverage": "ratio"}


def _unit(name: str) -> str:
    return next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")


def trace(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    ws = Workspace(workload, seed)
    failures: list[str] = []
    fails_here: list[bool] = []
    cwd = os.getcwd()
    try:
        ws.set_up(1)
        startup = [children.run_cli(["--help"], ws.work, ws.env).wall_s
                   for _ in range(STARTUP_SAMPLES)]
        sys.path.insert(0, str(SRC))
        os.chdir(ws.work)

        def run_commands(rec: spans.Recorder | None, commands) -> tuple[float, int]:
            wall, out_bytes = 0.0, 0
            for cmd in commands:
                ws.clear_output(cmd)
                start = time.perf_counter()
                if rec is None:
                    code, out = spans.invoke(cmd.args)
                else:
                    rec.run += 1
                    with rec.span(f"cli.{cmd.verb}"):
                        code, out = spans.invoke(cmd.args)
                wall += time.perf_counter() - start
                out_bytes += len(out.encode("utf-8"))
                bad = ws.check(cmd, code, out)
                failures.extend(bad[:3])
                fails_here.append(bool(bad))
            return wall, out_bytes

        rec = spans.Recorder()
        missing: list[str] = []
        per_round: list[dict] = []

        def traced_pass():
            with spans.instrumented(rec) as not_found:
                missing[:] = not_found
                return run_commands(rec, ws.wl.commands)[1]

        def one_round():
            # An untraced pass in each round, with the original functions in
            # place, so drift hits both sides of the overhead; the two passes
            # swap order every round, so neither always runs first.
            first, counts_before = len(rec.spans), dict(rec.counts)
            if len(per_round) % 2:
                out_bytes = traced_pass()
                untraced_wall = run_commands(None, ws.wl.commands)[0]
            else:
                untraced_wall = run_commands(None, ws.wl.commands)[0]
                out_bytes = traced_pass()
            layer = _layer_totals(rec, first, out_bytes)
            layer["trace.untraced_wall_s"] = untraced_wall
            layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
            for name in _COUNTS:
                layer[name] = rec.counts.get(name, 0) - counts_before.get(name, 0)
            per_round.append(layer)

        _rounds(seconds, started, one_round)
        # verify enumerates and audits every problem it names, so its peaks are
        # the workload's; tracemalloc makes the other commands needlessly slow.
        mem = spans.Recorder(memory=True)
        with spans.instrumented(mem):
            run_commands(mem, [c for c in ws.wl.commands if c.verb == "verify"])
    finally:
        os.chdir(cwd)
        ws.close()

    metrics = {name: (statistics.median(r[name] for r in per_round), _unit(name))
               for name in per_round[0]}
    metrics.update({name: (int(value), unit) for name, (value, unit) in metrics.items()
                    if unit in ("count", "bytes")})
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    for span_name in ("squares.enumerate", "wordgrid.enumerate", "verify.audit"):
        metrics[f"{span_name}_alloc_peak_mb"] = (mem.alloc_peaks.get(span_name, 0) / 2**20, "MB")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps([s.__dict__ for s in rec.spans]), encoding="utf-8")
    attempted, failed = len(fails_here), sum(fails_here)
    lines = [
        f"workload {workload} seed {seed} (traced, in-process): {len(per_round)} traced rounds, "
        f"{attempted} commands, {failed} failed; {len(rec.spans)} spans in {spans_path.relative_to(ROOT)}",
        *(f"  {name}: {value if isinstance(value, int) else format(value, '.6g')} {unit}"
          for name, (value, unit) in sorted(metrics.items())),
        *(f"  not wrapped (name not found): {m}" for m in missing),
        *(f"  FAILED: {f}" for f in failures[:20]),
    ]
    return _result(attempted, failed, metrics, lines)


# --- output --------------------------------------------------------------


def _result(attempted: int, failed: int, metrics: dict, lines: list[str]) -> dict:
    return {
        "lines": lines,
        "json": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the generator and the references, then exit")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            import selfcheck
            return selfcheck.main()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        run = trace if args.trace else measure
        results = {}
        for name in names:
            results[name] = run(name, args.seed, args.seconds)
            print("\n".join(results[name]["lines"]), flush=True)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]["json"]))
    else:
        print(json.dumps({name: r["json"] for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced run: the CLI called in-process, layers wrapped.

Each public function is wrapped where its caller looks it up (``cli.parse_spec``,
``verify.audit_partition``, ``render.enumerate_all_squares``, ...), so no file
of the program changes.  A span is (id, name, start, end, parent id, run id);
a run id is one command invocation.  Counts are taken from the same calls'
arguments and results.  With ``memory`` on, enumerate and audit spans also
record their ``tracemalloc`` peak; that pass is separate because tracemalloc
slows the allocations it watches.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute, span name, count name or None, how to count the result)
_TARGETS = (
    ("cli", "parse_spec", "speclang.parse", "speclang.problems", len),
    ("cli", "count_axis_squares", "squares.closed_form", "squares.classes", lambda r: len(r.per_k)),
    ("cli", "count_all_squares", "squares.closed_form", "squares.classes", lambda r: len(r.per_k)),
    ("verify", "count_axis_squares", "squares.closed_form", "squares.classes", lambda r: len(r.per_k)),
    ("verify", "count_all_squares", "squares.closed_form", "squares.classes", lambda r: len(r.per_k)),
    ("cli", "enumerate_axis_squares", "squares.enumerate", "squares.witnesses", len),
    ("cli", "enumerate_all_squares", "squares.enumerate", "squares.witnesses", len),
    ("verify", "enumerate_axis_squares", "squares.enumerate", "squares.witnesses", len),
    ("verify", "enumerate_all_squares", "squares.enumerate", "squares.witnesses", len),
    ("render", "enumerate_axis_squares", "squares.enumerate", "squares.witnesses", len),
    ("render", "enumerate_all_squares", "squares.enumerate", "squares.witnesses", len),
    ("cli", "count_word_paths_closed", "wordgrid.closed_form", None, None),
    ("verify", "count_word_paths_closed", "wordgrid.closed_form", None, None),
    ("cli", "enumerate_word_paths", "wordgrid.enumerate", "wordgrid.witnesses", len),
    ("verify", "enumerate_word_paths", "wordgrid.enumerate", "wordgrid.witnesses", len),
    ("render", "enumerate_word_paths", "wordgrid.enumerate", "wordgrid.witnesses", len),
    ("verify", "audit_partition", "verify.audit", None, None),
    ("cli", "verify_problem", "verify.problem", None, None),
    ("cli", "build_step_trace", "verify.trace", None, None),
    ("cli", "render_problem", "render.problem", "render.svg_bytes", len),
)

_MEMORY_SPANS = ("squares.enumerate", "wordgrid.enumerate", "verify.audit")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


@dataclass
class Recorder:
    """Spans, counts and allocation peaks, kept in memory until the run ends."""

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    alloc_peaks: dict[str, int] = field(default_factory=dict)
    run: int = 0
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        watch = self.memory and name in _MEMORY_SPANS
        if watch:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if watch:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0), peak)
            self._stack.pop()


def _wrap(recorder: Recorder, fn, name: str, count_name, counter, budget_error):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                # Count each error once, at the innermost span it leaves.
                if not getattr(exc, "_counted", False):
                    exc._counted = True
                    recorder.count("budget.errors", 1)
                raise
        if count_name is not None:
            recorder.count(count_name, counter(result))
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore the originals."""
    budget_error = importlib.import_module("configcount.budget").OracleBudgetError
    saved = []
    missing = []
    try:
        for module_name, attr, name, count_name, counter in _TARGETS:
            module = importlib.import_module(f"configcount.{module_name}")
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(recorder, original, name, count_name, counter, budget_error))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def invoke(args) -> tuple[int, str]:
    """Run ``configcount <args>`` in this process; exit code and stdout."""
    main = importlib.import_module("configcount.cli").main
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=list(args), prog_name="configcount", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out

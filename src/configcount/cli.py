"""Command-line front end: count, enumerate, verify, explain, render.

The commands parse arguments, format output and map errors to exit codes;
which closed form and which enumerator a problem uses is read off its family
in ``verify``.  Exit codes: 0 on success (and on verify when every problem
PASSes), 1 when verification finds a discrepancy, 2 on usage, parse, or
budget errors, on running out of memory and on a failed write to stdout or
stderr, help and usage text included; a budget error names the problem that
overran, and outranks a FAIL.  A usage error prints argparse's usage line and
one error line.  All output is deterministic for fixed inputs and flags;
counts appear in JSON as decimal strings so consumers never round them
through a fixed-width type, and print in full at any length.

``count``, ``verify``, ``explain`` and ``enumerate`` write their output as it
is formatted, with one flush at the end: a write holds at most 65,536
characters plus one piece, and a piece at most 64 listing rows, report lines,
JSON list items, step iv terms or witnesses.  Running out of memory as a
problem is written exits 2 naming it, as it does while the problem is
computed.  Every JSON document is written through ``_json_pieces``, whose
pieces join to ``json.dumps`` of the whole document: a string is encoded by
the function ``json.dumps`` encodes it with, so no command loads ``json``, and
a list item's template is encoded once per process, not once per problem.
``count``, ``explain`` and ``enumerate`` write listings from templates, with
no function call per item.  ``count`` and ``explain`` fill a block of 64
classes per ``%`` call (``_rows``): a class's template, made from the class
label and step iii note that ``verify`` keeps, repeated once per class, is
filled with one tuple of the block's ints, copied in from columns a column at
a time.  ``enumerate`` fills a square problem's keys the same way, a (k, a)
block at a time: the block's template has k and a written in, and its x and y
columns repeat the block's anchor ranges; ``--limit`` cuts the last block.  It
joins a reading from strings made once per column and once per row.  The bytes
are still the documented text, and ``json.dumps`` of the documented form.
``render`` writes its figure to the file piece by piece, opening it only once
the first piece is drawn.

The front end reads a well-formed command line itself (``_read``), off the
options in ``_COMMANDS``, and loads ``argparse`` only for what it leaves:
``--help`` and usage errors, whose text argparse writes, and the few valid
spellings it does not read (``--flag=value``, a repeated option, a value or
SPEC_FILE that starts with ``-``).  Either way the command gets the same
options.  ``main`` is called as ``main()``, or as ``main.main(args=...,
prog_name=..., standalone_mode=...)``, the way ``perfbench/spans.invoke`` runs
a command in-process; the tests' runner calls it that way too.

A standalone run freezes the garbage collector (``gc.freeze``) once it has read
its command line and run its command, on every exit, help and usage errors
included.  Every object it made then sits in the collector's permanent
generation, which the collections Python runs at exit skip; the process still
leaves through Python's normal exit.  An in-process caller
(``standalone_mode=False``) is never frozen: that would pin its garbage for
good.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import gc
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat

from .budget import OracleBudgetError
from .render import render_pieces
from .speclang import MAX_DIGITS, ProblemSpec, SpecError, parse_spec
from .verify import (
    VerifyReport,
    build_step_trace,
    class_counts,
    counted_blocks,
    counted_witnesses,
    family_of,
    table_size,
    verify_problem,
)


def _fail(message: str) -> None:
    _error(message)
    sys.exit(2)


def _error(message: str, usage: str = "") -> None:
    """One error line on stderr, after ``usage`` (a usage error's usage line)."""
    try:
        sys.stderr.write(f"{usage}error: {message}\n")
        sys.stderr.flush()
    except OSError as exc:
        _write_failed("stderr", exc)


def _write_failed(stream: str, exc: OSError) -> None:
    """Exit 2 after a failed write to ``sys.<stream>`` (a full disk, a closed
    pipe), never 1, which means "verification failed".  A failed stdout write
    is named on stderr; a failed stderr write leaves nowhere to name it."""
    # Python flushes the stream again at exit, and a failed flush there would
    # change the exit code: what is left goes to the null device.
    with contextlib.suppress(OSError):  # no file descriptor under a test runner
        fd = getattr(sys, stream).fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, fd)
        finally:
            os.close(null)
    if stream == "stdout":
        _fail(f"stdout: {exc.strerror}")
    sys.exit(2)


def _load_specs(spec_file: str) -> list[ProblemSpec]:
    try:
        with open(spec_file, encoding="utf-8") as fh:
            source = fh.read()
    except UnicodeDecodeError:
        _fail(f"{spec_file}: not valid UTF-8")
    except OSError as exc:
        _fail(f"{spec_file}: {exc.strerror}")
    try:
        return parse_spec(source)
    except SpecError as exc:
        _fail(f"{spec_file}: {exc}")


def _select(specs: list[ProblemSpec], name: str | None) -> list[ProblemSpec]:
    if name is None:
        return specs
    for spec in specs:
        if spec.name == name:
            return [spec]
    _fail(f"no such problem: {name}")


def _describe(spec: ProblemSpec) -> str:
    if spec.kind == "squares":
        return f"squares {spec.variant} {spec.cols}x{spec.rows}"
    parts = [f"word-paths {spec.word!r} {spec.layout} {spec.adjacency}"]
    if spec.distinct_cells:
        parts.append("distinct-cells")
    return " ".join(parts)


def _refusal(spec: ProblemSpec, exc: Exception) -> str:
    reason = "out of memory" if isinstance(exc, MemoryError) else exc
    return f"problem {spec.name}: {reason}"


@contextlib.contextmanager
def _naming(spec: ProblemSpec, errors=(OracleBudgetError,)):
    """Exit 2 on ``errors`` or on running out of memory, naming the problem."""
    try:
        yield
    except (*errors, MemoryError) as exc:
        _fail(_refusal(spec, exc))


# Items of a JSON list (or terms of step iv's sum, or witnesses) joined into
# one piece, and rows of a listing filled by one `%`.
_ITEMS = 64
# Characters of output joined into one write; a write holds fewer than this
# plus one piece.
_WRITE_CHARS = 1 << 16


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout a chunk at a time, then flush once.

    A flush per piece is slower than building the whole output; chunks keep
    both the calls and the memory small.
    """
    if sys.stdout is None:  # Python was started with stdout closed
        _fail(f"stdout: {os.strerror(errno.EBADF)}")
    chunk, size = [], 0
    for piece in pieces:
        chunk.append(piece)
        if (size := size + len(piece)) >= _WRITE_CHARS:
            _to_stdout(sys.stdout.write, "".join(chunk))
            chunk, size = [], 0
    _to_stdout(sys.stdout.write, "".join(chunk))
    _to_stdout(sys.stdout.flush)


def _to_stdout(call, *args) -> None:
    """``call(*args)``; a failed write to stdout (a full disk, a closed pipe) exits 2."""
    try:
        call(*args)
    except OSError as exc:
        _write_failed("stdout", exc)


@functools.cache
def _quoted():
    """The function ``json.dumps`` encodes a string with, loaded once: the C
    encoder ``json.encoder`` re-exports.  Every JSON string the commands write
    is encoded by it, so the ``json`` package is never loaded."""
    try:
        from _json import encode_basestring_ascii
    except ImportError:  # no C accelerator: json.encoder's own
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _json_pieces(doc: dict) -> Iterator[str]:
    """``json.dumps(doc)`` in pieces.

    A value is a string, None (``null``), a list of strings, a dict, or an
    iterator: a list's items, already encoded and joined, in pieces.
    """
    quoted = _quoted()
    parts, separator = ["{"], ""
    for key, value in doc.items():
        parts += separator, quoted(key), ": "
        separator = ", "
        if isinstance(value, str):
            parts.append(quoted(value))
        elif isinstance(value, list):
            parts += "[", ", ".join(map(quoted, value)), "]"
        elif isinstance(value, dict):
            yield "".join(parts)
            yield from _json_pieces(value)
            parts = []
        elif value is None:
            parts.append("null")
        else:
            parts.append("[")
            yield "".join(parts)
            yield from value
            parts = ["]"]
    parts.append("}")
    yield "".join(parts)


def _joined(items: Iterator[str], separator: str = ", ") -> Iterator[str]:
    """``separator.join(items)`` in pieces of ``_ITEMS`` items: a JSON list's
    encoded items without its brackets, or text lines, joined by ``"\n"`` or
    each ending in one."""
    lead = ""
    while chunk := list(islice(items, _ITEMS)):
        yield lead + separator.join(chunk)
        lead = separator


def _rows(template: str, columns: tuple, separator: str = "") -> Iterator[str]:
    """``separator.join(template % row for row in zip(*columns))`` in pieces,
    one per block of ``_ITEMS`` rows.

    ``template``'s directives are positional, and ``columns`` are iterables,
    one per directive: the first gives the rows, and each other holds at least
    as many values.  Each block is filled by one ``%``: the
    template repeated once per row, made once per template and row count,
    fills from one tuple, into which each column's values are copied by slice
    assignment.
    """
    first, *rest = map(iter, columns)
    width = len(columns)
    lead, template = template, separator + template
    rows = _ITEMS
    while rows == _ITEMS:
        head = list(islice(first, _ITEMS))
        if not (rows := len(head)):
            return
        # The block's fields, row by row: each column fills every width-th slot.
        values = [None] * (rows * width)
        values[::width] = head
        for at, column in enumerate(rest, 1):
            values[at::width] = islice(column, rows)
        yield _repeated(lead, template, rows) % tuple(values)
        lead = template


@functools.lru_cache(maxsize=256)
def _repeated(first: str, template: str, rows: int) -> str:
    """``first``, then ``template`` for each row after the first."""
    return first + template * (rows - 1)


@functools.lru_cache(maxsize=64)
def _encoded(*fields: tuple[str, str]) -> str:
    """The JSON object of ``fields``, each a key and a string: a list item's
    template is encoded once per process, not once per problem.  Its values
    are filled with ints, which need no escaping."""
    return "".join(_json_pieces(dict(fields)))


def _report_each(specs: list[ProblemSpec], run, block, fmt: str) -> list:
    """Write ``block(spec, run(spec))`` for each problem in file order; the results.

    A block is an iterable of text pieces.  A problem that overruns the oracle
    budget, or runs out of memory, gets one error line on stderr, when it is
    reached, and no block; the others are still written, and then the command
    exits 2.  Stdout stays empty when every problem overran.  One that does
    either while its block is written ends the command: exit 2, naming it.
    """
    results, overran, spec = [], False, None

    def blocks():
        nonlocal overran, spec
        for spec in specs:
            try:
                result = run(spec)
            except (OracleBudgetError, MemoryError) as exc:
                _error(_refusal(spec, exc))
                overran = True
                continue
            if results:
                yield ("\n\n" if fmt == "text" else "\n",)
            results.append(result)
            yield block(spec, result)
        if results or not overran:
            yield ("\n",)

    # Blocks are chained, not yielded from, so a piece passes through no
    # Python frame here; ``spec`` is run once the block before it is written.
    try:
        _write(chain.from_iterable(blocks()))
    except (OracleBudgetError, MemoryError) as exc:
        _fail(_refusal(spec, exc))
    if overran:
        sys.exit(2)
    return results


def _count_text(spec: ProblemSpec, classes) -> Iterator[str]:
    family = family_of(spec)
    return chain((f"problem {spec.name}: {_describe(spec)}",),
                 _rows(f"\n{family.label}: %d", (*family.columns(classes), classes.values())),
                 (f"\ntotal {family.total(classes)}",))


def _count_json(spec: ProblemSpec, classes) -> Iterator[str]:
    family = family_of(spec)
    return _json_pieces({
        "problem": spec.name,
        "kind": spec.kind,
        "total": str(family.total(classes)),
        "classes": _rows(_encoded(("label", family.label), ("count", "%d")),
                         (*family.columns(classes), classes.values()), ", "),
    })


def count(spec_file, problem_name, fmt):
    """Print the total and class breakdown for each problem.

    A problem that overruns the oracle budget gets an error line on stderr;
    the others are still reported, and the exit code is 2.
    """
    _report_each(_select(_load_specs(spec_file), problem_name), class_counts,
                 _count_json if fmt == "json" else _count_text, fmt)


# How enumerate writes a square key, per format: a (k, a) block's template,
# filled with each key's x and y, and the separator between keys.
_SQUARE_FORMS = {"text": ("(%d,%d) k={k} a={a}\n", ""),
                 "json": ('{{"anchor": [%d, %d], "k": {k}, "a": {a}}}', ", ")}
# How enumerate writes a reading, per format: start, column, row, separator,
# end.  Each of its cells joins a string for its column and one for its row,
# made once per command: O(cols + rows) strings, never one per cell.
_READING_FORMS = {"text": ("", "({},", "{})", " ", "\n"),
                  "json": ('{"cells": [', "[{}, ", "{}]", ", ", "]}")}


def _square_witnesses(blocks, fmt: str, shown: int | None) -> Iterator[str]:
    """The first ``shown`` keys of ``blocks`` (every key if None), written in
    ``fmt`` and joined by its separator, in pieces.  Each block is filled
    through ``_rows`` from its template, with k and a written in, and its
    columns of x and y: x runs along each row of y."""
    template, separator = _SQUARE_FORMS[fmt]
    lead = ""
    for k, a, ys, xs in blocks:
        width, size = len(xs), len(xs) * len(ys)
        x_column = chain.from_iterable(repeat(xs, len(ys)))
        if shown is not None and shown <= size:
            x_column, size = islice(x_column, shown), shown
        if lead:
            yield lead
        yield from _rows(template.format(k=k, a=a),
                         (x_column, chain.from_iterable(map(repeat, ys, repeat(width)))),
                         separator)
        if shown is not None and not (shown := shown - size):
            return
        lead = separator


def _reading_witnesses(spec: ProblemSpec, readings, fmt: str,
                       shown: int | None) -> Iterator[str]:
    """The first ``shown`` of a word problem's readings (every one if None),
    written in ``fmt`` and joined by its separator, in pieces."""
    start, column, row, separator, end = _READING_FORMS[fmt]
    cols, rows = table_size(spec, None)
    xs = list(map(column.format, range(cols)))
    ys = list(map(row.format, range(rows)))
    return _joined((start + separator.join([xs[x] + ys[y] for x, y in cells]) + end
                    for cells in islice(readings, shown)), ", " if fmt == "json" else "")


def enumerate_cmd(spec_file, problem_name, fmt, limit):
    """List every witness of a problem in canonical order.

    With ``--limit``, the witnesses past it are not drawn: how many were left
    out is the problem's total (``class_counts``) less the limit.
    """
    spec = _select(_load_specs(spec_file), problem_name)[0]
    with _naming(spec):
        squares = spec.kind == "squares"
        witnesses, classes = (counted_blocks if squares else counted_witnesses)(spec)
        omitted = 0 if limit is None else max(family_of(spec).total(classes) - limit, 0)
        # A limit at or past the total draws every witness: islice refuses a
        # limit past sys.maxsize.
        shown = limit if omitted else None
        listing = (_square_witnesses(witnesses, fmt, shown) if squares
                   else _reading_witnesses(spec, witnesses, fmt, shown))
        if fmt == "json":
            _write(chain(_json_pieces({"problem": spec.name, "kind": spec.kind,
                                       "witnesses": listing, "omitted": str(omitted)}),
                         ("\n",)))
        else:
            _write(chain(listing, (f"(omitted {omitted} more)\n",) if omitted else ()))


def _verify_text(spec: ProblemSpec, report: VerifyReport) -> Iterator[str]:
    if report.closed_form_total is None:
        head = (f"problem {spec.name}: {report.verdict} "
                f"(oracle {report.oracle_total}, enumeration only)")
    else:
        head = (f"problem {spec.name}: {report.verdict} "
                f"(closed form {report.closed_form_total}, oracle {report.oracle_total})")
    rows = (f"{row.label}: observed {row.observed}" if row.expected is None
            else f"{row.label}: expected {row.expected}, observed {row.observed}"
            for row in report.partition_rows)
    return _joined(chain((head,), rows, (f"duplicates: {report.duplicate_witnesses}",),
                         (f"note: {note}" for note in report.notes)), "\n")


def _verify_json(spec: ProblemSpec, report: VerifyReport) -> Iterator[str]:
    quoted = _quoted()
    return _json_pieces({
        "problem": spec.name,
        "kind": spec.kind,
        "verdict": report.verdict,
        "closed_form_total": None if report.closed_form_total is None
        else str(report.closed_form_total),
        "oracle_total": str(report.oracle_total),
        "partition": _joined('{"label": %s, "expected": %s, "observed": "%d"}'
                             % (quoted(row.label),
                                "null" if row.expected is None else f'"{row.expected}"',
                                row.observed)
                             for row in report.partition_rows),
        "duplicates": str(report.duplicate_witnesses),
        "notes": _joined(map(quoted, report.notes)),
    })


def verify(spec_file, problem_name, fmt):
    """Cross-check closed forms against enumeration; exit 1 on any FAIL.

    A problem that overruns the oracle budget gets an error line on stderr;
    the others are still reported, and the exit code is 2.
    """
    reports = _report_each(_select(_load_specs(spec_file), problem_name), verify_problem,
                           _verify_json if fmt == "json" else _verify_text, fmt)
    if any(r.verdict != "PASS" for r in reports):
        sys.exit(1)


def _step_iv_text(trace) -> Iterator[str]:
    if trace.step_iv_rule == "enumeration-only":
        yield f"enumeration only, no closed form; total {trace.step_iv_total}"
    elif trace.step_iv_rule == "product":
        sizes = list(trace.classes.values())
        yield (f"{len(sizes)} × {sizes[0]} = {trace.step_iv_total} "
               f"(product principle over {len(sizes)} symmetric classes)")
    elif not trace.classes:
        yield f"total {trace.step_iv_total} (no classes fit)"
    else:
        yield from _rows("%d", (trace.classes.values(),), " + ")
        yield f" = {trace.step_iv_total} (addition principle)"


def _explain_text(spec: ProblemSpec, trace) -> Iterator[str]:
    return chain((f"problem {trace.problem}\nStep i) {trace.step_i}\nStep ii) constraints:\n",),
                 (f"  - {item}\n" for item in trace.step_ii),
                 ("Step iii) classes:\n",),
                 _rows(f"  - {trace.label}: {trace.note}\n", trace.fields()),
                 ("Step iv) ",), _step_iv_text(trace))


def _explain_json(spec: ProblemSpec, trace) -> Iterator[str]:
    return _json_pieces({
        "problem": trace.problem,
        "step_i": trace.step_i,
        "step_ii": list(trace.step_ii),
        "step_iii": _rows(_encoded(("label", trace.label), ("note", trace.note)),
                          trace.fields(), ", "),
        "step_iv": {
            "classes": _rows(_encoded(("label", trace.label), ("count", "%d")),
                             (*trace.fields()[:trace.split], trace.classes.values()), ", "),
            "rule": trace.step_iv_rule,
            "total": str(trace.step_iv_total),
        },
    })


def explain(spec_file, problem_name, fmt):
    """Walk through a problem in four steps: objects, constraints, classes, total."""
    _report_each(_select(_load_specs(spec_file), problem_name), build_step_trace,
                 _explain_json if fmt == "json" else _explain_text, fmt)


# An integer option takes what a .ccspec integer takes: decimal digits, at
# most MAX_DIGITS of them, with no sign, underscore or whitespace.
_INTEGER = re.compile(rf"\d{{1,{MAX_DIGITS}}}")


def _parse_highlight(text: str):
    digits = text.removeprefix("k=")
    if _INTEGER.fullmatch(digits):
        return "class" if digits != text else "witness", int(digits)
    _fail(f"invalid highlight: {text!r} (use an index or k=SIZE)")


def render(spec_file, problem_name, highlight, cell_size, output_path):
    """Draw a problem (and optionally one witness or size class) as an SVG."""
    spec = _select(_load_specs(spec_file), problem_name)[0]
    parsed = None if highlight is None else _parse_highlight(highlight)
    with _naming(spec, (ValueError, OracleBudgetError)):
        pieces = render_pieces(spec, cell_size=cell_size, highlight=parsed)
        # Every refusal comes before the first piece, so a refused figure
        # neither creates nor truncates the output file.
        head = next(pieces)
        try:
            with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(head)
                fh.writelines(pieces)
        except OSError as exc:
            _fail(f"{output_path}: {exc.strerror}")


def _whole(text: str) -> int | None:
    """An integer option's value: an integer of at least 1, or None."""
    if _INTEGER.fullmatch(text) and (value := int(text)) >= 1:
        return value
    return None


def _positive(text: str) -> int:
    """``--limit`` and ``--cell-size`` as argparse reads them: an integer of at least 1."""
    if (value := _whole(text)) is None:
        import argparse  # loaded already: only argparse calls this

        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# Each option a command takes: add_argument's flags and keywords.  Each names
# its dest, which _read reads.
_PROBLEM = ("--problem",), {"dest": "problem_name", "metavar": "NAME",
                            "help": "Only this problem (default: every problem in the file)."}
_PROBLEM_REQUIRED = ("--problem",), {"dest": "problem_name", "metavar": "NAME", "required": True,
                                     "help": "The problem to operate on."}
_FORMAT = ("--format",), {"dest": "fmt", "choices": ("text", "json"), "default": "text",
                          "help": "Output format."}
_LIMIT = ("--limit",), {"dest": "limit", "type": _positive, "metavar": "N",
                        "help": "Print at most this many witnesses."}
_HIGHLIGHT = ("--highlight",), {"dest": "highlight", "metavar": "SPEC",
                                "help": "Witness index, or k=SIZE for one square size class."}
_CELL_SIZE = ("--cell-size",), {"dest": "cell_size", "type": _positive, "default": 40,
                                "metavar": "PIXELS", "help": "Pixels per lattice unit."}
_OUTPUT = ("-o", "--output"), {"dest": "output_path", "required": True, "metavar": "FILE",
                               "help": "Where to write the SVG."}

# Each command: the function it runs, which takes SPEC_FILE and its options.
_COMMANDS = {
    "count": (count, _PROBLEM, _FORMAT),
    "enumerate": (enumerate_cmd, _PROBLEM_REQUIRED, _FORMAT, _LIMIT),
    "verify": (verify, _PROBLEM, _FORMAT),
    "explain": (explain, _PROBLEM_REQUIRED, _FORMAT),
    "render": (render, _PROBLEM_REQUIRED, _HIGHLIGHT, _CELL_SIZE, _OUTPUT),
}


def _read(argv: list[str]) -> dict | None:
    """``vars(_parser(prog).parse_args(argv))`` for ``COMMAND SPEC_FILE`` with
    each of the command's options at most once, as ``--flag value``, in any
    order; None for any other command line, which argparse reads.

    So None for another word that starts with ``-`` (``--help``, ``--``,
    ``--flag=value``, a SPEC_FILE such as ``-1``), a value that starts with
    ``-``, a repeated option, a second SPEC_FILE, a missing SPEC_FILE or
    required option, and a value argparse refuses: one outside an option's
    ``choices``, or an integer option's (the one ``type`` is ``_positive``)
    that is not an integer of at least 1.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, *options = _COMMANDS[argv[0]]
    by_flag = {flag: settings for flags, settings in options for flag in flags}
    read = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if "spec_file" in read:
                return None
            read["spec_file"] = word
            continue
        settings, value = by_flag.get(word), next(words, None)
        if settings is None or value is None or value.startswith("-") or settings["dest"] in read:
            return None
        if "type" in settings and (value := _whole(value)) is None:
            return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        read[settings["dest"]] = value
    if "spec_file" not in read or any(settings.get("required") and settings["dest"] not in read
                                      for _, settings in options):
        return None
    defaults = {settings["dest"]: settings.get("default") for _, settings in options}
    return {"run": run, **defaults, **read}


def _parser(prog: str):
    """The argparse parser of every command line, which writes help and usage
    errors.  argparse is loaded only here: a well-formed command is ``_read``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse, writing help through ``_write`` and a usage error through
        ``_error``, so a failed write of either exits 2.  Only ``--help`` asks
        for help, and no option is abbreviated: ``-h`` and ``--form`` are usage
        errors."""

        def __init__(self, **kwargs):
            super().__init__(add_help=False, allow_abbrev=False, **kwargs)
            self.add_argument("--help", action="help", help="Show this message and exit.")

        def print_help(self, file=None):
            _write((self.format_help(),))

        def error(self, message):
            _error(message, self.format_usage())
            sys.exit(2)

    parser = _Parser(prog=prog, description="Exact counting workbench for lattice squares "
                                            "and grid word readings.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, *options) in _COMMANDS.items():
        command = commands.add_parser(name, help=run.__doc__.partition("\n")[0],
                                      description=run.__doc__)
        command.set_defaults(run=run)
        command.add_argument("spec_file", metavar="SPEC_FILE")
        for flags, settings in options:
            command.add_argument(*flags, **settings)
    return parser


class _Main:
    """The ``configcount`` command: ``main()`` from ``__main__`` and the
    console script, ``main.main(args=..., prog_name=..., standalone_mode=...)``
    from ``perfbench/spans.invoke`` and the tests' runner, which run it
    in-process, ``main(args, ...)`` alike.  It exits 0 on success, or returns
    when ``standalone_mode`` is false.  A standalone run freezes the garbage
    collector before it exits, however it exits; an in-process call does not.

    A count is printed in full at any length: Python's limit on the digits
    ``str`` of an int may have is lifted for the process."""

    name = "configcount"

    def main(self, args=None, prog_name=None, standalone_mode=True):
        if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
            sys.set_int_max_str_digits(0)
        for stream in (sys.stdout, sys.stderr):
            if hasattr(stream, "reconfigure"):
                stream.reconfigure(encoding="utf-8")
        argv = sys.argv[1:] if args is None else list(args)
        try:
            options = _read(argv) or vars(_parser(prog_name or self.name).parse_args(argv))
            options.pop("run")(**options)
        finally:
            if standalone_mode:
                # The process ends next: the collections Python runs at exit
                # skip what sits in the collector's permanent generation.
                gc.freeze()
        if standalone_mode:
            sys.exit(0)

    __call__ = main


main = _Main()

if __name__ == "__main__":
    main()

"""Audit closed-form counts against brute-force enumeration.

``verify_problem`` runs three checks on a problem and only reports PASS when
all of them hold on the actual data:

* totals: the registered closed form equals the enumerated witness count;
* classes: the per-class closed-form values equal the enumerated class sizes;
* distinctness: no witness was enumerated twice.

Each witness is counted once, in its class (a square key's k, a reading's end
cell), so the classes cover the enumeration exactly by construction.  Every
command draws witnesses through ``counted_witnesses``, as one stream, and lists
none.  A family gives its stream in the one shape its writers read: squares as
(k, a) blocks of anchors (``squares.square_blocks``), which ``enumerate`` and
``render`` fill a block at a time; readings as the search yields them, bare
tuples of (x, y) cells (no ``PathWitness`` is built).  ``verify_problem``
tallies the family's ``keys`` of the stream: the blocks flattened into ``(k,
a, y, x)`` keys (``squares.square_keys``), or the readings as they are.  Both
come in ascending order, so one pass (``_tally``) counts the classes and checks
the order; only a stream out of order can hold a duplicate, and only such a
stream is drawn a second time, into a set.

Problems without a registered closed form (word readings under king or
unconstrained adjacency, explicit letter tables, words with repeated symbols)
are still enumerated and checked for duplicates, and each enumerated class
size is compared with the reading counter's count for that end cell
(``readings_per_end_cell``), whose name ``wordgrid.reading_counter`` gives.
For every word the stream runs the counter once, on the table the search
reads, and it is the search's only budget check.

``FAMILIES`` holds one instance per problem family: ``squares-axis``,
``squares-all``, ``word-side`` (the registered rings form) and
``word-counter`` (every other word).  A kind's class (``Squares``, ``Words``)
holds what its families share: the class label and its columns, the counted
stream (``counted``) and its ``keys``, ``_tally``'s field and the total.  A
family's subclass holds its name, whether a closed form is registered,
explain's steps and step iv's rule, and a word family its class counts.
``family_of`` is the only code that reads a spec's kind, variant, adjacency or
symbols to choose one, and every command reads the family it returns; a test
injects a closed-form fault into the family object there.  A family's methods
call the counters and enumerators by their names here when they run, never
through a reference taken at import: a counter replaced in this module (a
test's spy, a benchmark's span) is the one called.

``build_step_trace`` emits the same facts as a four-step decomposition:
what is being counted, under which constraints, how the witnesses split into
classes, and how the class counts recombine into the total.  A class's text
is kept once, as ``%`` templates (the kind's label, one step iii note per
family) and columns of ints to fill them with, so a listing of any length is
written without a function call per class.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter, mul

from .budget import DEFAULT_ORACLE_BUDGET, OracleBudgetError
from .geometry import LatticeGrid
from .record import Record, set_field
from .speclang import ProblemSpec
from .squares import (
    _square_totals,
    count_all_squares,
    count_axis_squares,
    square_blocks,
    square_keys,
)
from .wordgrid import (
    LetterGrid,
    count_word_paths_closed,
    generate_manhattan_rings,
    reading_counter,
    readings_per_end_cell,
    word_readings,
)

class PartitionRow(Record):
    """Expected (closed-form) versus observed (enumerated) size of one class."""

    label: str
    expected: int | None
    observed: int

    def __init__(self, label: str, expected: int | None, observed: int):
        set_field(self, "label", label)
        set_field(self, "expected", expected)
        set_field(self, "observed", observed)


class VerifyReport(Record):
    problem: ProblemSpec
    closed_form_total: int | None
    oracle_total: int
    verdict: str  # "PASS" | "FAIL"
    partition_rows: tuple[PartitionRow, ...]
    duplicate_witnesses: int
    notes: tuple[str, ...]

    def __init__(self, problem: ProblemSpec, closed_form_total: int | None, oracle_total: int,
                 verdict: str, partition_rows: tuple[PartitionRow, ...],
                 duplicate_witnesses: int, notes: tuple[str, ...]):
        set_field(self, "problem", problem)
        set_field(self, "closed_form_total", closed_form_total)
        set_field(self, "oracle_total", oracle_total)
        set_field(self, "verdict", verdict)
        set_field(self, "partition_rows", partition_rows)
        set_field(self, "duplicate_witnesses", duplicate_witnesses)
        set_field(self, "notes", notes)


class StepTrace(Record):
    """The four-step decomposition of one counting problem, as data.

    ``classes`` is the problem's ``class_counts``.  A class's text fills two
    ``%`` templates, the kind's ``label`` and the family's step iii ``note``,
    with ints: ``fields()`` gives their columns in class order, the label's
    ``split`` columns first.  An int needs no JSON escaping.  A class's row
    of ``zip(*fields())`` fills step iii's text, ``label % row[:split]`` and
    ``note % row[split:]``; step iv's counts are ``classes.values()``, in the
    same order.  No row is held: a reader fills its text from the columns.
    """

    problem: str
    step_i: str
    step_ii: tuple[str, ...]
    label: str
    note: str
    fields: Callable[[], tuple[Iterable[int], ...]]
    split: int
    step_iv_rule: str  # "addition" | "product" | "enumeration-only"
    step_iv_total: int
    classes: Mapping

    def __init__(self, problem: str, step_i: str, step_ii: tuple[str, ...], label: str,
                 note: str, fields: Callable[[], tuple[Iterable[int], ...]], split: int,
                 step_iv_rule: str, step_iv_total: int, classes: Mapping):
        set_field(self, "problem", problem)
        set_field(self, "step_i", step_i)
        set_field(self, "step_ii", step_ii)
        set_field(self, "label", label)
        set_field(self, "note", note)
        set_field(self, "fields", fields)
        set_field(self, "split", split)
        set_field(self, "step_iv_rule", step_iv_rule)
        set_field(self, "step_iv_total", step_iv_total)
        set_field(self, "classes", classes)


def family_of(spec: ProblemSpec) -> Squares | Words:
    """The problem's family, as it is in ``FAMILIES``.

    Both square variants have a closed form.  The word closed form requires the
    manhattan-rings layout with side adjacency and pairwise-distinct symbols;
    with distinct symbols a reading can never revisit a cell, so the
    distinct-cells flag is inert there.  Every other word is oracle-only.
    """
    if spec.kind == "squares":
        return FAMILIES[f"squares-{spec.variant}"]
    if (spec.layout == "manhattan-rings" and spec.adjacency == "side"
            and len(set(spec.word)) == len(spec.word)):
        return FAMILIES["word-side"]
    return FAMILIES["word-counter"]


def has_registered_closed_form(spec: ProblemSpec) -> bool:
    """Whether a closed form is registered for this problem (see ``family_of``)."""
    return family_of(spec).closed


def table_size(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET) -> tuple[int, int]:
    """A word problem's letter table as (cols, rows), read off the spec, within ``budget`` cells."""
    cols, rows = ((len(spec.rows_data[0]), len(spec.rows_data)) if spec.layout == "explicit"
                  else (len(spec.word), len(spec.word)))
    if budget is not None and cols * rows > budget:
        raise OracleBudgetError(
            f"oracle budget exceeded: letter table of {cols * rows} cells > {budget}")
    return cols, rows


def letter_grid(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET) -> LetterGrid:
    """The letter table a word-paths problem is read in, within ``budget`` cells."""
    table_size(spec, budget)  # refuses a table over budget before it is built
    if spec.layout == "explicit":
        return LetterGrid(spec.rows_data)
    return generate_manhattan_rings(spec.word)


def counted_witnesses(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET,
                      table: LetterGrid | None = None):
    """The problem's witnesses in canonical order, as a stream refused before
    its first witness if over the oracle budget, and its ``class_counts``.

    A squares problem's stream is its (k, a) blocks, a word problem's its
    readings in ``table``, its letter table, built here if not given; the
    family's ``keys`` reads either as witnesses.
    """
    return family_of(spec).counted(spec, budget, table)


def _tally(witnesses: Iterable[tuple], at: int) -> tuple[dict, bool]:
    """Witnesses per class, the field ``at`` of each (a square key's k, a
    reading's end cell), in order of first sight, and whether each witness is
    greater than the one before (then none is a duplicate), in one pass."""
    sizes: dict = {}
    get = sizes.get
    last, ordered = (), True
    for witness in witnesses:
        ordered = ordered and last < witness
        last = witness
        key = witness[at]
        sizes[key] = get(key, 0) + 1
    return sizes, ordered


def class_counts(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET,
                 table: LetterGrid | None = None) -> Mapping:
    """Count per class: the closed form, else the reading counter; nothing is enumerated.

    The counter (``reading_counter`` names it) runs under the search's visit
    budget, in ``table``, a word problem's letter table, built here if not given.

    A listing of more classes than ``budget`` is refused before it is written;
    the counter refuses one itself, as each class costs a visit.
    """
    return family_of(spec).classes(spec, budget, table)


def verify_problem(
    spec: ProblemSpec, *, oracle_budget: int | None = DEFAULT_ORACLE_BUDGET
) -> VerifyReport:
    """Enumerate, count the classes, and compare with the closed form where one
    exists, else with the reading counter."""
    family = family_of(spec)
    # One stream, refused before its first witness if over budget, and the count
    # per class: the closed form, else the reading counter, the second oracle.
    witnesses, counted = counted_witnesses(spec, oracle_budget)
    # Both streams are in canonical order; a key's class is its k, a reading's its end cell.
    observed, ordered = _tally(family.keys(witnesses), family.at)
    oracle_total = sum(observed.values())
    # Only a faulty enumeration breaks the order; it is drawn again into a set.
    duplicates = 0 if ordered else oracle_total - len(
        set(family.keys(counted_witnesses(spec, None)[0])))

    # Every failed check adds one note, so the verdict is read off the notes.
    notes = [f"{duplicates} duplicate witnesses in the enumeration"] if duplicates else []
    # A closed form lacking a class reads None; the counter leaves out only zeros.
    closed = family.closed
    source, missing = (("closed form", None) if closed
                       else (reading_counter(spec.word, spec.distinct_cells), 0))
    rows = []
    for key in sorted(counted.keys() | observed.keys()):
        label, expected, seen = family.label % key, counted.get(key, missing), observed.get(key, 0)
        rows.append(PartitionRow(label, expected if closed else None, seen))
        if expected != seen:
            notes.append(f"class {label}: {source} {expected} != oracle {seen}")
    closed_total = None
    if closed:
        closed_total = family.total(counted)
        if closed_total != oracle_total:
            notes.append(f"closed-form total {closed_total} != oracle total {oracle_total}")

    return VerifyReport(
        problem=spec,
        closed_form_total=closed_total,
        oracle_total=oracle_total,
        verdict="FAIL" if notes else "PASS",
        partition_rows=tuple(rows),
        duplicate_witnesses=duplicates,
        notes=tuple(notes),
    )


_ADJACENCY_TEXT = {
    "side": "consecutive cells share a side",
    "king": "consecutive cells share a side or a corner",
    "none": "no adjacency constraint between consecutive cells",
}


def build_step_trace(
    spec: ProblemSpec, *, oracle_budget: int | None = DEFAULT_ORACLE_BUDGET
) -> StepTrace:
    """Lay out the problem as configuration, constraints, classes, recombination."""
    family = family_of(spec)
    classes = class_counts(spec, oracle_budget)
    step_i, step_ii, note, note_columns = family.steps(spec, classes)
    return StepTrace(
        problem=spec.name,
        step_i=step_i,
        step_ii=step_ii,
        label=family.label,
        note=note,
        fields=lambda: family.columns(classes) + note_columns(),
        split=len(family.columns(classes)),
        step_iv_rule=family.rule,
        step_iv_total=family.total(classes),
        classes=classes,
    )


def _listing(classes: Mapping, listed: int, budget: int | None) -> Mapping:
    """``classes``, refused if their number, ``listed``, is over ``budget``."""
    if budget is not None and listed > budget:
        raise OracleBudgetError(f"oracle budget exceeded: listing of {listed} classes > {budget}")
    return classes


class Squares:
    """A square family: a class is a size k; a witness, a ``(k, a, y, x)`` key."""

    label, at = "k=%d", 0
    tilted: bool

    def columns(self, classes):
        return (classes,)

    def counted(self, spec: ProblemSpec, budget, table):
        blocks = square_blocks(LatticeGrid(spec.cols, spec.rows), self.tilted, budget)
        return blocks, class_counts(spec, budget)

    def keys(self, blocks):
        return square_keys(blocks)

    def classes(self, spec: ProblemSpec, budget, table):
        count = count_all_squares if self.tilted else count_axis_squares
        classes = count(spec.cols, spec.rows).per_k
        return _listing(classes, classes.size, budget)

    def total(self, classes):
        return _square_totals(classes.cols, classes.rows)[classes.tilted]


class Words:
    """A word family: a class is an end cell; a witness, a reading's cells."""

    label, at = "(%d,%d)", -1

    def columns(self, classes):
        return map(itemgetter(0), classes), map(itemgetter(1), classes)

    def counted(self, spec: ProblemSpec, budget, table):
        if table is None:
            table = letter_grid(spec, budget)
        # The reading counter's one run under the budget is the search's budget
        # check, and a counter family's classes.
        counts = readings_per_end_cell(table, spec.word, spec.adjacency,
                                       distinct_cells=spec.distinct_cells, max_visits=budget)
        classes = class_counts(spec, budget) if self.closed else counts
        return word_readings(table, spec.word, spec.adjacency, spec.distinct_cells), classes

    def keys(self, readings):
        return readings

    def total(self, classes):
        return sum(classes.values())


class SquaresAxis(Squares):
    name, closed, rule, tilted = "squares-axis", True, "addition", False

    def steps(self, spec: ProblemSpec, classes):
        slots, rails = classes.margins()
        return (f"axis-aligned squares drawn on a {spec.cols}x{spec.rows} grid of points",
                ("all four vertices are grid points", "sides are parallel to the coordinate axes"),
                "%d rail pairs at distance %d, %d squares per pair",
                lambda: (rails, classes, slots))


class SquaresAll(Squares):
    name, closed, rule, tilted = "squares-all", True, "addition", True

    def steps(self, spec: ProblemSpec, classes):
        slots, rails = classes.margins()
        return (f"squares of any tilt drawn on a {spec.cols}x{spec.rows} grid of points",
                ("all four vertices are grid points",),
                "%d tilt offsets per box, %d box positions",
                lambda: (classes, map(mul, slots, rails)))


class WordSide(Words):
    """The registered closed form: distinct symbols on rings under side adjacency."""

    name, closed, rule = "word-side", True, "product"

    def classes(self, spec: ProblemSpec, budget, table):
        classes = count_word_paths_closed(spec.word).per_class
        return _listing(classes, len(classes), budget)

    def steps(self, spec: ProblemSpec, classes):
        length = len(spec.word)
        half = (length - 1) // 2
        step_i = f"readings of {spec.word!r} in the {length}x{length} manhattan-rings letter grid"
        step_ii = (_ADJACENCY_TEXT["side"], f"the visited cells spell {spec.word!r} in order")
        if length == 1:
            return step_i, step_ii, "the single cell holding the whole word", lambda: ()
        note = (f"readings ending at corner {self.label}: "
                f"{half} vertical and {half} horizontal moves interleaved")
        return step_i, step_ii, note, lambda: self.columns(classes)


class WordCounter(Words):
    """Every other word: its classes are the reading counter's, checked by enumeration."""

    name, closed, rule = "word-counter", False, "enumeration-only"

    def classes(self, spec: ProblemSpec, budget, table):
        if table is None:
            table = letter_grid(spec, budget)
        return readings_per_end_cell(table, spec.word, spec.adjacency,
                                     distinct_cells=spec.distinct_cells, max_visits=budget)

    def steps(self, spec: ProblemSpec, classes):
        size = "{}x{}".format(*table_size(spec, None))
        rings = spec.layout == "manhattan-rings"
        layout = f"the {size} manhattan-rings letter grid" if rings else f"a {size} letter grid"
        step_ii = [_ADJACENCY_TEXT[spec.adjacency], f"the visited cells spell {spec.word!r} in order"]
        if spec.distinct_cells:
            step_ii.append("no cell is visited twice")
        return (f"readings of {spec.word!r} in {layout}", tuple(step_ii),
                f"readings ending at cell {self.label}", lambda: self.columns(classes))


FAMILIES = {family.name: family for family in (SquaresAxis(), SquaresAll(), WordSide(),
                                                WordCounter())}

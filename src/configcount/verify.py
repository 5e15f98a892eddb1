"""Audit closed-form counts against brute-force enumeration.

``verify_problem`` runs three checks on a problem and only reports PASS when
all of them hold on the actual data:

* totals: the registered closed form equals the enumerated witness count;
* classes: the per-class closed-form values equal the enumerated class sizes;
* distinctness: no witness was enumerated twice.

Each witness is counted once, in its class (a square key's k, a reading's end
cell), so the classes cover the enumeration exactly by construction.  Every
command reads witnesses as one stream and lists none: squares as ``(k, a, y,
x)`` keys, a duplicate found by its rank in canonical order, one byte per
candidate square (``tally_square_keys``); readings as the search yields them,
bare tuples of (x, y) cells in ascending order (no ``PathWitness`` is built),
so only a stream out of order can hold a duplicate, and only such a stream is
read a second time, into a set.

Problems without a registered closed form (word readings under king or
unconstrained adjacency, explicit letter tables, words with repeated symbols)
are still enumerated and checked for duplicates, and each enumerated class
size is compared with the reading counter's count for that end cell
(``readings_per_end_cell``).  One comparison serves both sources, and a
failed class's note names its source: the closed form, or the counter by the
name ``wordgrid.reading_counter`` gives, from the rule the counter branches
on.  For every word the counter runs once, on the table the search reads, and
is the search's only budget check.

The per-family decisions live here as well, each in one function that every
command calls: ``letter_grid`` builds a word problem's table, whose size
``table_size`` reads off the spec, ``enumerate_witnesses`` returns the
family's witness stream under the oracle budget (a word problem's in the table
its caller passes, else in one it builds), and ``class_counts`` answers
``count`` and ``explain``: the registered closed form's per-class counts, else
the reading counter's, so neither command lists a witness; it refuses a
listing of more classes than the budget.  ``class_total`` sums a problem's
listing, from the power sums for squares.  ``counted_witnesses`` gives
``verify`` and ``enumerate`` the stream and the class counts together, with a
word's reading counter run once, so ``enumerate --limit`` reads how many
witnesses it left out off the count instead of drawing them.

``build_step_trace`` emits the same facts as a four-step decomposition:
what is being counted, under which constraints, how the witnesses split into
classes, and how the class counts recombine into the total.  A class's text
is kept once, as ``%`` templates (``CLASS_LABELS`` for the label, one step
iii note per family) and columns of ints to fill them with, so a listing of
any length is written without a function call per class.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import itemgetter, mul

from .budget import DEFAULT_ORACLE_BUDGET, OracleBudgetError
from .geometry import LatticeGrid
from .speclang import ProblemSpec
from .squares import (
    _square_totals,
    count_all_squares,
    count_axis_squares,
    square_keys,
    tally_square_keys,
)
from .wordgrid import (
    LetterGrid,
    count_word_paths_closed,
    generate_manhattan_rings,
    reading_counter,
    readings_per_end_cell,
    word_readings,
)

# Test-only hook: additive offsets on registered closed-form totals, keyed by
# family ("squares-axis", "squares-all", "word-side").  There is deliberately
# no command-line surface for this; tests monkeypatch it to exercise the FAIL
# path and the harness's sensitivity.
_FAULT_OFFSETS: dict[str, int] = {}


@dataclass(frozen=True)
class PartitionRow:
    """Expected (closed-form) versus observed (enumerated) size of one class."""

    label: str
    expected: int | None
    observed: int


@dataclass(frozen=True)
class VerifyReport:
    problem: ProblemSpec
    closed_form_total: int | None
    oracle_total: int
    verdict: str  # "PASS" | "FAIL"
    partition_rows: tuple[PartitionRow, ...]
    duplicate_witnesses: int
    notes: tuple[str, ...]


class Rows:
    """One row per class of ``classes``, built by ``rows()`` each time the rows are read.

    Rows compare equal to a tuple of the same rows.
    """

    def __init__(self, classes: Mapping, rows: Callable[[], Iterator[tuple]]):
        self._classes, self._rows = classes, rows

    def __iter__(self) -> Iterator[tuple]:
        return self._rows()

    def __len__(self) -> int:
        return len(self._classes)

    def __eq__(self, other):
        if isinstance(other, (tuple, Rows)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class StepTrace:
    """The four-step decomposition of one counting problem, as data.

    ``classes`` is the problem's ``class_counts``.  A class's text fills two
    ``%`` templates, the kind's ``label`` and the family's step iii ``note``,
    with ints: ``fields()`` gives their columns in class order, the label's
    ``split`` columns first.  An int needs no JSON escaping.  Step iii's
    ``(label, note)`` rows and step iv's ``(label, count)`` rows are filled
    each time they are read.
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

    def class_fields(self) -> Iterator[tuple[int, ...]]:
        """Each class's label fields, then its note's: ``label + note`` fills one."""
        return zip(*self.fields())

    @property
    def step_iii(self) -> Rows:
        label, note, split = self.label, self.note, self.split
        return Rows(self.classes, lambda: (
            (label % row[:split], note % row[split:]) for row in self.class_fields()))

    @property
    def step_iv_classes(self) -> Rows:
        return Rows(self.classes, lambda: zip(
            map(self.label.__mod__, zip(*self.fields()[:self.split])), self.classes.values()))


def has_registered_closed_form(spec: ProblemSpec) -> bool:
    """Whether a closed form is registered for this problem.

    Both square variants have one.  The word closed form requires the
    manhattan-rings layout with side adjacency and pairwise-distinct symbols;
    with distinct symbols a reading can never revisit a cell, so the
    distinct-cells flag is inert there.  Everything else is oracle-only.
    """
    if spec.kind == "squares":
        return True
    return (
        spec.layout == "manhattan-rings"
        and spec.adjacency == "side"
        and len(set(spec.word)) == len(spec.word)
    )


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


def enumerate_witnesses(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET,
                        table: LetterGrid | None = None):
    """Every witness in canonical order, as a stream refused before its first
    witness if over the oracle budget: square keys, or a word problem's readings
    in ``table``, its letter table, built here if not given."""
    if spec.kind == "squares":
        return square_keys(LatticeGrid(spec.cols, spec.rows), spec.variant == "all", budget)
    if table is None:
        table = letter_grid(spec, budget)
    return word_readings(table, spec.word, spec.adjacency, spec.distinct_cells,
                         max_visits=budget)


def counted_witnesses(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET,
                      table: LetterGrid | None = None):
    """``enumerate_witnesses(spec, budget, table)``, refused as it is, and the
    problem's ``class_counts``.  A word without a closed form runs its reading
    counter once, as the count and as the search's budget check."""
    if has_registered_closed_form(spec):
        return enumerate_witnesses(spec, budget, table), class_counts(spec, budget)
    if table is None:
        table = letter_grid(spec, budget)
    classes = class_counts(spec, budget, table)
    return enumerate_witnesses(spec, None, table), classes


# How a class prints, per kind: a ``%`` template filled with the class key's
# fields, a square class's size k or a reading's end cell (x, y).
CLASS_LABELS = {"squares": "k=%d", "word-paths": "(%d,%d)"}


def class_label(key) -> str:
    """How a class key prints: ``k=3`` or ``(x,y)``."""
    return CLASS_LABELS["squares" if isinstance(key, int) else "word-paths"] % key


def label_columns(spec: ProblemSpec, classes: Mapping) -> tuple[Iterable[int], ...]:
    """The fields of every class's label, one column per field of the kind's
    ``CLASS_LABELS`` template, in class order, read off the class keys."""
    if spec.kind == "squares":
        return (classes,)
    return map(itemgetter(0), classes), map(itemgetter(1), classes)


def _tally_readings(readings: Iterable[tuple]) -> tuple[dict, bool]:
    """Readings (cell tuples) per end cell, in (x, y) order, and whether each
    reading is greater than the one before (then none is a duplicate), in one pass."""
    sizes: Counter = Counter()
    last, ordered = (), True
    for cells in readings:
        ordered = ordered and last < cells
        last = cells
        sizes[cells[-1]] += 1
    return dict(sorted(sizes.items())), ordered


def class_counts(spec: ProblemSpec, budget: int | None = DEFAULT_ORACLE_BUDGET,
                 table: LetterGrid | None = None) -> Mapping:
    """Count per class: the closed form, else the reading counter; nothing is enumerated.

    The counter (``reading_counter`` names it) runs under the search's visit
    budget, in ``table``, a word problem's letter table, built here if not given.

    A listing of more classes than ``budget`` is refused before it is written.
    """
    if not has_registered_closed_form(spec):
        if table is None:
            table = letter_grid(spec, budget)
        classes = readings_per_end_cell(table, spec.word, spec.adjacency,
                                        distinct_cells=spec.distinct_cells, max_visits=budget)
    elif spec.kind == "word-paths":
        classes = count_word_paths_closed(spec.word).per_class
    elif spec.variant == "axis":
        classes = count_axis_squares(spec.cols, spec.rows).per_k
    else:
        classes = count_all_squares(spec.cols, spec.rows).per_k
    listed = classes.size if spec.kind == "squares" else len(classes)
    if budget is not None and listed > budget:
        raise OracleBudgetError(f"oracle budget exceeded: listing of {listed} classes > {budget}")
    return classes


def class_total(spec: ProblemSpec, classes: Mapping) -> int:
    """The sum of the problem's ``classes``; for squares, the power sums in closed form."""
    if spec.kind == "squares":
        return _square_totals(spec.cols, spec.rows)[spec.variant == "all"]
    return sum(classes.values())


def verify_problem(
    spec: ProblemSpec, *, oracle_budget: int | None = DEFAULT_ORACLE_BUDGET
) -> VerifyReport:
    """Enumerate, count the classes, and compare with the closed form where one
    exists, else with the reading counter."""
    # One stream, refused before its first witness if over budget, and the count
    # per class: the closed form, else the reading counter, which then is also
    # the search's budget check and the second oracle.
    witnesses, counted = counted_witnesses(spec, oracle_budget)
    closed = has_registered_closed_form(spec)
    if spec.kind == "squares":
        # Keys, not squares: one pass marks each key's rank.
        observed, duplicates = tally_square_keys(witnesses, spec.cols, spec.rows,
                                                 spec.variant == "all")
    else:
        observed, ordered = _tally_readings(witnesses)
        # Only a faulty enumeration breaks the order; it is read again into a set.
        duplicates = 0 if ordered else (
            sum(observed.values()) - len(set(enumerate_witnesses(spec, None))))
    oracle_total = sum(observed.values())

    # Every failed check adds one note, so the verdict is read off the notes.
    notes = [f"{duplicates} duplicate witnesses in the enumeration"] if duplicates else []
    # A closed form lacking a class reads None; the counter leaves out only zeros.
    source, missing = (("closed form", None) if closed
                       else (reading_counter(spec.word, spec.distinct_cells), 0))
    rows = []
    for key in sorted(counted.keys() | observed.keys()):
        label, expected, seen = class_label(key), counted.get(key, missing), observed.get(key, 0)
        rows.append(PartitionRow(label, expected if closed else None, seen))
        if expected != seen:
            notes.append(f"class {label}: {source} {expected} != oracle {seen}")
    closed_total = None
    if closed:
        family = "word-side" if spec.kind == "word-paths" else f"squares-{spec.variant}"
        closed_total = class_total(spec, counted) + _FAULT_OFFSETS.get(family, 0)
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
    classes = class_counts(spec, oracle_budget)
    if spec.kind == "squares":
        rule, steps = "addition", _squares_steps
    elif has_registered_closed_form(spec):
        rule, steps = "product", _word_steps_closed
    else:
        rule, steps = "enumeration-only", _word_steps_enumerated
    step_i, step_ii, note, note_columns = steps(spec, classes)
    return StepTrace(
        problem=spec.name,
        step_i=step_i,
        step_ii=step_ii,
        label=CLASS_LABELS[spec.kind],
        note=note,
        fields=lambda: label_columns(spec, classes) + note_columns(),
        split=len(label_columns(spec, classes)),
        step_iv_rule=rule,
        step_iv_total=class_total(spec, classes),
        classes=classes,
    )


# Each family's steps, given its classes: step i, step ii, and step iii's note,
# a ``%`` template, with the function that gives the note's columns.


def _squares_steps(spec: ProblemSpec, classes):
    cols, rows = spec.cols, spec.rows
    slots, rails = classes.margins()
    if spec.variant == "axis":
        step_i = f"axis-aligned squares drawn on a {cols}x{rows} grid of points"
        step_ii = (
            "all four vertices are grid points",
            "sides are parallel to the coordinate axes",
        )
        return (step_i, step_ii, "%d rail pairs at distance %d, %d squares per pair",
                lambda: (rails, classes, slots))
    step_i = f"squares of any tilt drawn on a {cols}x{rows} grid of points"
    step_ii = ("all four vertices are grid points",)
    return (step_i, step_ii, "%d tilt offsets per box, %d box positions",
            lambda: (classes, map(mul, slots, rails)))


def _word_steps_closed(spec: ProblemSpec, classes):
    length = len(spec.word)
    half = (length - 1) // 2
    step_i = f"readings of {spec.word!r} in the {length}x{length} manhattan-rings letter grid"
    step_ii = (_ADJACENCY_TEXT["side"], f"the visited cells spell {spec.word!r} in order")
    if length == 1:
        return step_i, step_ii, "the single cell holding the whole word", lambda: ()
    note = (f"readings ending at corner {CLASS_LABELS['word-paths']}: "
            f"{half} vertical and {half} horizontal moves interleaved")
    return step_i, step_ii, note, lambda: label_columns(spec, classes)


def _word_steps_enumerated(spec: ProblemSpec, classes):
    size = "{}x{}".format(*table_size(spec, None))
    rings = spec.layout == "manhattan-rings"
    layout = f"the {size} manhattan-rings letter grid" if rings else f"a {size} letter grid"
    step_ii = [_ADJACENCY_TEXT[spec.adjacency], f"the visited cells spell {spec.word!r} in order"]
    if spec.distinct_cells:
        step_ii.append("no cell is visited twice")
    return (f"readings of {spec.word!r} in {layout}", tuple(step_ii),
            f"readings ending at cell {CLASS_LABELS['word-paths']}",
            lambda: label_columns(spec, classes))

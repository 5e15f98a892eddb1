"""The result records: built by keyword, compared and hashed by value within
their class, frozen, and shown as ``Name(field=value, ...)``."""

import copy
import pickle

import pytest

from configcount import (
    CountReport,
    LatticeGrid,
    LatticePoint,
    LetterGrid,
    MoveWord,
    MultisetSpec,
    PartitionRow,
    PathWitness,
    ProblemSpec,
    RailReport,
    SizeClassBreakdown,
    Square,
    StepTrace,
    VerifyReport,
)

SPEC = ProblemSpec("p", "squares", cols=3, rows=3, variant="axis")

# (class, fields by keyword, repr, hashable): every record, with its fields in
# declaration order.  A record holding a dict cannot be hashed.
RECORDS = [
    (MultisetSpec, {"n": 3, "parts": (1, 2)}, "MultisetSpec(n=3, parts=(1, 2))", True),
    (MoveWord, {"ups": 2, "rights": 1}, "MoveWord(ups=2, rights=1)", True),
    (LatticePoint, {"x": 1, "y": 2}, "LatticePoint(x=1, y=2)", True),
    (LatticeGrid, {"cols": 3, "rows": 4}, "LatticeGrid(cols=3, rows=4)", True),
    (Square, {"anchor": LatticePoint(0, 1), "k": 2, "a": 1},
     "Square(anchor=LatticePoint(x=0, y=1), k=2, a=1)", True),
    (SizeClassBreakdown, {"per_k": {1: 4}, "total": 4},
     "SizeClassBreakdown(per_k={1: 4}, total=4)", False),
    (RailReport, {"k": 1, "rail_pairs": 2, "per_pair": 3, "total": 6},
     "RailReport(k=1, rail_pairs=2, per_pair=3, total=6)", True),
    (LetterGrid, {"lines": ("ab", "ba")}, "LetterGrid(lines=('ab', 'ba'))", True),
    (PathWitness, {"cells": ((0, 0), (1, 0))}, "PathWitness(cells=((0, 0), (1, 0)))", True),
    (CountReport, {"total": 4, "per_class": {(0, 0): 4}},
     "CountReport(total=4, per_class={(0, 0): 4})", False),
    (PartitionRow, {"label": "k=1", "expected": 4, "observed": 4},
     "PartitionRow(label='k=1', expected=4, observed=4)", True),
    (VerifyReport, {"problem": SPEC, "closed_form_total": 5, "oracle_total": 5,
                    "verdict": "PASS", "partition_rows": (PartitionRow("k=1", 4, 4),),
                    "duplicate_witnesses": 0, "notes": ()},
     f"VerifyReport(problem={SPEC!r}, closed_form_total=5, oracle_total=5, verdict='PASS', "
     "partition_rows=(PartitionRow(label='k=1', expected=4, observed=4),), "
     "duplicate_witnesses=0, notes=())", True),
    (StepTrace, {"problem": "p", "step_i": "i", "step_ii": ("ii",), "label": "k=%d",
                 "note": "%d", "fields": tuple, "split": 1, "step_iv_rule": "addition",
                 "step_iv_total": 4, "classes": {1: 4}},
     "StepTrace(problem='p', step_i='i', step_ii=('ii',), label='k=%d', note='%d', "
     "fields=<class 'tuple'>, split=1, step_iv_rule='addition', step_iv_total=4, "
     "classes={1: 4})", False),
    (ProblemSpec, {"name": "w", "kind": "word-paths", "cols": None, "rows": None,
                   "variant": None, "word": "aba", "layout": "explicit",
                   "rows_data": ("ab", "ba"), "adjacency": "side", "distinct_cells": True},
     "ProblemSpec(name='w', kind='word-paths', cols=None, rows=None, variant=None, "
     "word='aba', layout='explicit', rows_data=('ab', 'ba'), adjacency='side', "
     "distinct_cells=True)", True),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_a_record_is_built_by_keyword_and_shown_by_field(cls, fields, text, hashable):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_a_record_equals_only_its_own_class_with_equal_fields(cls, fields, text, hashable):
    record = cls(**fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != tuple(fields.values())
    assert record != object()
    for other_cls, other_fields, *_ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)
    if hashable:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_a_record_is_frozen(cls, fields, text, hashable):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_a_record_survives_copy_and_pickle(cls, fields, text, hashable):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record
        assert twin.__class__ is cls


def test_records_differing_in_one_field_are_unequal():
    assert LatticePoint(1, 2) != LatticePoint(2, 1)
    assert PartitionRow("k=1", None, 4) != PartitionRow("k=1", 4, 4)
    assert Square(LatticePoint(0, 0), 2, 0) != Square(LatticePoint(0, 0), 2, 1)


def test_a_problem_spec_defaults_every_field_past_its_kind():
    assert ProblemSpec("p", "squares") == ProblemSpec("p", "squares", None, None, None, None,
                                                      None, None, None, False)
    assert repr(SPEC) == ("ProblemSpec(name='p', kind='squares', cols=3, rows=3, variant='axis', "
                          "word=None, layout=None, rows_data=None, adjacency=None, "
                          "distinct_cells=False)")
    assert hash(SPEC) == hash(ProblemSpec("p", "squares", cols=3, rows=3, variant="axis"))
    assert SPEC != ProblemSpec("p", "squares", cols=3, rows=3, variant="all")


def test_lattice_points_order_by_x_then_y_and_only_among_themselves():
    points = [LatticePoint(2, 1), LatticePoint(1, 2), LatticePoint(1, 1), LatticePoint(0, 5)]
    assert sorted(points) == [LatticePoint(0, 5), LatticePoint(1, 1), LatticePoint(1, 2),
                              LatticePoint(2, 1)]
    a, b = LatticePoint(1, 1), LatticePoint(1, 2)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert (a < a, a <= a, a > a, a >= a) == (False, True, False, True)
    with pytest.raises(TypeError):
        LatticePoint(1, 2) < (1, 3)


def test_other_records_have_no_order():
    report = VerifyReport(SPEC, 5, 5, "PASS", (), 0, ())
    with pytest.raises(TypeError):
        report < report
    with pytest.raises(TypeError):
        PartitionRow("k=1", 4, 4) <= PartitionRow("k=2", 4, 4)
    with pytest.raises(TypeError):
        LatticeGrid(1, 1) > LatticeGrid(2, 2)
    with pytest.raises(TypeError):
        SPEC < SPEC


def test_small_records_keep_no_instance_dict():
    for record in (LatticePoint(1, 2), Square(LatticePoint(0, 0), 1, 0), PathWitness(((0, 0),))):
        assert not hasattr(record, "__dict__")


def test_a_letter_grid_caches_its_cells_by_symbol():
    grid = LetterGrid(("ab", "ba"))
    assert grid.cells_by_symbol is grid.cells_by_symbol
    assert grid.cells_by_symbol == {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]}


@pytest.mark.parametrize("build, message", [
    (lambda: MoveWord(-1, 0), "move counts must be non-negative"),
    (lambda: MoveWord(ups=0, rights=-2), "move counts must be non-negative"),
    (lambda: LatticeGrid(0, 1), "grid needs at least one point column and row"),
    (lambda: LatticeGrid(cols=1, rows=0), "grid needs at least one point column and row"),
    (lambda: Square(LatticePoint(0, 0), 0, 0), "square size k must be positive"),
    (lambda: Square(LatticePoint(0, 0), 2, 2), "tilt offset a must satisfy 0 <= a < k"),
    (lambda: Square(anchor=LatticePoint(0, 0), k=2, a=-1),
     "tilt offset a must satisfy 0 <= a < k"),
    (lambda: LetterGrid(()), "rows must be non-empty"),
    (lambda: LetterGrid(("ab", "")), "rows must be non-empty"),
    (lambda: LetterGrid(lines=("ab", "a")), "rows must all have the same length"),
])
def test_records_refuse_bad_fields_with_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message

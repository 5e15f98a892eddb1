"""The verify harness: totals, class counts, distinctness, traces, fault injection."""

import random
from collections import Counter
from functools import cached_property
from itertools import islice

import pytest

import configcount.verify as verify_mod
from configcount import wordgrid
from configcount.budget import OracleBudgetError
from configcount.render import render_problem
from configcount.speclang import ProblemSpec, parse_spec
from configcount.squares import _square_totals
from configcount.verify import (
    FAMILIES,
    PartitionRow,
    VerifyReport,
    build_step_trace,
    class_counts,
    counted_witnesses,
    family_of,
    has_registered_closed_form,
    verify_problem,
)

from conftest import REPO_ROOT, SAMPLES, perturb_first_class, perturb_total

GOLDEN = REPO_ROOT / "tests" / "data" / "golden"

AXIS5 = ProblemSpec("axis5", "squares", cols=5, rows=5, variant="axis")
ALL5 = ProblemSpec("all5", "squares", cols=5, rows=5, variant="all")
OPEN_SIDE = ProblemSpec("open", "word-paths", word="Open!", layout="manhattan-rings",
                        adjacency="side")
OPEN_FREE = ProblemSpec("open-free", "word-paths", word="Open!", layout="manhattan-rings",
                        adjacency="none")


def _sweep_specs():
    specs = []
    for cols in range(1, 9):
        for rows in range(1, 9):
            for variant in ("axis", "all"):
                specs.append(ProblemSpec(f"g{cols}x{rows}{variant[0]}", "squares",
                                         cols=cols, rows=rows, variant=variant))
    for word in ("a", "abc", "abcde", "abcdefg"):
        for adjacency in ("side", "king", "none"):
            specs.append(ProblemSpec(f"w{len(word)}{adjacency}", "word-paths", word=word,
                                     layout="manhattan-rings", adjacency=adjacency))
    return specs


def test_axis_five_by_five_passes_with_matching_partition():
    report = verify_problem(AXIS5)
    assert report.verdict == "PASS"
    assert report.closed_form_total == 30
    assert report.oracle_total == 30
    assert {(r.label, r.expected, r.observed) for r in report.partition_rows} == {
        ("k=1", 16, 16), ("k=2", 9, 9), ("k=3", 4, 4), ("k=4", 1, 1),
    }
    assert report.duplicate_witnesses == 0
    assert report.notes == ()


def test_open_side_passes_with_four_corner_classes():
    report = verify_problem(OPEN_SIDE)
    assert report.verdict == "PASS"
    assert report.closed_form_total == report.oracle_total == 24
    assert all(r.expected == r.observed == 6 for r in report.partition_rows)
    assert len(report.partition_rows) == 4


def test_oracle_only_problem_verifies_without_closed_form():
    report = verify_problem(OPEN_FREE)
    assert report.verdict == "PASS"
    assert report.closed_form_total is None
    assert report.oracle_total == 1024
    assert [r.observed for r in report.partition_rows] == [256, 256, 256, 256]
    assert all(r.expected is None for r in report.partition_rows)


def test_explicit_layout_problem_verifies():
    spec = ProblemSpec("e", "word-paths", word="ab", layout="explicit",
                       rows_data=("ab", "ba"), adjacency="side")
    report = verify_problem(spec)
    assert report.verdict == "PASS"
    assert report.closed_form_total is None
    # "ab" read from either 'a' corner towards either adjacent 'b'
    assert report.oracle_total == 4
    assert report.oracle_total == sum(r.observed for r in report.partition_rows)


def test_closed_form_registration():
    assert has_registered_closed_form(AXIS5)
    assert has_registered_closed_form(ALL5)
    assert has_registered_closed_form(OPEN_SIDE)
    assert not has_registered_closed_form(OPEN_FREE)
    # repeated symbols break the outward-walk argument, so no closed form
    repeated = ProblemSpec("r", "word-paths", word="aba", layout="manhattan-rings",
                           adjacency="side")
    assert not has_registered_closed_form(repeated)
    assert verify_problem(repeated).closed_form_total is None
    # distinct symbols make revisits impossible, so the flag does not matter
    flagged = ProblemSpec("d", "word-paths", word="abc", layout="manhattan-rings",
                          adjacency="side", distinct_cells=True)
    assert has_registered_closed_form(flagged)
    report = verify_problem(flagged)
    assert report.verdict == "PASS"
    assert report.closed_form_total == report.oracle_total == 8


def test_each_problem_resolves_to_its_family():
    families = {
        "squares5": "squares-axis", "squares5-all": "squares-all", "open-side": "word-side",
        "open-free": "word-counter", "open-king": "word-counter",
        "tiny": "squares-axis", "strip-all": "squares-all", "table-side": "word-counter",
        "table-king-distinct": "word-counter", "rings-repeat": "word-counter",
        "single": "word-side", "single-table": "word-counter", "glyphs": "word-side",
    }
    specs = [spec for path in (SAMPLES, GOLDEN / "branches.ccspec")
             for spec in parse_spec(path.read_text(encoding="utf-8"))]
    assert {spec.name: family_of(spec).name for spec in specs} == families
    # distinct symbols make the flag inert; a repeated symbol leaves only the counter
    for word, distinct, family in (("abc", True, "word-side"), ("aba", False, "word-counter"),
                                   ("aba", True, "word-counter")):
        spec = ProblemSpec("w", "word-paths", word=word, layout="manhattan-rings",
                           adjacency="side", distinct_cells=distinct)
        assert family_of(spec).name == family, (word, distinct)


def test_injected_fault_fails_with_discrepancy_note(monkeypatch):
    perturb_total(monkeypatch, "squares-axis", -1)
    report = verify_problem(AXIS5)
    assert report.verdict == "FAIL"
    assert report.closed_form_total == 29
    assert any("closed-form total 29 != oracle total 30" in n for n in report.notes)
    # class rows themselves still match; only the total was perturbed
    assert all(r.expected == r.observed for r in report.partition_rows)


@pytest.mark.parametrize(("spec", "notes"), [
    (AXIS5, ("class k=1: closed form 17 != oracle 16",)),
    (ALL5, ("class k=1: closed form 17 != oracle 16",)),
    # a word total is the sum of its classes; a square total comes from power sums
    (ProblemSpec("abcde", "word-paths", word="abcde", layout="manhattan-rings",
                 adjacency="side"),
     ("class (0,0): closed form 7 != oracle 6", "closed-form total 25 != oracle total 24")),
], ids=["squares-axis", "squares-all", "word-side"])
def test_injected_class_fault_fails_with_class_note(monkeypatch, spec, notes):
    perturb_first_class(monkeypatch, family_of(spec).name, 1)
    report = verify_problem(spec)
    assert (report.verdict, report.notes) == ("FAIL", notes)


def test_desk_scale_sweep_all_pass():
    for spec in _sweep_specs():
        assert verify_problem(spec).verdict == "PASS", spec.name


@pytest.mark.parametrize("family", [f.name for f in FAMILIES.values() if f.closed])
@pytest.mark.parametrize("delta", [1, -1])
def test_any_fault_flips_some_sweep_instance(monkeypatch, family, delta):
    for perturb in (perturb_total, perturb_first_class):
        with monkeypatch.context() as patched:
            perturb(patched, family, delta)
            assert any(verify_problem(spec).verdict == "FAIL" for spec in _sweep_specs()), perturb.__name__


def test_budget_exceeded_is_an_error_not_a_pass():
    huge = ProblemSpec("huge", "squares", cols=4000, rows=4000, variant="all")
    with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
        verify_problem(huge)
    with pytest.raises(OracleBudgetError):
        verify_problem(OPEN_FREE, oracle_budget=10)


# ---------------------------------------------------------------------------
# faulty enumerations: one witness duplicated or dropped before verify sees it


def _duplicate_first(witnesses):
    return witnesses + [witnesses[0]]


def _drop_first(witnesses):
    return witnesses[1:]


def _faulted(spec, stream, fault):
    """``fault`` applied to the listed keys or readings of ``stream``, given back
    in the stream's shape: a square key as a (k, a) block of one anchor."""
    witnesses = fault(list(family_of(spec).keys(stream)))
    if spec.kind == "squares":
        return [(k, a, range(y, y + 1), range(x, x + 1)) for k, a, y, x in witnesses]
    return witnesses


def _with_faulty_enumeration(monkeypatch, fault):
    # Every enumeration verify_problem reads goes through verify.counted_witnesses;
    # its witnesses are listed so the fault can index them.
    real = verify_mod.counted_witnesses

    def counted(spec, *args):
        stream, classes = real(spec, *args)
        return _faulted(spec, stream, fault), classes

    monkeypatch.setattr(verify_mod, "counted_witnesses", counted)


def _rows(*rows):
    return tuple(PartitionRow(*row) for row in rows)


def test_duplicated_witness_fails_closed_form_problem(monkeypatch):
    _with_faulty_enumeration(monkeypatch, _duplicate_first)
    assert verify_problem(AXIS5) == VerifyReport(
        problem=AXIS5,
        closed_form_total=30,
        oracle_total=31,
        verdict="FAIL",
        partition_rows=_rows(("k=1", 16, 17), ("k=2", 9, 9), ("k=3", 4, 4), ("k=4", 1, 1)),
        duplicate_witnesses=1,
        notes=(
            "1 duplicate witnesses in the enumeration",
            "class k=1: closed form 16 != oracle 17",
            "closed-form total 30 != oracle total 31",
        ),
    )


def test_dropped_witness_fails_closed_form_problem(monkeypatch):
    _with_faulty_enumeration(monkeypatch, _drop_first)
    assert verify_problem(AXIS5) == VerifyReport(
        problem=AXIS5,
        closed_form_total=30,
        oracle_total=29,
        verdict="FAIL",
        partition_rows=_rows(("k=1", 16, 15), ("k=2", 9, 9), ("k=3", 4, 4), ("k=4", 1, 1)),
        duplicate_witnesses=0,
        notes=(
            "class k=1: closed form 16 != oracle 15",
            "closed-form total 30 != oracle total 29",
        ),
    )


def test_duplicated_witness_fails_enumeration_only_problem(monkeypatch):
    _with_faulty_enumeration(monkeypatch, _duplicate_first)
    assert verify_problem(OPEN_FREE) == VerifyReport(
        problem=OPEN_FREE,
        closed_form_total=None,
        oracle_total=1025,
        verdict="FAIL",
        partition_rows=_rows(("(0,0)", None, 257), ("(0,4)", None, 256),
                             ("(4,0)", None, 256), ("(4,4)", None, 256)),
        duplicate_witnesses=1,
        notes=("1 duplicate witnesses in the enumeration",
               "class (0,0): transfer matrix 256 != oracle 257"),
    )


def test_dropped_witness_fails_enumeration_only_problem(monkeypatch):
    # With no closed form, the transfer matrix's class sizes are the second
    # oracle, so a lost witness shows in its class.
    _with_faulty_enumeration(monkeypatch, _drop_first)
    assert verify_problem(OPEN_FREE) == VerifyReport(
        problem=OPEN_FREE,
        closed_form_total=None,
        oracle_total=1023,
        verdict="FAIL",
        partition_rows=_rows(("(0,0)", None, 255), ("(0,4)", None, 256),
                             ("(4,0)", None, 256), ("(4,4)", None, 256)),
        duplicate_witnesses=0,
        notes=("class (0,0): transfer matrix 256 != oracle 255",),
    )


KING_AVOIDING = ProblemSpec("k", "word-paths", word="aaa", layout="explicit",
                            rows_data=("aa", "aa"), adjacency="king", distinct_cells=True)
# Self-avoiding too, but no symbol recurs, so no reading can revisit a cell and
# the transfer matrix counts the readings.
KING_DISTINCT = ProblemSpec("d", "word-paths", word="abc", layout="explicit",
                            rows_data=("abc", "cba"), adjacency="king", distinct_cells=True)
# Two readings, one per class: dropping the first empties class (0,1).
SIDE_PAIR = ProblemSpec("p", "word-paths", word="ab", layout="explicit",
                        rows_data=("ab", "bb"), adjacency="side", distinct_cells=True)


@pytest.mark.parametrize("spec, oracle_total, rows, note", [
    (KING_AVOIDING, 23, (("(0,0)", None, 6), ("(0,1)", None, 6), ("(1,0)", None, 5),
                         ("(1,1)", None, 6)),
     "class (1,0): visited-set DP 6 != oracle 5"),
    (KING_DISTINCT, 7, (("(0,1)", None, 3), ("(2,0)", None, 4)),
     "class (0,1): transfer matrix 4 != oracle 3"),
    (SIDE_PAIR, 1, (("(0,1)", None, 0), ("(1,0)", None, 1)),
     "class (0,1): transfer matrix 1 != oracle 0"),
], ids=["repeated-symbol", "distinct-symbols", "emptied-class"])
def test_dropped_witness_fails_self_avoiding_problem(monkeypatch, spec, oracle_total, rows, note):
    # For readings that keep to distinct cells the reading counter is the second
    # oracle; a duplicate check alone would pass this enumeration.  The note
    # names the counter that ran, and a class the enumeration lost entirely
    # still gets its row.
    _with_faulty_enumeration(monkeypatch, _drop_first)
    assert verify_problem(spec) == VerifyReport(
        problem=spec,
        closed_form_total=None,
        oracle_total=oracle_total,
        verdict="FAIL",
        partition_rows=_rows(*rows),
        duplicate_witnesses=0,
        notes=(note,),
    )


def test_duplicated_witness_fails_self_avoiding_problem(monkeypatch):
    _with_faulty_enumeration(monkeypatch, _duplicate_first)
    report = verify_problem(KING_AVOIDING)
    assert (report.verdict, report.oracle_total, report.duplicate_witnesses) == ("FAIL", 25, 1)
    assert report.notes == ("1 duplicate witnesses in the enumeration",
                            "class (1,0): visited-set DP 6 != oracle 7")


def test_keys_outside_the_grid_count_in_their_class_not_as_duplicates(monkeypatch):
    # An in-class key past the last anchor, and one whose x runs past cols-k:
    # each is a witness of its class k, and neither repeats an earlier key.
    _with_faulty_enumeration(monkeypatch, lambda keys: keys + [(4, 0, 0, 1), (1, 0, 0, 4)])
    report = verify_problem(AXIS5)
    assert (report.verdict, report.duplicate_witnesses) == ("FAIL", 0)
    assert report.notes == ("class k=1: closed form 16 != oracle 17",
                            "class k=4: closed form 1 != oracle 2",
                            "closed-form total 30 != oracle total 32")


@pytest.mark.parametrize("fault", [
    lambda ws: ws[1:] + ws[:1],
    lambda ws: ws[:3] + ws[2:],
    lambda ws: ws + ws[-1:],
    lambda ws: ws[::-1] + ws[:1] + ws[5:6],
], ids=["rotated", "middle-copy", "last-copy", "reversed-with-copies"])
def test_reading_duplicates_are_counted_exactly_in_any_order(monkeypatch, fault):
    # An ordered stream needs no set; any other order is read again into one.
    # The fault is computed once, so both passes read the same stream.
    faulted = []
    _with_faulty_enumeration(monkeypatch, lambda ws: faulted or faulted.extend(fault(ws))
                             or faulted)
    report = verify_problem(KING_AVOIDING)
    assert report.duplicate_witnesses == len(faulted) - len(set(faulted))
    assert report.oracle_total == len(faulted)


@pytest.mark.parametrize("spec, fault, passes", [
    (OPEN_SIDE, None, 1),
    (OPEN_FREE, None, 1),
    (KING_AVOIDING, None, 1),
    (KING_AVOIDING, _drop_first, 1),
    (KING_AVOIDING, _duplicate_first, 2),
    (AXIS5, None, 1),
    (AXIS5, _duplicate_first, 2),
], ids=["closed-form", "transfer-matrix", "visited-set-dp", "dropped", "out-of-order",
        "squares", "squares-out-of-order"])
def test_only_a_stream_out_of_order_is_enumerated_twice(monkeypatch, spec, fault, passes):
    # A clean enumeration is one stream, read once; a stream that keeps the
    # order has no duplicate, and only one that breaks it is read again.
    streams = []
    real = verify_mod.counted_witnesses

    def spy(spec, *args):
        stream, classes = real(spec, *args)
        streams.append(iter(stream) is stream)
        return stream if fault is None else _faulted(spec, stream, fault), classes

    monkeypatch.setattr(verify_mod, "counted_witnesses", spy)
    report = verify_problem(spec)
    assert streams == [True] * passes
    assert report.verdict == ("PASS" if fault is None else "FAIL")


def _list_reference(spec, witnesses):
    # Class sizes and duplicates of a listed enumeration, the way verify read
    # squares before it streamed their keys.
    label = family_of(spec).label
    classes = {label % k: n for k, n in Counter(key[0] for key in witnesses).items()}
    return classes, len(witnesses) - len(set(witnesses))


def _observed(report):
    return {row.label: row.observed for row in report.partition_rows if row.observed}


@pytest.mark.parametrize("variant", ["axis", "all"])
def test_streamed_squares_match_a_list_reference(variant):
    for cols in range(1, 13):
        for rows in range(1, 13):
            spec = ProblemSpec("g", "squares", cols=cols, rows=rows, variant=variant)
            witnesses = list(family_of(spec).keys(counted_witnesses(spec)[0]))
            report = verify_problem(spec)
            assert ((_observed(report), report.duplicate_witnesses)
                    == _list_reference(spec, witnesses))
            assert report.oracle_total == len(witnesses)
            assert report.verdict == "PASS", spec


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("spec", [AXIS5, ProblemSpec("g", "squares", cols=9, rows=7,
                                                     variant="all")], ids=["axis5", "all9x7"])
def test_duplicates_anywhere_in_the_stream_are_counted_exactly(monkeypatch, spec, seed):
    rng = random.Random(seed)
    faulted = []

    def insert_copies(keys):
        # Copies of random keys, and two more of one key, each at any position,
        # drawn once, so both passes over an unordered stream read the same keys.
        if faulted:
            return faulted
        copies = [rng.choice(keys) for _ in range(rng.randint(1, 6))]
        copies += [rng.choice(keys)] * 2
        for key in copies:
            keys.insert(rng.randrange(len(keys) + 1), key)
        faulted[:] = keys
        return keys

    _with_faulty_enumeration(monkeypatch, insert_copies)
    report = verify_problem(spec)
    sizes = Counter(key[0] for key in faulted)
    assert _observed(report) == {family_of(spec).label % k: n for k, n in sizes.items()}
    assert report.duplicate_witnesses == len(faulted) - len(set(faulted)) > 0
    assert report.oracle_total == len(faulted)
    assert report.verdict == "FAIL"


def test_explain_builds_the_letter_table_once(monkeypatch):
    calls = []
    real = verify_mod.generate_manhattan_rings
    monkeypatch.setattr(verify_mod, "generate_manhattan_rings",
                        lambda word: calls.append(word) or real(word))
    repeated = ProblemSpec("r", "word-paths", word="abcba", layout="manhattan-rings",
                           adjacency="king")
    assert build_step_trace(repeated).step_i == (
        "readings of 'abcba' in the 5x5 manhattan-rings letter grid")
    assert calls == ["abcba"]
    table = ProblemSpec("t", "word-paths", word="aba", layout="explicit",
                        rows_data=("abb", "bab"), adjacency="side")
    assert build_step_trace(table).step_i == "readings of 'aba' in a 3x2 letter grid"


@pytest.mark.parametrize("highlight", [None, ("witness", 0), ("witness", 23)])
def test_render_builds_the_letter_table_once(monkeypatch, highlight):
    # A witness highlight is enumerated in the table the figure draws.
    calls = []
    real = verify_mod.generate_manhattan_rings
    monkeypatch.setattr(verify_mod, "generate_manhattan_rings",
                        lambda word: calls.append(word) or real(word))
    render_problem(OPEN_SIDE, highlight=highlight)
    assert calls == ["Open!"]


def test_count_and_explain_build_no_reading(monkeypatch):
    # Every word without a closed form is counted by the transfer matrix or, for
    # self-avoiding readings, the visited-set DP.
    built = []

    class SpyWitness(wordgrid.PathWitness):
        def __init__(self, cells):
            built.append(cells)
            super().__init__(cells)

    monkeypatch.setattr(wordgrid, "PathWitness", SpyWitness)
    table = ProblemSpec("t", "word-paths", word="aba", layout="explicit",
                        rows_data=("ab", "ba"), adjacency="side")
    avoiding = ProblemSpec(**dict(vars(table), name="d", distinct_cells=True))
    rings = ProblemSpec("r", "word-paths", word="abcba", layout="manhattan-rings",
                        adjacency="king", distinct_cells=True)
    specs = (OPEN_FREE, table, avoiding, rings)
    totals = [sum(class_counts(spec).values()) for spec in specs]
    assert [build_step_trace(spec).step_iv_total for spec in specs] == totals
    assert built == []
    assert totals == [len(list(counted_witnesses(spec)[0])) for spec in specs]
    assert totals[2] < totals[1] and totals[3] > 0


@pytest.mark.parametrize("spec", [
    OPEN_FREE,
    ProblemSpec("t", "word-paths", word="aba", layout="explicit", rows_data=("ab", "ba"),
                adjacency="king"),
    KING_AVOIDING,
], ids=["rings", "explicit", "self-avoiding"])
def test_verify_builds_one_table_with_one_transfer_matrix(monkeypatch, spec):
    # The search and the reading counter (transfer matrix or visited-set DP)
    # read the same table, whose symbol index is built once; the counter also
    # serves as the search's budget check.
    work = Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for builder in ("generate_manhattan_rings", "LetterGrid"):
        monkeypatch.setattr(verify_mod, builder, spy("table", getattr(verify_mod, builder)))
    counter = spy("transfer matrix", wordgrid.readings_per_end_cell)
    monkeypatch.setattr(wordgrid, "readings_per_end_cell", counter)
    monkeypatch.setattr(verify_mod, "readings_per_end_cell", counter)
    index = cached_property(spy("cell index", wordgrid.LetterGrid.cells_by_symbol.func))
    index.__set_name__(wordgrid.LetterGrid, "cells_by_symbol")
    monkeypatch.setattr(wordgrid.LetterGrid, "cells_by_symbol", index)
    report = verify_problem(spec)
    assert report.verdict == "PASS"
    assert work == {"table": 1, "transfer matrix": 1, "cell index": 1}


def test_class_listing_over_budget_is_refused():
    seven = ProblemSpec("seven", "squares", cols=7, rows=8, variant="all")
    with pytest.raises(OracleBudgetError, match=r"^oracle budget exceeded: listing of 6 classes > 5$"):
        class_counts(seven, 5)
    assert dict(class_counts(seven, 6)) == {1: 42, 2: 60, 3: 60, 4: 48, 5: 30, 6: 12}
    huge = ProblemSpec("huge", "squares", cols=10**40, rows=10**40, variant="axis")
    with pytest.raises(OracleBudgetError, match=f"listing of {10**40 - 1} classes > 10000000"):
        build_step_trace(huge)


# ---------------------------------------------------------------------------
# step traces


def _step_iii(trace):
    """Step iii's (label, note) rows, filled from the trace's templates."""
    split = trace.split
    return ((trace.label % row[:split], trace.note % row[split:]) for row in zip(*trace.fields()))


def _step_iv_classes(trace):
    """Step iv's (label, count) rows: step iii's labels and the counts in ``classes``."""
    return zip((label for label, _ in _step_iii(trace)), trace.classes.values())


def test_axis_squares_trace():
    trace = build_step_trace(AXIS5)
    assert tuple(_step_iv_classes(trace)) == (("k=1", 16), ("k=2", 9), ("k=3", 4), ("k=4", 1))
    assert trace.step_iv_rule == "addition"
    assert trace.step_iv_total == 30
    assert len(trace.classes) == 4


def test_trace_rows_are_read_off_the_classes():
    side = 10**6
    trace = build_step_trace(ProblemSpec("g", "squares", cols=side, rows=side + 1, variant="all"))
    assert trace.step_iv_total == _square_totals(side, side + 1)[1]
    assert len(trace.classes) == side - 1
    assert list(islice(_step_iii(trace), 2)) == [
        ("k=1", f"1 tilt offsets per box, {(side - 1) * side} box positions"),
        ("k=2", f"2 tilt offsets per box, {(side - 2) * (side - 1)} box positions"),
    ]
    assert list(islice(_step_iv_classes(trace), 1)) == [("k=1", (side - 1) * side)]
    # Nothing is listed or sized up front: with no budget, a grid with more
    # classes than an index can hold still yields its first rows.
    huge = 10**40
    trace = build_step_trace(ProblemSpec("h", "squares", cols=huge, rows=huge + 1, variant="axis"),
                             oracle_budget=None)
    assert next(_step_iii(trace)) == (
        "k=1", f"{huge} rail pairs at distance 1, {huge - 1} squares per pair")
    assert next(_step_iv_classes(trace)) == ("k=1", huge * (huge - 1))


def test_open_reading_trace():
    trace = build_step_trace(OPEN_SIDE)
    assert trace.step_iv_rule == "product"
    assert trace.step_iv_total == 24
    assert list(trace.classes.values()) == [6, 6, 6, 6]


def test_degenerate_single_letter_trace():
    spec = ProblemSpec("x", "word-paths", word="X", layout="manhattan-rings",
                       adjacency="side")
    trace = build_step_trace(spec)
    assert tuple(_step_iv_classes(trace)) == (("(0,0)", 1),)
    assert trace.step_iv_total == 1


def test_oracle_only_trace_is_marked():
    trace = build_step_trace(OPEN_FREE)
    assert trace.step_iv_rule == "enumeration-only"
    assert trace.step_iv_total == 1024


def _recombine(trace):
    sizes = list(trace.classes.values())
    if trace.step_iv_rule == "product":
        assert len(set(sizes)) == 1
        return len(sizes) * sizes[0]
    return sum(sizes)


def test_traces_self_consistent_across_sweep():
    for spec in _sweep_specs():
        trace = build_step_trace(spec)
        assert _recombine(trace) == trace.step_iv_total, spec.name

"""The audit harness: totals, partitions, distinctness, traces, fault injection."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import configcount.verify as verify_mod
from configcount.budget import OracleBudgetError
from configcount.geometry import LatticeGrid, LatticePoint, Square
from configcount.speclang import ProblemSpec
from configcount.squares import enumerate_axis_squares
from configcount.verify import (
    AuditResult,
    audit_partition,
    build_step_trace,
    class_key,
    enumerate_witnesses,
    has_registered_closed_form,
    verify_problem,
)
from configcount.wordgrid import PathWitness

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


def test_injected_fault_fails_with_discrepancy_note(monkeypatch):
    monkeypatch.setattr(verify_mod, "_FAULT_OFFSETS", {"squares-axis": -1})
    report = verify_problem(AXIS5)
    assert report.verdict == "FAIL"
    assert report.closed_form_total == 29
    assert any("closed-form total 29 != oracle total 30" in n for n in report.notes)
    # class rows themselves still match; only the total was perturbed
    assert all(r.expected == r.observed for r in report.partition_rows)


def test_desk_scale_sweep_all_pass():
    for spec in _sweep_specs():
        assert verify_problem(spec).verdict == "PASS", spec.name


@pytest.mark.parametrize("family", ["squares-axis", "squares-all", "word-side"])
@pytest.mark.parametrize("delta", [1, -1])
def test_any_fault_flips_some_sweep_instance(monkeypatch, family, delta):
    monkeypatch.setattr(verify_mod, "_FAULT_OFFSETS", {family: delta})
    assert any(verify_problem(spec).verdict == "FAIL" for spec in _sweep_specs())


def test_budget_exceeded_is_an_error_not_a_pass():
    huge = ProblemSpec("huge", "squares", cols=4000, rows=4000, variant="all")
    with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
        verify_problem(huge)
    with pytest.raises(OracleBudgetError):
        verify_problem(OPEN_FREE, oracle_budget=10)


# ---------------------------------------------------------------------------
# partition audit


def test_audit_partition_passes_on_real_decomposition():
    squares = enumerate_axis_squares(LatticeGrid(5, 5))
    classes = {}
    for s in squares:
        classes.setdefault(s.k, []).append(s)
    result = audit_partition(classes, squares)
    assert result.passed
    assert result.findings == ()


def test_audit_partition_flags_duplicated_witness():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    classes = {s.k: [] for s in squares}
    for s in squares:
        classes[s.k].append(s)
    classes[2].append(squares[0])  # size-1 square also filed under k=2
    result = audit_partition(classes, squares)
    assert not result.passed
    assert any(repr(squares[0]) in f for f in result.findings)


def test_audit_partition_flags_missing_witness():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    classes = {1: [s for s in squares if s.k == 1][1:], 2: [s for s in squares if s.k == 2]}
    result = audit_partition(classes, squares)
    assert not result.passed
    assert any("missing from every class" in f for f in result.findings)


def test_audit_partition_flags_stray_witness():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    stray = enumerate_axis_squares(LatticeGrid(4, 4))[-1]
    classes = {1: [s for s in squares if s.k == 1] + [stray],
               2: [s for s in squares if s.k == 2]}
    result = audit_partition(classes, squares)
    assert not result.passed
    assert any("not in the universe" in f for f in result.findings)


def _sq(x, y, k):
    return Square(LatticePoint(x, y), k, 0)


def _by_size(squares):
    classes = {}
    for s in squares:
        classes.setdefault(s.k, []).append(s)
    return classes


def test_audit_partition_duplicate_finding_text():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    classes = _by_size(squares)
    classes[2].append(squares[0])
    assert audit_partition(classes, squares) == AuditResult(False, (
        "witness Square(anchor=LatticePoint(x=0, y=0), k=1, a=0) appears 2 times "
        "across classes [1, 2]",
    ))


def test_audit_partition_missing_finding_text():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    classes = _by_size(squares)
    del classes[1][0]
    assert audit_partition(classes, squares) == AuditResult(False, (
        "witness Square(anchor=LatticePoint(x=0, y=0), k=1, a=0) is missing from every class",
    ))


def test_audit_partition_stray_finding_text():
    squares = enumerate_axis_squares(LatticeGrid(3, 3))
    classes = _by_size(squares)
    classes[1].append(_sq(0, 0, 3))
    assert audit_partition(classes, squares) == AuditResult(False, (
        "witness Square(anchor=LatticePoint(x=0, y=0), k=3, a=0) classed under [1] "
        "is not in the universe",
    ))


def test_audit_partition_mixed_findings_order():
    # Two offenders of each kind, each pair planted against repr order:
    # classed witnesses come first, sorted by repr, then the missing ones.
    squares = enumerate_axis_squares(LatticeGrid(4, 4))
    classes = _by_size(squares)
    classes[2] += [_sq(1, 0, 1), _sq(0, 1, 1)]
    classes[3].append(_sq(1, 0, 1))
    classes[1] += [_sq(1, 0, 3), _sq(0, 0, 4)]
    classes[2].append(_sq(1, 0, 3))
    classes[1].remove(_sq(2, 2, 1))
    classes[2].remove(_sq(0, 0, 2))
    assert audit_partition(classes, squares) == AuditResult(False, (
        "witness Square(anchor=LatticePoint(x=0, y=0), k=4, a=0) classed under [1] "
        "is not in the universe",
        "witness Square(anchor=LatticePoint(x=0, y=1), k=1, a=0) appears 2 times "
        "across classes [1, 2]",
        "witness Square(anchor=LatticePoint(x=1, y=0), k=1, a=0) appears 3 times "
        "across classes [1, 2, 3]",
        "witness Square(anchor=LatticePoint(x=1, y=0), k=3, a=0) classed under [1, 2] "
        "is not in the universe",
        "witness Square(anchor=LatticePoint(x=0, y=0), k=2, a=0) is missing from every class",
        "witness Square(anchor=LatticePoint(x=2, y=2), k=1, a=0) is missing from every class",
    ))


def _reference_audit(classes, universe):
    """The audit as first written: every witness sorted by repr, offending or not."""
    universe_counts = Counter(universe)
    member_counts = Counter()
    holders = {}
    for label, members in classes.items():
        for w in members:
            member_counts[w] += 1
            holders.setdefault(w, []).append(label)
    findings = []
    for w in sorted(member_counts, key=repr):
        have, want = member_counts[w], universe_counts.get(w, 0)
        if want == 0:
            findings.append(f"witness {w!r} classed under {holders[w]} is not in the universe")
        elif have > want:
            findings.append(f"witness {w!r} appears {have} times across classes {holders[w]}")
    for w in sorted(universe_counts, key=repr):
        if member_counts[w] < universe_counts[w]:
            findings.append(f"witness {w!r} is missing from every class")
    return AuditResult(not findings, tuple(findings))


_AUDIT_PROBLEMS = (
    ProblemSpec("a3", "squares", cols=3, rows=3, variant="axis"),
    ProblemSpec("t4", "squares", cols=4, rows=3, variant="all"),
    ProblemSpec("ws", "word-paths", word="abc", layout="manhattan-rings", adjacency="side"),
    ProblemSpec("wk", "word-paths", word="aba", layout="manhattan-rings", adjacency="king"),
)
_STRAYS = (_sq(0, 0, 5), _sq(1, 1, 2), Square(LatticePoint(2, 0), 3, 1),
           PathWitness(((9, 9),)), PathWitness(((0, 0), (0, 1), (0, 2))))
_PERTURBATIONS = st.lists(
    st.tuples(st.sampled_from(["drop", "duplicate", "misfile", "stray", "universe"]),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(problem=st.sampled_from(_AUDIT_PROBLEMS), perturbations=_PERTURBATIONS)
def test_audit_partition_matches_reference_on_perturbed_partitions(problem, perturbations):
    universe = enumerate_witnesses(problem)
    classes = {}
    for w in universe:
        classes.setdefault(class_key(w), []).append(w)
    labels = list(classes) + ["extra"]
    for op, i, j in perturbations:
        source = classes.setdefault(labels[i % len(labels)], [])
        target = classes.setdefault(labels[j % len(labels)], [])
        if op == "drop" and source:
            source.pop(j % len(source))
        elif op == "duplicate":
            target.append(universe[i % len(universe)])
        elif op == "misfile" and source:
            target.append(source.pop(i % len(source)))
        elif op == "stray":
            target.append(_STRAYS[i % len(_STRAYS)])
        elif op == "universe":
            # an equal but distinct object, so identity cannot stand in for equality
            universe.append(dataclasses.replace(universe[i % len(universe)]))
    expected = _reference_audit(classes, universe)
    assert audit_partition(classes, universe) == expected
    assert audit_partition(classes, Counter(universe)) == expected


def test_duplicating_any_witness_flips_the_audit():
    squares = enumerate_axis_squares(LatticeGrid(4, 4))
    for dup in squares:
        classes = {}
        for s in squares:
            classes.setdefault(s.k, []).append(s)
        classes[dup.k].append(dup)
        assert not audit_partition(classes, squares).passed


# ---------------------------------------------------------------------------
# step traces


def test_axis_squares_trace():
    trace = build_step_trace(AXIS5)
    assert trace.step_iv_classes == (("k=1", 16), ("k=2", 9), ("k=3", 4), ("k=4", 1))
    assert trace.step_iv_rule == "addition"
    assert trace.step_iv_total == 30
    assert len(trace.step_iii) == 4


def test_open_reading_trace():
    trace = build_step_trace(OPEN_SIDE)
    assert trace.step_iv_rule == "product"
    assert trace.step_iv_total == 24
    assert [n for _, n in trace.step_iv_classes] == [6, 6, 6, 6]


def test_degenerate_single_letter_trace():
    spec = ProblemSpec("x", "word-paths", word="X", layout="manhattan-rings",
                       adjacency="side")
    trace = build_step_trace(spec)
    assert trace.step_iv_classes == (("(0,0)", 1),)
    assert trace.step_iv_total == 1


def test_oracle_only_trace_is_marked():
    trace = build_step_trace(OPEN_FREE)
    assert trace.step_iv_rule == "enumeration-only"
    assert trace.step_iv_total == 1024


def _recombine(trace):
    sizes = [n for _, n in trace.step_iv_classes]
    if trace.step_iv_rule == "product":
        assert len(set(sizes)) == 1
        return len(sizes) * sizes[0]
    return sum(sizes)


def test_traces_self_consistent_across_sweep():
    for spec in _sweep_specs():
        trace = build_step_trace(spec)
        assert _recombine(trace) == trace.step_iv_total, spec.name

"""Letter grids, path enumeration, and the symmetric closed form."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configcount import wordgrid
from configcount.budget import OracleBudgetError
from configcount.counting import MoveWord, count_move_words
from configcount.wordgrid import (
    ADJACENCY_RULES,
    count_paths_by_symbol_product,
    count_word_paths_closed,
    enumerate_word_paths,
    generate_manhattan_rings,
    letter_grid_from_rows,
    readings_per_end_cell,
    word_readings,
)

DISTINCT_WORDS = {1: "a", 3: "abc", 5: "abcde", 7: "abcdefg"}


def _class_sizes(witnesses):
    # Readings per end cell, in (x, y) order.
    return dict(sorted(Counter(w.final_cell for w in witnesses).items()))


def _center_distance(grid, cell):
    c = (grid.cols - 1) // 2
    return abs(cell[0] - c) + abs(cell[1] - c)


def test_rings_layout_for_open():
    g = generate_manhattan_rings("Open!")
    assert (g.cols, g.rows) == (5, 5)
    assert g.lines[2][2] == "O"
    for x, y in [(0, 0), (4, 0), (0, 4), (4, 4)]:
        assert g.lines[y][x] == "!"
    assert Counter("".join(g.lines)) == {"O": 1, "p": 4, "e": 8, "n": 8, "!": 4}
    assert g.lines == ("!nen!", "nepen", "epOpe", "nepen", "!nen!")


def test_rings_sizes_follow_min_formula():
    for word in ("abcde", "abcdefg"):
        g = generate_manhattan_rings(word)
        length = len(word)
        by_distance = Counter(_center_distance(g, (x, y))
                              for y in range(g.rows) for x in range(g.cols))
        assert by_distance[0] == 1
        for d in range(1, length):
            assert by_distance[d] == 4 * min(d, length - d)


def _rings_by_distance(word):
    # Row by row, the symbol at Manhattan distance d from the center is word[d].
    c = (len(word) - 1) // 2
    return tuple("".join(word[abs(x - c) + abs(y - c)] for x in range(len(word)))
                 for y in range(len(word)))


def test_rings_rows_hold_the_word_by_distance_for_every_odd_length():
    for length in range(1, 16, 2):
        word = "ABCDEFGHIJKLMNO"[:length]
        assert generate_manhattan_rings(word).lines == _rings_by_distance(word)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(
    lambda half: st.text(alphabet="ab<&é", min_size=2 * half + 1, max_size=2 * half + 1)))
def test_rings_rows_hold_any_word_by_distance(word):
    assert generate_manhattan_rings(word).lines == _rings_by_distance(word)


def test_rings_degenerate_and_small():
    g = generate_manhattan_rings("X")
    assert (g.cols, g.rows) == (1, 1)
    assert g.lines == ("X",)
    g = generate_manhattan_rings("aba")
    assert g.lines == ("aba", "bab", "aba")


def test_rings_rejects_even_length():
    with pytest.raises(ValueError, match="requires odd word length"):
        generate_manhattan_rings("Open")
    with pytest.raises(ValueError, match="requires odd word length"):
        generate_manhattan_rings("")


def test_letter_grid_from_rows_reading_order():
    g = letter_grid_from_rows(["abc", "def"])
    assert (g.cols, g.rows) == (3, 2)
    assert g.lines == ("abc", "def")
    assert g.lines[0][0] == "a"
    assert g.lines[1][2] == "f"


def test_letter_grid_from_rows_validation():
    with pytest.raises(ValueError):
        letter_grid_from_rows([])
    with pytest.raises(ValueError):
        letter_grid_from_rows(["ab", "c"])
    with pytest.raises(ValueError):
        letter_grid_from_rows(["ab", ""])


@pytest.mark.parametrize("lines, message", [
    ((), "rows must be non-empty"),
    (("",), "rows must be non-empty"),
    (("ab", ""), "rows must be non-empty"),
    (("ab", "c"), "rows must all have the same length"),
    (("a", "bc", "d"), "rows must all have the same length"),
], ids=["no-rows", "empty-row", "empty-last-row", "short-row", "long-row"])
def test_letter_grid_refuses_empty_and_ragged_rows(lines, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        wordgrid.LetterGrid(lines)


def test_enumerate_open_side_adjacency():
    g = generate_manhattan_rings("Open!")
    witnesses = enumerate_word_paths(g, "Open!", "side")
    assert len(witnesses) == 24
    assert witnesses == sorted(witnesses, key=lambda w: w.cells)
    assert witnesses[0].cells == ((2, 2), (1, 2), (0, 2), (0, 1), (0, 0))


def test_enumerate_single_symbol_word():
    g = generate_manhattan_rings("Open!")
    witnesses = enumerate_word_paths(g, "O", "side")
    assert [w.cells for w in witnesses] == [((2, 2),)]


def test_enumerate_open_unconstrained():
    g = generate_manhattan_rings("Open!")
    witnesses = enumerate_word_paths(g, "Open!", "none")
    assert len(witnesses) == 1024
    assert len(witnesses) == count_paths_by_symbol_product(g, "Open!")


def test_closed_form_examples():
    report = count_word_paths_closed("Open!")
    assert report.total == 24
    assert report.per_class == {(0, 0): 6, (0, 4): 6, (4, 0): 6, (4, 4): 6}
    assert count_word_paths_closed("X").total == 1
    report = count_word_paths_closed("abc")
    assert report.total == 8
    assert set(report.per_class.values()) == {2}
    with pytest.raises(ValueError, match="requires odd word length"):
        count_word_paths_closed("ab")


def test_closed_form_matches_enumeration_for_distinct_words():
    for length, word in DISTINCT_WORDS.items():
        grid = generate_manhattan_rings(word)
        witnesses = enumerate_word_paths(grid, word, "side")
        report = count_word_paths_closed(word)
        assert report.total == len(witnesses)
        if length > 1:
            assert report.total == 4 * count_move_words(
                MoveWord((length - 1) // 2, (length - 1) // 2)
            )


def test_corner_class_decomposition():
    g = generate_manhattan_rings("Open!")
    side = _class_sizes(enumerate_word_paths(g, "Open!", "side"))
    assert sum(side.values()) == 24
    assert side == {(0, 0): 6, (0, 4): 6, (4, 0): 6, (4, 4): 6}
    assert _class_sizes([]) == {}
    free = _class_sizes(enumerate_word_paths(g, "Open!", "none"))
    assert free == {(0, 0): 256, (0, 4): 256, (4, 0): 256, (4, 4): 256}


def test_class_sizes_sum_to_total():
    g = generate_manhattan_rings("abcde")
    for adjacency in ("side", "king", "none"):
        witnesses = enumerate_word_paths(g, "abcde", adjacency)
        assert sum(_class_sizes(witnesses).values()) == len(witnesses)


def test_four_fold_symmetry_of_corner_classes():
    for word in ("abc", "abcde", "abcdefg"):
        g = generate_manhattan_rings(word)
        for adjacency in ("side", "none"):
            classes = _class_sizes(enumerate_word_paths(g, word, adjacency))
            assert len(classes) == 4
            assert len(set(classes.values())) == 1


def test_side_witnesses_walk_strictly_outward():
    # With pairwise-distinct symbols each step must move one ring further out.
    for word in DISTINCT_WORDS.values():
        g = generate_manhattan_rings(word)
        for w in enumerate_word_paths(g, word, "side"):
            distances = [_center_distance(g, cell) for cell in w.cells]
            assert distances == list(range(len(word)))


def test_diagonal_contact_cannot_bridge_adjacent_rings():
    # A king step changes the center distance by 0 or 2, so on distinct-symbol
    # rings the king rule adds nothing over the side rule.
    for word in ("abc", "abcde", "abcdefg"):
        g = generate_manhattan_rings(word)
        assert enumerate_word_paths(g, word, "king") == enumerate_word_paths(g, word, "side")


def test_repeated_symbols_allow_revisits_unless_distinct():
    g = letter_grid_from_rows(["aaa"])
    assert len(enumerate_word_paths(g, "aaa", "side", distinct_cells=False)) == 6
    straight = enumerate_word_paths(g, "aaa", "side", distinct_cells=True)
    assert [w.cells for w in straight] == [
        ((0, 0), (1, 0), (2, 0)),
        ((2, 0), (1, 0), (0, 0)),
    ]
    g2 = letter_grid_from_rows(["aa"])
    assert len(enumerate_word_paths(g2, "aa", "none", distinct_cells=False)) == 4
    assert len(enumerate_word_paths(g2, "aa", "none", distinct_cells=True)) == 2


def test_symbol_product_with_missing_symbol_is_zero():
    g = letter_grid_from_rows(["ab"])
    assert count_paths_by_symbol_product(g, "az") == 0
    assert enumerate_word_paths(g, "az", "none") == []


def test_budget_guard():
    g = generate_manhattan_rings("Open!")
    with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
        enumerate_word_paths(g, "Open!", "none", max_visits=10)
    assert len(enumerate_word_paths(g, "Open!", "side", max_visits=10_000)) == 24


def _min_budget(g, word, adjacency, distinct):
    lo, hi = 0, 10_000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            enumerate_word_paths(g, word, adjacency, distinct, max_visits=mid)
            hi = mid
        except OracleBudgetError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("adjacency", ADJACENCY_RULES)
@pytest.mark.parametrize("distinct", [False, True])
def test_budget_counts_one_visit_per_reading_prefix(adjacency, distinct):
    # The search visits each cell once per prefix of the word it extends, so
    # the smallest budget that succeeds is the number of readings of all prefixes.
    g = letter_grid_from_rows(["aba", "bab", "aab"])
    word = "ababa"
    prefixes = sum(
        len(enumerate_word_paths(g, word[:j], adjacency, distinct)) for j in range(1, len(word) + 1)
    )
    assert _min_budget(g, word, adjacency, distinct) == prefixes


def test_overrun_is_refused_before_any_reading_is_stored(monkeypatch):
    built = []

    class SpyWitness(wordgrid.PathWitness):
        def __init__(self, cells):
            built.append(cells)
            super().__init__(cells)

    monkeypatch.setattr(wordgrid, "PathWitness", SpyWitness)
    g = letter_grid_from_rows(["aaa", "aaa", "aaa"])
    with pytest.raises(OracleBudgetError, match="more than 50 cell visits"):
        enumerate_word_paths(g, "aaaa", "king", max_visits=50)
    assert built == []
    assert len(enumerate_word_paths(g, "aa", "king", max_visits=50)) == len(built) == 40


def test_readings_stream_as_cell_tuples_and_only_the_list_wraps_them():
    g = letter_grid_from_rows(["aba", "bab", "aab"])
    for adjacency in ADJACENCY_RULES:
        for distinct in (False, True):
            readings = list(word_readings(g, "abab", adjacency, distinct))
            assert readings and all(type(cells) is tuple for cells in readings)
            assert all(type(cell) is tuple for cells in readings for cell in cells)
            assert readings == sorted(set(readings))
            listed = enumerate_word_paths(g, "abab", adjacency, distinct)
            assert listed == [wordgrid.PathWitness(cells) for cells in readings]


def _spy_on_candidates(monkeypatch):
    # Every (cell, symbol) pair the candidate rule is asked for, in order.
    asked = []
    real = wordgrid._reading_rule

    def rule(grid, word, adjacency):
        by_sym, candidates = real(grid, word, adjacency)
        return by_sym, lambda cell, symbol: asked.append((cell, symbol)) or candidates(cell, symbol)

    monkeypatch.setattr(wordgrid, "_reading_rule", rule)
    return asked


@pytest.mark.parametrize("adjacency", ADJACENCY_RULES)
@pytest.mark.parametrize("distinct", [False, True])
def test_search_asks_for_each_cells_candidates_once(monkeypatch, adjacency, distinct):
    # Every "a" cell is stepped into many times per search.
    asked = _spy_on_candidates(monkeypatch)
    readings = list(word_readings(letter_grid_from_rows(["aaa", "aba", "aaa"]), "aaaab",
                                  adjacency, distinct))
    assert readings and max(Counter(asked).values()) == 1


def test_search_memo_tells_symbols_apart():
    # In "aab" an "a" cell is followed by "a" at one position and by "b" at the
    # next, so its candidates must be kept per symbol, not per cell.
    g = letter_grid_from_rows(["aab", "aba", "baa"])
    for word in ("aab", "aaba", "abab"):
        for adjacency in ADJACENCY_RULES:
            for distinct in (False, True):
                found = Counter(cells[-1] for cells in word_readings(g, word, adjacency, distinct))
                assert dict(sorted(found.items())) == readings_per_end_cell(
                    g, word, adjacency, distinct_cells=distinct), (word, adjacency, distinct)


def test_deep_word_does_not_recurse():
    g = letter_grid_from_rows(["a"])
    assert [w.cells for w in enumerate_word_paths(g, "a" * 5000, "none")] == [((0, 0),) * 5000]
    assert enumerate_word_paths(g, "a" * 5000, "none", distinct_cells=True) == []


def test_bad_arguments_rejected():
    g = generate_manhattan_rings("Open!")
    with pytest.raises(ValueError, match="unknown adjacency"):
        enumerate_word_paths(g, "Open!", "diagonal")
    with pytest.raises(ValueError, match="non-empty"):
        enumerate_word_paths(g, "", "side")
    with pytest.raises(ValueError, match="non-empty"):
        count_paths_by_symbol_product(g, "")


_tiny_grids = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(
        st.text(alphabet="ab", min_size=cols, max_size=cols),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=60, deadline=None)
@given(rows=_tiny_grids)
def test_cells_by_symbol_is_a_sorted_scan_of_the_cells(rows):
    g = letter_grid_from_rows(rows)
    scan: dict[str, list] = {}
    for x, y in sorted((x, y) for y in range(g.rows) for x in range(g.cols)):
        scan.setdefault(rows[y][x], []).append((x, y))
    assert g.cells_by_symbol == scan


@settings(max_examples=60, deadline=None)
@given(rows=_tiny_grids, word=st.text(alphabet="ab", min_size=1, max_size=5))
def test_witnesses_come_out_in_cell_order(rows, word):
    # Candidates are generated in (x, y) order, never sorted afterwards.
    grid = letter_grid_from_rows(rows)
    for adjacency in ADJACENCY_RULES:
        for distinct in (False, True):
            try:
                witnesses = enumerate_word_paths(grid, word, adjacency, distinct, max_visits=50_000)
            except OracleBudgetError:
                continue
            assert witnesses == sorted(witnesses, key=lambda w: w.cells)


@settings(max_examples=60, deadline=None)
@given(
    rows=_tiny_grids,
    word=st.text(alphabet="ab", min_size=1, max_size=4),
    adjacency=st.sampled_from(["side", "king", "none"]),
    distinct=st.booleans(),
)
def test_reversal_bijection(rows, word, adjacency, distinct):
    """Reading the reversed word reverses each witness, so counts agree."""
    grid = letter_grid_from_rows(rows)
    forward = enumerate_word_paths(grid, word, adjacency, distinct)
    backward = enumerate_word_paths(grid, word[::-1], adjacency, distinct)
    assert len(forward) == len(backward)
    assert {w.cells[::-1] for w in forward} == {w.cells for w in backward}


@settings(max_examples=60, deadline=None)
@given(
    rows=_tiny_grids,
    word=st.text(alphabet="ab", min_size=1, max_size=4),
    distinct=st.booleans(),
)
def test_adjacency_monotonicity(rows, word, distinct):
    grid = letter_grid_from_rows(rows)
    side = len(enumerate_word_paths(grid, word, "side", distinct))
    king = len(enumerate_word_paths(grid, word, "king", distinct))
    free = len(enumerate_word_paths(grid, word, "none", distinct))
    assert side <= king <= free


@settings(max_examples=60, deadline=None)
@given(rows=_tiny_grids, word=st.text(alphabet="ab", min_size=1, max_size=4))
def test_symbol_product_matches_unconstrained_enumeration(rows, word):
    grid = letter_grid_from_rows(rows)
    assert count_paths_by_symbol_product(grid, word) == len(
        enumerate_word_paths(grid, word, "none")
    )


@settings(max_examples=60, deadline=None)
@given(rows=_tiny_grids, word=st.text(alphabet="abz", min_size=1, max_size=5))
def test_transfer_matrix_matches_enumerated_class_sizes(rows, word):
    # "z" is in no table, so a word holding it has no reading; under "none" the
    # levels after it hold zeros, which the counter must not list as classes.
    grid = letter_grid_from_rows(rows)
    for adjacency in ADJACENCY_RULES:
        try:
            witnesses = enumerate_word_paths(grid, word, adjacency, max_visits=50_000)
        except OracleBudgetError:
            with pytest.raises(OracleBudgetError, match="more than 50000 cell visits"):
                readings_per_end_cell(grid, word, adjacency, max_visits=50_000)
            continue
        counts = readings_per_end_cell(grid, word, adjacency)
        assert counts == _class_sizes(witnesses)
        # At the edge: exactly the search's visits pass, one fewer is refused.
        visits = sum(len(enumerate_word_paths(grid, word[:j], adjacency))
                     for j in range(1, len(word) + 1))
        assert readings_per_end_cell(grid, word, adjacency, max_visits=visits) == counts
        if visits:
            with pytest.raises(OracleBudgetError, match=f"more than {visits - 1} cell visits"):
                readings_per_end_cell(grid, word, adjacency, max_visits=visits - 1)
    free = readings_per_end_cell(grid, word, "none")
    assert count_paths_by_symbol_product(grid, word) == sum(free.values())


# Self-avoiding readings of a 6-symbol word of one letter on a 4x4 table of that
# letter under king adjacency, counted once by the search.
KING_WALK_4X4_LENGTH_6 = 22_672


def test_visited_set_dp_counts_the_pinned_king_walk():
    grid = letter_grid_from_rows(["aaaa"] * 4)
    counts = readings_per_end_cell(grid, "a" * 6, "king", distinct_cells=True)
    assert sum(counts.values()) == KING_WALK_4X4_LENGTH_6
    assert counts == _class_sizes(enumerate_word_paths(grid, "a" * 6, "king", True))


def test_transfer_matrix_checks_its_budget_inside_a_level(monkeypatch):
    # 90,000 first-level prefixes leave 10,000 visits of a 100,000 budget, which
    # about 1,250 (cell, next cell) lookups spend; a check only between levels
    # would look up all 90,000 cells' neighbours first.
    lookups = 0
    real = wordgrid._reading_rule

    def counting_rule(*args):
        by_sym, candidates = real(*args)

        def counted(cell, symbol):
            nonlocal lookups
            lookups += 1
            return candidates(cell, symbol)

        return by_sym, counted

    monkeypatch.setattr(wordgrid, "_reading_rule", counting_rule)
    grid = letter_grid_from_rows(["a" * 300] * 300)
    with pytest.raises(OracleBudgetError,
                       match="^oracle budget exceeded: more than 100000 cell visits$"):
        readings_per_end_cell(grid, "aaa", "king", max_visits=100_000)
    assert 0 < lookups < 2_000


def test_reading_counter_takes_its_options_by_keyword():
    # A budget passed where distinct_cells once stood is refused, not read as a flag.
    with pytest.raises(TypeError):
        readings_per_end_cell(letter_grid_from_rows(["ab"]), "ab", "side", 10)


@settings(max_examples=80, deadline=None)
@given(rows=_tiny_grids, word=st.text(alphabet="abz", min_size=1, max_size=6),
       budget=st.one_of(st.none(), st.integers(min_value=0, max_value=400)))
def test_visited_set_dp_matches_enumerated_class_sizes(rows, word, budget):
    # The DP sums the reading prefixes the search visits, so under any budget it
    # raises exactly when the search does, with the same message.
    grid = letter_grid_from_rows(rows)
    for adjacency in ADJACENCY_RULES:
        try:
            witnesses = enumerate_word_paths(grid, word, adjacency, True, max_visits=budget)
        except OracleBudgetError as exc:
            with pytest.raises(OracleBudgetError) as refused:
                readings_per_end_cell(grid, word, adjacency, distinct_cells=True, max_visits=budget)
            assert str(refused.value) == str(exc)
            continue
        dp = readings_per_end_cell(grid, word, adjacency, distinct_cells=True, max_visits=budget)
        assert dp == _class_sizes(witnesses)
        assert sum(dp.values()) <= sum(readings_per_end_cell(grid, word, adjacency).values())
        # At the edge: exactly the search's visits pass, one fewer is refused.
        visits = sum(len(enumerate_word_paths(grid, word[:j], adjacency, True))
                     for j in range(1, len(word) + 1))
        assert readings_per_end_cell(grid, word, adjacency, distinct_cells=True, max_visits=visits) == dp
        if visits:
            with pytest.raises(OracleBudgetError, match=f"more than {visits - 1} cell visits"):
                readings_per_end_cell(grid, word, adjacency, distinct_cells=True, max_visits=visits - 1)

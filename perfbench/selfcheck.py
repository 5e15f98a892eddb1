"""``run.py --self-check``: the generator is deterministic, the references are right.

Needs no program: references are compared with brute force on small cases,
with known sequences (OEIS A000330, A002415) and with the rings closed form
4 * C(L-1, (L-1)/2); the seed transforms are shown to leave every answer
unchanged; and the output checkers are shown to reject a tampered answer.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import comb

import checks
import reference
import workloads


def _word_cases():
    rng = random.Random(7)
    for _ in range(60):
        cols, rows = rng.randint(1, 4), rng.randint(1, 4)
        rows_data = ["".join(rng.choice("ab") for _ in range(cols)) for _ in range(rows)]
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        yield reference.letter_cells(rows_data), word
    for word in ("a", "abc", "aba", "abcde", "abaab"):
        yield reference.rings_cells(word), word


def _checks():
    """(description, passed) pairs."""
    for cols in range(1, 8):
        for rows in range(1, 8):
            for variant in ("axis", "all"):
                yield (f"squares {variant} {cols}x{rows} sums match brute force",
                       reference.squares_per_class(cols, rows, variant)
                       == reference.brute_squares(cols, rows, variant))
    for n in (2, 10, 40):
        axis = sum(reference.squares_per_class(n, n, "axis").values())
        every = sum(reference.squares_per_class(n, n, "all").values())
        yield (f"squares {n}x{n}: A000330 and A002415",
               axis == (n - 1) * n * (2 * n - 1) // 6 and every == n * n * (n * n - 1) // 12)
    yield "40x40 all has 213,200 witnesses", sum(
        reference.squares_per_class(40, 40, "all").values()) == 213_200

    mismatches = 0
    for cells, word in _word_cases():
        for adjacency in ("side", "king", "none"):
            got = reference.readings_per_end_cell(cells, word, adjacency)
            mismatches += got != reference.brute_readings(cells, word, adjacency, False)
    yield "transfer matrix and symbol product match brute force on 65 tables x 3 rules", not mismatches
    for length in (1, 3, 5, 7, 9):
        word = "abcdefghi"[:length]
        total = sum(reference.readings_per_end_cell(reference.rings_cells(word), word, "side").values())
        yield (f"rings side, {length} distinct symbols: 4 * C(L-1, (L-1)/2)",
               total == (1 if length == 1 else 4 * comb(length - 1, (length - 1) // 2)))
    for (adjacency, cols, rows, length), pinned in reference.PINNED_SELF_AVOIDING.items():
        cells = reference.letter_cells(["a" * cols] * rows)
        yield (f"pinned self-avoiding {adjacency} {cols}x{rows} length {length} = {pinned}",
               sum(reference.brute_readings(cells, "a" * length, adjacency, True).values()) == pinned)

    for name in workloads.WORKLOADS:
        first, again = workloads.build(name, 11), workloads.build(name, 11)
        others = [workloads.build(name, s) for s in range(12, 20)]
        yield f"{name}: same seed, same inputs", first == again
        yield f"{name}: other seeds change the inputs", any(o.files != first.files for o in others)
        totals = [{n: workloads.expected(p).total for n, p in wl.problems.items()}
                  for wl in (first, *others)]
        yield f"{name}: other seeds, same totals", all(t == totals[0] for t in totals)

    base = workloads.build("word-search", 0).problems["checker"]
    want = workloads.expected(base)
    for which in range(8):
        turned = replace(base, rows_data=workloads.dihedral(base.rows_data, which))
        cells = reference.letter_cells(turned.rows_data)
        yield (f"checker total unchanged by symmetry {which} (brute force)",
               sum(reference.brute_readings(cells, turned.word, "side", False).values()) == want.total)

    wl = workloads.build("squares-audit", 0)
    answers = {n: workloads.expected(p) for n, p in wl.problems.items()}
    cmd = wl.commands[0]
    text = "\n\n".join(
        "\n".join([f"problem {n}: squares", *(f"{k}: {v}" for k, v in answers[n].classes.items()),
                   f"total {answers[n].total}"]) for n in cmd.problems) + "\n"
    yield "count checker accepts a right answer", not checks.check(cmd, 0, text, None, answers, wl.problems)
    tampered = text.replace(f"total {answers[cmd.problems[0]].total}",
                            f"total {answers[cmd.problems[0]].total + 1}")
    yield "count checker rejects a total off by one", bool(checks.check(cmd, 0, tampered, None, answers, wl.problems))
    yield "any non-zero exit is a failure", bool(checks.check(cmd, 2, text, None, answers, wl.problems))


def main() -> int:
    failed = 0
    for description, passed in _checks():
        print(f"{'ok  ' if passed else 'FAIL'} {description}", flush=True)
        failed += not passed
    print(f"self-check: {'all passed' if not failed else f'{failed} failed'}")
    return 1 if failed else 0

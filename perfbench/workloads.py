"""Seeded inputs for the three workloads, and the answers each command must give.

A seed never changes the work: it only transposes square grids, applies one
of the eight grid symmetries to explicit letter tables, and relabels letters,
all of which leave every total unchanged.  The base problems are fixed.

* ``squares-audit``: ``verify`` on three square grids, ``enumerate`` and
  ``render`` on one tilted grid.  Square enumeration, ``geometry`` dataclass
  hashing and ``audit_partition`` dominate.
* ``word-search``: ``count``, ``verify`` and ``explain`` on three problems with
  no closed form today, so every command enumerates: the ``wordgrid`` DFS and
  ``PathWitness`` hashing dominate.  One of them is self-avoiding, which a
  faster non-enumerating counter must leave alone.
* ``closed-form-bulk``: 1,000 small mixed problems through ``count``
  (text and JSON) and ``verify``, plus closed-form giants through ``count``
  and ``explain``.  Parsing, dispatch, formatting and per-problem overhead
  dominate.

The grids and words are a few times smaller than a desk-scale audit (one
``verify`` pass is about 2 s here, not 7 s) because one command's wall time
varies by 7-17% from one invocation to the next on a shared 2-core
machine, so a steady median needs about ten samples of every command within
one run.

Every workload also runs the commands it does not stress, on one problem, so
each command's time is reported on every workload.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace

import reference

WORKLOADS = ("squares-audit", "word-search", "closed-form-bulk")

# Letters only: no quoting or escaping is needed in .ccspec strings.
_ALPHABET = string.ascii_letters


@dataclass(frozen=True)
class Problem:
    name: str
    kind: str
    cols: int = 0
    rows: int = 0
    variant: str = ""
    word: str = ""
    layout: str = ""
    rows_data: tuple[str, ...] = ()
    adjacency: str = ""
    distinct: bool = False

    def spec_text(self) -> str:
        if self.kind == "squares":
            body = f"kind: squares cols: {self.cols} rows: {self.rows} variant: {self.variant}"
        else:
            body = f'kind: word-paths word: "{self.word}" layout: {self.layout}'
            if self.layout == "explicit":
                body += " rows-data: [" + ", ".join(f'"{r}"' for r in self.rows_data) + "]"
            body += f" adjacency: {self.adjacency}"
            if self.distinct:
                body += " distinct-cells: true"
        return f"problem {self.name} {{ {body} }}\n"


@dataclass(frozen=True)
class Expected:
    """Reference answer for one problem: total, and class counts by CLI label.

    ``classes`` is None where only the total is pinned (self-avoiding base
    problems).
    """

    total: int
    classes: dict[str, int] | None


@dataclass(frozen=True)
class Command:
    """One CLI invocation in a round; ``check`` names the output checker."""

    verb: str  # count | verify | explain | enumerate | render
    args: tuple[str, ...]
    check: str
    problems: tuple[str, ...]  # problem names whose answers the output carries

    def arg(self, flag: str) -> str:
        """The value given to ``flag`` on the command line."""
        return self.args[self.args.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # file name -> .ccspec text
    problems: dict[str, Problem]
    commands: tuple[Command, ...]


# --- seed transforms -----------------------------------------------------


def dihedral(rows_data: tuple[str, ...], which: int) -> tuple[str, ...]:
    """One of the eight symmetries of a letter table (which in 0..7)."""
    table = [list(r) for r in rows_data]
    if which & 4:
        table = [list(col) for col in zip(*table)]  # transpose
    if which & 2:
        table = table[::-1]
    if which & 1:
        table = [r[::-1] for r in table]
    return tuple("".join(r) for r in table)


class _Seeded:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def relabel(self, symbols: str) -> dict[str, str]:
        used = sorted(set(symbols))
        return dict(zip(used, self.rng.sample(_ALPHABET, len(used))))

    def squares(self, p: Problem) -> Problem:
        if self.rng.random() < 0.5:
            return replace(p, cols=p.rows, rows=p.cols)
        return p

    def word(self, p: Problem) -> Problem:
        mapping = self.relabel(p.word + "".join(p.rows_data))
        word = "".join(mapping[c] for c in p.word)
        rows_data = tuple("".join(mapping[c] for c in r) for r in p.rows_data)
        if p.layout == "explicit":
            rows_data = dihedral(rows_data, self.rng.randrange(8))
        return replace(p, word=word, rows_data=rows_data)

    def __call__(self, p: Problem) -> Problem:
        return self.squares(p) if p.kind == "squares" else self.word(p)


# --- base problems -------------------------------------------------------


def _sq(name, cols, rows, variant):
    return Problem(name, "squares", cols=cols, rows=rows, variant=variant)


def _wd(name, word, layout, adjacency, rows_data=(), distinct=False):
    return Problem(name, "word-paths", word=word, layout=layout, rows_data=tuple(rows_data),
                   adjacency=adjacency, distinct=distinct)


_RINGS_WORD = string.ascii_letters[:51]

_CHECKER = ("abab", "baba", "abab", "baba")
_SAME = ("aaaa",) * 4

_SQUARES_AUDIT = (
    _sq("tilted-30", 30, 30, "all"),        # 67,425 witnesses
    _sq("tilted-22x26", 22, 26, "all"),     # 26,565
    _sq("axis-50", 50, 50, "axis"),         # 40,425
)

_WORD_SEARCH = (
    _wd("checker", "abababab", "explicit", "side", _CHECKER),    # 26,676, revisits allowed
    _wd("free", "ababa", "explicit", "none", _CHECKER),          # 32,768 = 8^5
    _wd("king-walk", "aaaaaa", "explicit", "king", _SAME, distinct=True),  # 22,672
)

_GIANTS = (
    _sq("giant-axis", 100_000, 100_000, "axis"),
    _sq("giant-tilted", 99_999, 100_001, "all"),
    _wd("giant-rings", _RINGS_WORD, "manhattan-rings", "side"),
)

BULK_SIZE = 1000


def _bulk_base() -> list[Problem]:
    """A fixed mix of small problems (the generator seed is a constant)."""
    rng = random.Random(2302_09761)
    out = []
    for i in range(BULK_SIZE):
        name = f"p{i:04d}"
        roll = rng.random()
        if roll < 0.5:
            out.append(_sq(name, rng.randint(2, 9), rng.randint(2, 9), rng.choice(("axis", "all"))))
        elif roll < 0.7:
            length = rng.choice((1, 3, 5, 7))
            out.append(_wd(name, _ALPHABET[:length], "manhattan-rings", "side",
                           distinct=rng.random() < 0.5))
        elif roll < 0.8:
            word = "".join(rng.choice("abc") for _ in range(3))
            out.append(_wd(name, word, "manhattan-rings", rng.choice(("king", "none"))))
        else:
            cols, rows = rng.randint(2, 4), rng.randint(2, 4)
            table = ["".join(rng.choice("abc") for _ in range(cols)) for _ in range(rows)]
            word = "".join(rng.choice("abc") for _ in range(rng.randint(2, 4)))
            out.append(_wd(name, word, "explicit", rng.choice(("side", "king", "none")), table))
    return out


# --- expected answers ----------------------------------------------------


def _label(key) -> str:
    return f"k={key}" if isinstance(key, int) else f"({key[0]},{key[1]})"


def cells_of(p: Problem) -> dict[tuple[int, int], str]:
    if p.layout == "explicit":
        return reference.letter_cells(p.rows_data)
    return reference.rings_cells(p.word)


def expected(p: Problem) -> Expected:
    if p.kind == "squares":
        per = reference.squares_per_class(p.cols, p.rows, p.variant)
        return Expected(sum(per.values()), {_label(k): n for k, n in per.items()})
    if p.distinct and len(set(p.word)) < len(p.word):
        key = (p.adjacency, len(p.rows_data[0]), len(p.rows_data), len(p.word))
        return Expected(reference.PINNED_SELF_AVOIDING[key], None)
    per = reference.readings_per_end_cell(cells_of(p), p.word, p.adjacency)
    return Expected(sum(per.values()), {_label(k): n for k, n in per.items()})


# --- workloads -----------------------------------------------------------


def _spec(problems) -> str:
    return "".join(p.spec_text() for p in problems)


def build(name: str, seed: int) -> Workload:
    """The workload's spec files, problems and command round for this seed."""
    seeded = _Seeded(seed)
    if name == "squares-audit":
        probs = [seeded(p) for p in _SQUARES_AUDIT]
        files = {"audit.ccspec": _spec(probs)}
        f, one, names = "audit.ccspec", "tilted-22x26", tuple(p.name for p in probs)
        commands = (
            Command("count", ("count", f), "count-text", names),
            Command("explain", ("explain", f, "--problem", "tilted-30"), "explain", ("tilted-30",)),
            Command("verify", ("verify", f), "verify-text", names),
            Command("enumerate", ("enumerate", f, "--problem", one, "--format", "json"),
                    "enumerate-json", (one,)),
            Command("render", ("render", f, "--problem", one, "--highlight", "k=7", "-o", "out.svg"),
                    "render-squares", (one,)),
        )
    elif name == "word-search":
        probs = [seeded(p) for p in _WORD_SEARCH]
        files = {"words.ccspec": _spec(probs)}
        f, names = "words.ccspec", tuple(p.name for p in probs)
        commands = (
            Command("count", ("count", f), "count-text", names),
            Command("verify", ("verify", f), "verify-text", names),
            *(Command("explain", ("explain", f, "--problem", n), "explain", (n,)) for n in names),
            Command("enumerate", ("enumerate", f, "--problem", "king-walk", "--format", "json"),
                    "enumerate-json", ("king-walk",)),
            Command("render", ("render", f, "--problem", "king-walk", "--highlight", "0",
                               "-o", "out.svg"), "render-words", ("king-walk",)),
        )
    elif name == "closed-form-bulk":
        bulk = [seeded(p) for p in _bulk_base()]
        giants = [seeded(p) for p in _GIANTS]
        probs = bulk + giants
        files = {"bulk.ccspec": _spec(bulk), "giants.ccspec": _spec(giants)}
        bulk_names = tuple(p.name for p in bulk)
        small = next(p.name for p in bulk if p.kind == "squares" and p.variant == "all")
        commands = (
            Command("count", ("count", "bulk.ccspec"), "count-text", bulk_names),
            Command("count", ("count", "bulk.ccspec", "--format", "json"), "count-json", bulk_names),
            Command("verify", ("verify", "bulk.ccspec"), "verify-text", bulk_names),
            Command("count", ("count", "giants.ccspec"), "count-text",
                    tuple(p.name for p in giants)),
            *(Command("explain", ("explain", "giants.ccspec", "--problem", p.name), "explain",
                      (p.name,)) for p in giants),
            Command("enumerate", ("enumerate", "bulk.ccspec", "--problem", small, "--format",
                                  "json"), "enumerate-json", (small,)),
            Command("render", ("render", "bulk.ccspec", "--problem", small, "--highlight", "k=1",
                               "-o", "out.svg"), "render-squares", (small,)),
        )
    else:
        raise ValueError(f"unknown workload: {name}")
    return Workload(name, files, {p.name: p for p in probs}, commands)

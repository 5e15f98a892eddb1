"""Elementary exact counting: factorials, binomials, multiset permutations.

Everything here returns Python ints, so results are exact at any size; there
is no overflow to guard against.
"""

from __future__ import annotations

import math

from .record import Record, set_field


class MultisetSpec(Record):
    """n objects split into types of sizes ``parts``; parts must sum to n."""

    n: int
    parts: tuple[int, ...]

    def __init__(self, n: int, parts: tuple[int, ...]):
        set_field(self, "n", n)
        set_field(self, "parts", parts)


class MoveWord(Record):
    """A two-letter move alphabet: some number of U (up) and R (right) moves."""

    ups: int
    rights: int

    def __init__(self, ups: int, rights: int):
        if ups < 0 or rights < 0:
            raise ValueError("move counts must be non-negative")
        set_field(self, "ups", ups)
        set_field(self, "rights", rights)


def factorial(n: int) -> int:
    """n! as an exact integer."""
    if n < 0:
        raise ValueError("factorial is undefined for negative n")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 for k outside 0..n."""
    if n < 0:
        raise ValueError("binomial needs non-negative n")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multiset_permutations(spec: MultisetSpec) -> int:
    """Distinct arrangements of n objects with repeated types: n! / (n1! ... nk!).

    The division is always exact.  Raises ValueError on an ill-formed spec
    (parts not positive, or not summing to n).
    """
    if any(p < 1 for p in spec.parts) or sum(spec.parts) != spec.n:
        raise ValueError("ill-formed multiset: parts must be positive and sum to n")
    result = math.factorial(spec.n)
    for p in spec.parts:
        result //= math.factorial(p)
    return result


def count_move_words(moves: MoveWord) -> int:
    """Number of distinct U/R strings with the given move counts.

    Equals the two-part multiset permutation count; a type with zero moves
    contributes nothing and is dropped.
    """
    parts = tuple(p for p in (moves.ups, moves.rights) if p > 0)
    return multiset_permutations(MultisetSpec(moves.ups + moves.rights, parts))

"""Group-algebra vectors over S_n, as the engine builds them.

A GroupVector is an exact sparse linear combination of permutations, each
its one-line map, with `int` coefficients where integral, else `Fraction`,
never `float`.  Terms are in strictly descending lexicographic order of
the maps, with no zero coefficients; the zero vector has no terms.  The
public constructor sorts and merges any terms; terms known to be in that
order already are taken as they are with `_normalized=True`.  Besides it
the engine needs `from_dict`, `add`, `negate` and `renorm`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable

from .perm import check

_MAP = itemgetter(1)


class GroupVector:
    """Sorted, compressed linear combination of permutations of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Iterable[tuple] = (),
                 *, _normalized: bool = False):
        # terms built by the engine come _normalized and are not checked
        self.degree = degree
        self.terms = tuple(terms) if _normalized else _merge_terms(degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        return (isinstance(other, GroupVector)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, self.terms))

    def __repr__(self):
        if not self.terms:
            return f"GroupVector({self.degree}, 0)"
        body = " + ".join(f"{c}*e{p}" for c, p in self.terms)
        return f"GroupVector({self.degree}, {body})"


def coef(c) -> int | Fraction:
    """An input coefficient: an int as it is, else an exact Fraction."""
    return c if type(c) is int else Fraction(c)


def _merge_terms(degree: int, tl) -> tuple:
    acc: dict[tuple, int | Fraction] = {}
    for c, p in tl:
        p = check(p)
        if len(p) != degree:
            raise ValueError(f"term degree {len(p)} != vector degree {degree}")
        acc[p] = acc.get(p, 0) + coef(c)
    out = [(c, p) for p, c in acc.items() if c != 0]
    out.sort(key=_MAP, reverse=True)
    return tuple(out)


def from_dict(degree: int, d: dict[tuple, int | Fraction]) -> GroupVector:
    terms = sorted(((c, p) for p, c in d.items() if c != 0),
                   key=_MAP, reverse=True)
    return GroupVector(degree, tuple(terms), _normalized=True)


def add(u: GroupVector, v: GroupVector) -> GroupVector:
    if u.degree != v.degree:
        raise ValueError(f"degree mismatch: {u.degree} != {v.degree}")
    if not u.terms:
        return v
    if not v.terms:
        return u
    acc = {p: c for c, p in u.terms}
    for c, p in v.terms:
        x = acc.get(p)
        if x is None:
            acc[p] = c
        else:
            x = x + c
            if x:
                acc[p] = x
            else:
                del acc[p]
    return from_dict(u.degree, acc)


def negate(v: GroupVector) -> GroupVector:
    return GroupVector(v.degree, tuple((-c, p) for c, p in v.terms),
                       _normalized=True)


def renorm(v: GroupVector) -> GroupVector:
    """Scale to coprime integer coefficients with positive leading term.

    Fractions are first cleared to a common denominator; the result's
    coefficients are ints.  A renormed or zero vector is returned as it is.
    """
    if not v.terms:
        return v
    nums = [c for c, _ in v.terms]
    if any(type(c) is not int for c in nums):
        den = lcm(*[c.denominator for c in nums])
        nums = [c.numerator * (den // c.denominator) for c in nums]
    elif nums[0] > 0 and gcd(*nums) == 1:
        return v
    g = gcd(*nums)
    if nums[0] < 0:
        g = -g
    terms = tuple((x // g, p) for x, (_, p) in zip(nums, v.terms))
    return GroupVector(v.degree, terms, _normalized=True)

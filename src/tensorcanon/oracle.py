"""Brute-force reference for subspace facts at small degrees.

Dense textbook row reduction over the full n!-dimensional group algebra,
with columns (and pivots) in *ascending* permutation order -- deliberately
the opposite of the engine's descending order, so agreement with the
engine is meaningful only for dimension and membership, never for the
particular canonical representatives.  Shares no elimination code with
the triangle-basis engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from . import galg
from .galg import GroupVector

MAX_DEGREE = 7


def _columns(n: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(permutations(range(1, n + 1)))}


def _dense(v: GroupVector, cols) -> list[Fraction]:
    row = [Fraction(0)] * len(cols)
    for c, p in v.terms:
        row[cols[p]] = c
    return row


class _Eliminator:
    """Incremental row echelon form over exact rationals.

    Forward elimination only: each stored row is normalized to a unit
    leading entry at its pivot column, and incoming rows are swept in
    ascending column order.
    """

    def __init__(self, n: int):
        if n > MAX_DEGREE:
            raise ValueError(f"oracle limited to degree {MAX_DEGREE}, got {n}")
        self.n = n
        self.cols = _columns(n)
        self.width = factorial(n)
        self.pivot_rows: dict[int, list[Fraction]] = {}

    def _reduce(self, row: list[Fraction]) -> list[Fraction]:
        for col in range(self.width):
            c = row[col]
            if not c:
                continue
            prow = self.pivot_rows.get(col)
            if prow is None:
                continue
            for j in range(col, self.width):
                if prow[j]:
                    row[j] -= c * prow[j]
        return row

    def add(self, v: GroupVector):
        row = self._reduce(_dense(v, self.cols))
        for col in range(self.width):
            if row[col]:
                inv = Fraction(1, row[col])    # 1 / an int is a float
                self.pivot_rows[col] = [x * inv for x in row]
                return

    def rank(self) -> int:
        return len(self.pivot_rows)

    def residual_of(self, v: GroupVector) -> GroupVector:
        row = self._reduce(_dense(v, self.cols))
        return galg.from_dict(self.n, dict(zip(self.cols, row)))


def _eliminate(relations) -> _Eliminator:
    relations = list(relations)
    if not relations:
        raise ValueError("need at least one relation to fix the degree")
    e = _Eliminator(relations[0].degree)
    for r in relations:
        e.add(r)
    return e


def span_dim(relations) -> int:
    """Rank of the relation set."""
    return _eliminate(relations).rank()


def member(v: GroupVector, relations) -> bool:
    """Exact membership of v in the span of the relations."""
    return residual(v, relations).is_zero()


def residual(v: GroupVector, relations) -> GroupVector:
    """v minus its span component, under the oracle's own pivot order."""
    relations = list(relations)
    if not relations:
        return v
    return _eliminate(relations).residual_of(v)

"""Triangle bases over the group algebra and the canonical sieve.

A KBasis is a set of renormalized GroupVectors with pairwise distinct
leading ("pivot") permutations, kept fully reduced against each other:
no row carries a nonzero coefficient on another row's pivot.  Sieving a
vector eliminates every pivot coefficient, projecting it onto the
complementary subspace of canonical representatives.

Every row is renormed (coprime integers, positive pivot coefficient),
also after it is reduced by a new row, so the basis of a given span is
unique term for term, whatever relations built it and in what order; only
the order of the rows follows their insertion.  A column index maps each
non-pivot permutation to the rows that carry it, so an insert reduces only
those rows.

The sieve eliminates the input's pivot terms one at a time, in descending
permutation order.  The input and the result of each step are the forms
along the way; sieve_trace also returns the one with the fewest terms,
the earliest on ties.  A step subtracts c/pc times the row (c and pc the
pivot's coefficients), c itself if pc is 1, else a Fraction.  A build
sieves a relation's terms in their own order, to the same residue.  An
insert reduces a row fraction-free, in one pass, to the renorm of pc*row - c*v.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from . import galg
from .galg import GroupVector


class PivotCollisionError(ValueError):
    """Raised when an inserted vector's pivot already belongs to the basis."""


class KBasis:
    """Triangle basis; mutable while being built, then effectively frozen."""

    def __init__(self, degree: int):
        self.degree = degree
        # pivot permutation -> row; dicts preserve insertion order
        self._rows: dict[tuple[int, ...], GroupVector] = {}
        # non-pivot permutation -> pivots of the rows carrying it
        self._cols: dict[tuple[int, ...], set] = {}

    @property
    def rows(self) -> list[GroupVector]:
        return list(self._rows.values())

    def dim(self) -> int:
        return len(self._rows)

    def sieve(self, v: GroupVector) -> GroupVector:
        """The canonical representative of v: every pivot eliminated."""
        return self.sieve_trace(v)[0]

    def sieve_trace(self, v: GroupVector) -> tuple[GroupVector, GroupVector]:
        """Like sieve, but also return the fewest-term intermediate form."""
        if v.degree != self.degree:
            raise ValueError(f"degree mismatch: {v.degree} != {self.degree}")
        acc, best = self._eliminate(v.terms, True)
        return self._vector(acc), v if best is None else self._vector(best)

    def _eliminate(self, terms, trace: bool) -> tuple[dict, dict | None]:
        """The {map: coefficient} of `terms` with each pivot among them
        eliminated in their order and, with `trace`, the first fewest-term
        form along the way (else None).

        Rows are fully reduced, so no step brings in a pivot or changes
        the coefficient of a later one, and any order gives the same acc.
        """
        rows = self._rows
        acc = {p: c for c, p in terms}
        best, fewest = None, len(acc)
        for p in [p for p in acc if p in rows]:
            c = acc.pop(p)
            row = rows[p]
            pc = row.terms[0][0]
            ratio = c if pc == 1 else Fraction(c, pc)
            for rc, rp in row.terms[1:]:
                x = acc.get(rp, 0) - ratio * rc
                if x:
                    acc[rp] = x
                else:
                    acc.pop(rp, None)
            if trace and len(acc) < fewest:
                best, fewest = dict(acc), len(acc)
        return acc, best

    def _vector(self, acc: dict) -> GroupVector:
        terms = tuple((acc[p], p) for p in sorted(acc, reverse=True))
        return GroupVector(self.degree, terms, _normalized=True)

    def insert(self, v: GroupVector):
        """Renorm v, add it as a row and reduce by it the rows that carry
        its pivot, found through the column index.  A v that carries a
        row's pivot would leave the basis unreduced and is refused."""
        if v.is_zero():
            raise ValueError("cannot insert the zero vector")
        v = galg.renorm(v)
        pc, key = v.terms[0]
        if len(key) != self.degree:
            raise ValueError(f"degree mismatch: {len(key)} != {self.degree}")
        rows = self._rows
        hit = next((p for _, p in v.terms if p in rows), None)
        if hit is not None:
            raise PivotCollisionError(f"pivot {hit} already present (missed sieve?)")
        cols = self._cols
        rest = v.terms[1:]
        for rkey in cols.pop(key, ()):
            # pc*row - c*v: the pivot cancels, only v's maps enter or leave
            acc = {p: pc * rc for rc, p in rows[rkey].terms}
            c = acc.pop(key) // pc
            for vc, p in rest:
                x = acc.get(p, 0) - c * vc
                carriers = cols.setdefault(p, set())
                if x:
                    acc[p] = x
                    carriers.add(rkey)
                else:
                    del acc[p]
                    carriers.discard(rkey)
                    if not carriers:
                        del cols[p]
            rows[rkey] = galg.renorm(self._vector(acc))
        for _, p in rest:
            cols.setdefault(p, set()).add(key)
        rows[key] = v

    def build(self, relations: Iterable) -> "KBasis":
        """Insert the nonzero residue of each relation, an iterable of
        (coefficient, map) terms with distinct maps such as a GroupVector,
        its pivots eliminated in the terms' order.  Returns self."""
        for rel in relations:
            acc = self._eliminate(rel, False)[0]
            if acc:
                self.insert(self._vector(acc))
        return self

    # -- export --------------------------------------------------------

    def dump_text(self) -> str:
        """One row per line as a signed integer combination of permutations."""
        lines = []
        for row in self._rows.values():
            parts = []
            for c, p in row.terms:
                s = "+" if c >= 0 else "-"
                parts.append(f"{s} {abs(c)}*({' '.join(map(str, p))})")
            lines.append(" ".join(parts).lstrip("+ "))
        lines.append(str(self.dim()))
        return "\n".join(lines) + "\n"

    def dump_json(self) -> str:
        obj = {
            "degree": self.degree,
            "dimension": self.dim(),
            "rows": [
                {
                    "coeffs": [str(c) for c, _ in row.terms],
                    "perms": [list(p) for _, p in row.terms],
                }
                for row in self._rows.values()
            ],
        }
        return json.dumps(obj, indent=2) + "\n"


"""`KBasis.build` and `KBasis.insert` as they were before a build reduced
its relations as maps, kept as a test-only reference: every relation goes
through `sieve`, and an insert reduces each row that carries the new
pivot by the chain scale, scale, galg.add, galg.renorm (`scale` is the
helper of `conftest`).
"""

from __future__ import annotations

from typing import Iterable

from tensorcanon import galg
from tensorcanon.galg import GroupVector
from tensorcanon.kbasis import KBasis, PivotCollisionError

from conftest import scale


class ReferenceKBasis(KBasis):
    def insert(self, v: GroupVector):
        """Renorm v, add it as a row and reduce by it the rows that carry
        its pivot, found through the column index."""
        if v.is_zero():
            raise ValueError("cannot insert the zero vector")
        v = galg.renorm(v)
        pc, key = v.terms[0]
        if key in self._rows:
            raise PivotCollisionError(f"pivot {key} already present (missed sieve?)")
        cols = self._cols
        for rkey in cols.pop(key, ()):
            row = self._rows[rkey]
            c = next(rc for rc, rp in row.terms if rp == key)
            new = galg.renorm(galg.add(scale(pc, row), scale(-c, v)))
            self._rows[rkey] = new
            old = {p for _, p in row.terms[1:]}
            now = {p for _, p in new.terms[1:]}
            for k in old - now - {key}:
                carriers = cols[k]
                carriers.discard(rkey)
                if not carriers:
                    del cols[k]
            for k in now - old:
                cols.setdefault(k, set()).add(rkey)
        for _, p in v.terms[1:]:
            cols.setdefault(p, set()).add(key)
        self._rows[key] = v

    def build(self, relations: Iterable[GroupVector]) -> "ReferenceKBasis":
        """Sieve each relation and insert the nonzero residues.  Returns self."""
        for rel in relations:
            s = self.sieve(rel)
            if not s.is_zero():
                self.insert(s)
        return self

"""The multiterm relations of a header as the engine generated them before
it closed them over the orbits they reach: every coset minimum listed,
one kept per double coset S_a*rho*G_D, its translates mapped through the
orbit table.  Kept as the reference that the closure replaces; moved
verbatim, `Registry._quotient` becoming `quotient(self, ...)`, and since
then only ported to permutations as plain one-line tuples.
"""

from __future__ import annotations

from typing import Iterable

from tensorcanon import galg
from tensorcanon.galg import GroupVector
from tensorcanon.texpr import (Generator, OrbitTable, TensorError,
                               TensorHeader, coset_minimum, coset_reps,
                               orbit_project)


def _lift(row: GroupVector, off: int, right: int) -> GroupVector:
    """A factor's row moved onto the slots off+1..off+degree of a product
    with `right` slots after them, every other slot fixed; built through
    the checked, sorting constructor, apart from the engine's embedding."""
    n = off + row.degree + right
    head, tail = tuple(range(1, off + 1)), tuple(range(n - right + 1, n + 1))
    return GroupVector(n, [(c, head + tuple(v + off for v in p) + tail)
                           for c, p in row.terms])


def double_coset_reps(rhos: Iterable[tuple], lo: int, hi: int,
                      npairs: int) -> list[tuple]:
    """The first of `rhos` in each double coset S_a*rho*G_D, where S_a
    permutes the values lo+1..hi of a map (acting on the left) and G_D
    renames the first npairs slot pairs (on the right).  The key drops
    which block value sits where (one token, 0, for all of them) and then
    takes the coset minimum of what is left."""
    reps: dict[tuple, tuple] = {}
    for rho in rhos:
        key = tuple(0 if lo < x <= hi else x for x in rho)
        reps.setdefault(coset_minimum(key, 2 * npairs), rho)
    return list(reps.values())


def quotient(self, header: TensorHeader, full: bool = False
             ) -> tuple[OrbitTable, list[GroupVector]]:
    """The signed orbit table of the header's coset minima, filled
    first if `full`, and the multiterm relations mapped through it.

    The table's generators are the factors' monoterm generators lifted
    onto their slot blocks and the swaps of adjacent identical blocks.
    A factor's multiterm rows are translated only by one rho per double
    coset S_a*rho*G_D, with S_a the permutations of its slot block:
    the stored basis is closed under right translation by S_a and its
    rows differ from their projections by orbit relations, so every
    translate by sigma*rho, sigma in S_a, maps into the span of those
    by rho, and G_D on the right is absorbed by the coset minimum.  Of
    identical factors only the first is translated: a swap carries
    the others' translates onto its own."""
    n, p = header.degree, header.npairs
    gens: list[Generator] = []
    multiterm = []
    for k, ((fname, arity), off) in enumerate(zip(header.factors,
                                                  header.offsets())):
        t = self.tensors.get(fname)
        if t is None:
            raise TensorError(f"{fname} is not declared as tensor")
        tgens, rows = t.monoterm()
        head = tuple(range(1, off + 1))
        tail = tuple(range(off + arity + 1, n + 1))
        gens.extend((head + tuple(v + off for v in g) + tail, s)
                    for g, s in tgens)
        if k and header.factors[k - 1][0] == fname:
            m = list(range(1, n + 1))
            m[off - arity:off + arity] = m[off:off + arity] + m[off - arity:off]
            gens.append((tuple(m), 1))
        elif rows:
            multiterm.append((rows, off, arity))
    table = OrbitTable(n, gens, p)
    if full:
        table.fill()
    rhos = list(coset_reps(n, p)) if multiterm else []
    rels: list[GroupVector] = []
    for rows, off, arity in multiterm:
        reps = double_coset_reps(rhos, off, off + arity, p)
        for row in rows:
            lifted = _lift(row, off, n - off - arity)
            for rho in reps:
                r = orbit_project(galg.translate_right(lifted, rho), table)
                if not r.is_zero():
                    rels.append(r)
    return table, rels

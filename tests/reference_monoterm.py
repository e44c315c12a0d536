"""`monoterm_data` as it was before the group was read off the stored
rows, kept as a test-only reference: it sieves every unit vector e_g of
S_a through the basis and projects every stored row.
"""

from __future__ import annotations

from tensorcanon import galg
from tensorcanon.galg import GroupVector
from tensorcanon.kbasis import KBasis
from tensorcanon.texpr import Generator, OrbitTable, _orbit, coset_reps, orbit_project

from conftest import identity, unit


def monoterm_data(b: KBasis) -> tuple[list[Generator], list[GroupVector]]:
    """A generating set of the signed monoterm group of a stored basis and
    its multiterm rows.

    The group holds every (g, s) with e_id - s*e_g in the span of b, that
    is with e_g sieving to s times what e_id sieves to; then e_rho =
    s*e_{g*rho} for every rho, as the span is closed under right
    translation.  If e_id itself lies in the span the tensor vanishes and
    (id, -1) generates.  Generators are picked greedily in lexicographic
    order, each one not yet in the group the earlier ones generate.  The
    multiterm rows are the rows of b projected onto the orbit minima of
    the group, the nonzero residues reduced: with the orbit relations they
    span b again, and a two-term row with unequal coefficients stays."""
    a = b.degree
    ident = identity(a)
    base = b.sieve(unit(ident))
    if base.is_zero():
        return [(ident, -1)], []
    neg = galg.negate(base)
    gens: list[Generator] = []
    group = {ident: 1}
    for g in coset_reps(a, 0):
        r = b.sieve(unit(g))
        s = 1 if r == base else -1 if r == neg else 0
        if s and g not in group:
            gens.append((g, s))
            group = _orbit(ident, gens, 0)[0]
    table = OrbitTable(a, gens, 0)
    return gens, KBasis(a).build(orbit_project(row, table)
                                 for row in b.rows).rows

"""`signed_orbits` as it was before orbit tables were filled on demand,
kept as a test-only reference: it walks every coset minimum, in ascending
order, with every generator.  `_orbit` and `coset_minimum` are the copies
it called then.  `project` is the projection onto coset minima that
`Registry.simplify` made before `orbit_project` took each term's coset
minimum itself, the terms of a normalized expression being on theirs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from tensorcanon import galg
from tensorcanon.galg import GroupVector
from tensorcanon.texpr import Generator


def _orbit(root: tuple, gens: Sequence[Generator],
           lead: int) -> tuple[dict[tuple, int], bool]:
    """The signed orbit of the coset minimum root: each member x with the
    sign s of e_x = s*e_root, and whether the orbit's signed stabilizer
    holds -1 (a member met with both signs).  A generator (g, s) maps x to
    the coset minimum of g*x; e_x = s*e_{g*x}."""
    sign = {root: 1}
    queue = [root]
    zero = False
    for x in queue:
        sx = sign[x]
        for g, s in gens:
            y = tuple(g[v - 1] for v in x)
            if lead:
                y = coset_minimum(y, lead)
            old = sign.get(y)
            if old is None:
                sign[y] = sx * s
                queue.append(y)
            elif old != sx * s:
                zero = True
    return sign, zero


def signed_orbits(reps: Iterable[tuple], gens: Sequence[Generator],
                  npairs: int) -> dict[tuple, Optional[tuple[int, tuple]]]:
    """The signed orbit table over coset minima `reps`, given in ascending
    order: each maps to (s, m) with e_x = s*e_m, m the orbit minimum (the
    first of its orbit met), or to None when its orbit vanishes."""
    lead = 2 * npairs
    table: dict[tuple, Optional[tuple[int, tuple]]] = {}
    for rep in reps:
        if rep in table:
            continue
        sign, zero = _orbit(rep, gens, lead)
        for x, s in sign.items():
            table[x] = None if zero else (s, rep)
    return table


def coset_minimum(m: tuple, lead: int) -> tuple:
    """The smallest map of the coset m*G_D, where G_D renames the pairs
    in the first `lead` slots: each pair sorted, then the pairs sorted."""
    pairs = sorted([(a, b) if a < b else (b, a)
                    for a, b in zip(m[0:lead:2], m[1:lead:2])])
    return sum(pairs, ()) + m[lead:]


def project(v: GroupVector, npairs: int) -> GroupVector:
    """Map every term onto its coset minimum, adding coefficients: the
    sieve through the renaming relations of npairs dummy pairs."""
    if not npairs:
        return v
    lead = 2 * npairs
    acc: dict[tuple[int, ...], int | Fraction] = {}
    for c, p in v.terms:
        k = coset_minimum(p, lead)
        acc[k] = acc.get(k, 0) + c
    return galg.from_dict(v.degree, acc)

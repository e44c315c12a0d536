"""Permutations of S_n: a check and a composition.

A permutation is its one-line map: a tuple of the 1-based slot values,
immutable and hashable as it is.  `check` validates a map that comes
from outside the engine; the maps the engine builds are not checked.

Composition convention, used everywhere in this package:

    multiply(p, q)[i] = p[q[i]]      (q acts first)
"""

from __future__ import annotations

from typing import Sequence


def check(seq: Sequence[int]) -> tuple[int, ...]:
    """The one-line map of seq, a bijection of {1..n} with n >= 1."""
    m = tuple(seq)
    n = len(m)
    if n < 1:
        raise ValueError("permutation degree must be at least 1")
    if sorted(m) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {m}")
    return m


def multiply(p: tuple, q: tuple) -> tuple[int, ...]:
    """Composition p∘q with q applied first: result[i] = p[q[i]]."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    return tuple([p[j - 1] for j in q])

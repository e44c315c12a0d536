"""Exact arithmetic on permutations of S_n.

Permutations are stored in one-line form: a 1-based sequence of slot
values.

Composition convention, used everywhere in this package:

    multiply(p, q)[i] = p[q[i]]      (q acts first)

and the action on sequences is slot selection:

    apply(p, l)[i] = l[p[i]]
"""

from __future__ import annotations

from typing import Sequence


class Perm:
    """A bijection of {1..n}, immutable and hashable."""

    __slots__ = ("map", "degree", "_hash")

    def __init__(self, map: Sequence[int]):
        m = tuple(map)
        n = len(m)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        if sorted(m) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {m}")
        self.map = m
        self.degree = n
        self._hash = hash(m)

    @classmethod
    def _trusted(cls, m: tuple[int, ...]) -> "Perm":
        # fast path for internally built maps; skips the bijection check
        p = object.__new__(cls)
        p.map = m
        p.degree = len(m)
        p._hash = hash(m)
        return p

    def __eq__(self, other):
        return isinstance(other, Perm) and self.map == other.map

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Perm(%s)" % (self.map,)

    def __str__(self):
        return "(" + " ".join(str(v) for v in self.map) + ")"


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError("degree must be at least 1")
    return Perm._trusted(tuple(range(1, n + 1)))


def _check_degrees(p: Perm, q: Perm):
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")


def multiply(p: Perm, q: Perm) -> Perm:
    """Composition p∘q with q applied first: result[i] = p[q[i]]."""
    _check_degrees(p, q)
    pm = p.map
    return Perm._trusted(tuple(pm[j - 1] for j in q.map))


def inverse(p: Perm) -> Perm:
    """The x with multiply(x, p) = identity."""
    r = [0] * p.degree
    for i, v in enumerate(p.map):
        r[v - 1] = i + 1
    return Perm._trusted(tuple(r))


def apply(p: Perm, l: Sequence) -> tuple:
    """Rearrange l by slot selection: result[i] = l[p[i]]."""
    if len(l) != p.degree:
        raise ValueError(f"sequence length {len(l)} != degree {p.degree}")
    return tuple(l[i - 1] for i in p.map)


def extend_right(p: Perm, d: int) -> Perm:
    """Embed p into S_{n+d} fixing the d appended slots."""
    if d < 0:
        raise ValueError("extension count must be nonnegative")
    n = p.degree
    return Perm._trusted(p.map + tuple(range(n + 1, n + d + 1)))


def extend_left(p: Perm, d: int) -> Perm:
    """Embed p into S_{d+n} fixing the d prepended slots."""
    if d < 0:
        raise ValueError("extension count must be nonnegative")
    return Perm._trusted(tuple(range(1, d + 1)) + tuple(v + d for v in p.map))

"""Exact arithmetic on permutations of S_n.

Permutations are stored in one-line ("unpacked") form: a 1-based sequence
of slot values.  A packed decimal form is available for degrees up to 99
(one digit per slot while the degree fits in one digit, two otherwise).

Composition convention, used everywhere in this package:

    multiply(p, q)[i] = p[q[i]]      (q acts first)

and the action on sequences is slot selection:

    apply(p, l)[i] = l[p[i]]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

MAX_PACK_DEGREE = 99


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


@dataclass(frozen=True)
class PackedPerm:
    """Decimal encoding of a permutation together with its degree."""

    value: int
    degree: int


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


def sign(p: Perm) -> int:
    """Parity of p: +1 for even, -1 for odd."""
    seen = [False] * p.degree
    s = 1
    for i in range(p.degree):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p.map[j] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


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


def _pack_width(n: int) -> int:
    return 1 if n <= 9 else 2


def pack(p: Perm) -> PackedPerm:
    """Fixed-width decimal encoding; defined for degrees up to 99."""
    n = p.degree
    if n > MAX_PACK_DEGREE:
        raise ValueError(f"cannot pack degree {n} > {MAX_PACK_DEGREE}")
    w = _pack_width(n)
    v = 0
    base = 10 ** w
    for d in p.map:
        v = v * base + d
    return PackedPerm(v, n)


def unpack(x: PackedPerm) -> Perm:
    n = x.degree
    w = _pack_width(n)
    base = 10 ** w
    v = x.value
    m = [0] * n
    for i in range(n - 1, -1, -1):
        m[i] = v % base
        v //= base
    return Perm(m)

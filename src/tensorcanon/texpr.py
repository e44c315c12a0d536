"""Tensor expressions and their canonicalization.

A tensor expression is a linear combination of products of declared basic
tensors sharing one header (factor list plus reference index slots).  Each
term corresponds to a permutation of the reference slots, so the whole
expression is a GroupVector in the group algebra of S_n.

The registry stores, per basic tensor, a triangle basis of its symmetry
and linear-identity relations.  Dummy renamings are a projection, not
relations: under the descending order, the renaming group G_D (pair swaps
and pair permutations of the first 2p slots, acting on the right) leaves
one standard permutation per coset pi*G_D, its minimum.  Simplification
projects the expression onto coset minima and sieves it through the basis
of the product relations (per-factor relations lifted onto the product
slots, commutativity of identical factors), translated right and projected
the same way.  A factor's relations are translated once per double coset
S_a*rho*G_D, S_a permuting its slot block on the left (the double cosets
of Butler-Portugal).  Per-expression bases are always rebuilt, never
cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations as _permutations
from math import factorial
from typing import Callable, Iterable, Optional, Sequence

from . import galg, kbasis, perm
from .galg import GroupVector
from .kbasis import KBasis
from .perm import Perm

# A raw term is (coefficient, factors); a factor is (tensor name, index names).
RawFactor = tuple[str, tuple[str, ...]]
RawTerm = tuple[Fraction | int, tuple[RawFactor, ...]]


class TensorError(ValueError):
    pass


class DegreeLimitError(TensorError):
    """Expression degree exceeds the configured factorial-growth guard."""


@dataclass(frozen=True)
class IndexSlot:
    """One reference slot: a free index or half of a dummy pair."""

    kind: str                  # "free" | "dummy"
    name: str                  # free name, or the pair's original name
    pair: int = 0              # 1-based dummy pair id
    member: int = 0            # 1 | 2
    occ: int = 0               # >0 for 3rd+ occurrences kept free


@dataclass(frozen=True)
class TensorHeader:
    factors: tuple[tuple[str, int], ...]     # (name, arity), canonical order
    slots: tuple[IndexSlot, ...]

    @property
    def degree(self) -> int:
        return len(self.slots)

    @property
    def npairs(self) -> int:
        return sum(1 for s in self.slots if s.kind == "dummy" and s.member == 1)

    def offsets(self) -> list[int]:
        out, off = [], 0
        for _, a in self.factors:
            out.append(off)
            off += a
        return out


@dataclass(frozen=True)
class TensorExpr:
    header: TensorHeader
    vec: GroupVector

    def is_zero(self) -> bool:
        return self.vec.is_zero()


@dataclass
class SimplifyResult:
    canonical: TensorExpr
    shortest: TensorExpr
    basis_dim: int


@dataclass
class BasicTensor:
    name: str
    arity: Optional[int] = None
    display: Optional[tuple[str, ...]] = None
    _k0: Optional[KBasis] = None
    _k0_packed: Optional[kbasis.PackedRows] = None

    def k0_basis(self) -> KBasis:
        if self._k0 is not None:
            return self._k0
        if self._k0_packed is not None:
            return kbasis.load_packed(self._k0_packed)
        if self.arity is None:
            raise TensorError(f"arity of {self.name} is not fixed yet")
        return KBasis(self.arity)

    def store_k0(self, b: KBasis, packed: bool):
        if packed:
            self._k0, self._k0_packed = None, kbasis.dump_packed(b)
        else:
            self._k0, self._k0_packed = b, None


def all_perms(n: int):
    """All elements of S_n in lexicographic order."""
    for m in _permutations(range(1, n + 1)):
        yield Perm._trusted(m)


def coset_reps(n: int, npairs: int):
    """The minima of the cosets pi*G_D in lexicographic order: each of the
    first npairs slot pairs ascending, the pairs ascending by first member.
    Without pairs this is all of S_n, as all_perms yields it."""
    lead = 2 * npairs

    def extend(prefix, rest):
        i = len(prefix)
        if i == lead:
            for tail in _permutations(rest):
                yield Perm._trusted(prefix + tail)
            return
        lo = prefix[i - 2 + i % 2] if i else 0
        for x in rest:
            if x > lo:
                yield from extend(prefix + (x,),
                                  tuple(y for y in rest if y != x))

    return extend((), tuple(range(1, n + 1)))


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
    acc: dict[tuple[int, ...], Fraction] = {}
    for c, p in v.terms:
        k = coset_minimum(p.map, lead)
        old = acc.get(k)
        acc[k] = c if old is None else old + c
    return galg.from_dict(v.degree,
                          {Perm._trusted(k): c for k, c in acc.items()})


def double_coset_reps(rhos: Iterable[Perm], lo: int, hi: int,
                      npairs: int) -> list[Perm]:
    """The first of `rhos` in each double coset S_a*rho*G_D, where S_a
    permutes the values lo+1..hi of a map (acting on the left) and G_D
    renames the first npairs slot pairs (on the right).  The key drops
    which block value sits where (one token, 0, for all of them) and then
    takes the coset minimum of what is left."""
    reps: dict[tuple, Perm] = {}
    for rho in rhos:
        key = tuple(0 if lo < x <= hi else x for x in rho.map)
        reps.setdefault(coset_minimum(key, 2 * npairs), rho)
    return list(reps.values())


def estimate_memory(n: int) -> tuple[float, float]:
    """Storage estimate for a full relation basis at degree n.

    Assumes 4 cells per stored term, an average of 2 terms per basis row
    and 8-byte cells; returns (million cells, MByte) with the MByte column
    using a 1024*1000 divisor for table fidelity.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    cells = factorial(n) * 4 * 2
    return cells / 10**6, cells * 8 / (1024 * 1000)


class Registry:
    """Declared basic tensors, their stored bases and the global switches."""

    def __init__(self, diag: Optional[Callable[[str], None]] = None,
                 max_rank: int = 8):
        self.tensors: dict[str, BasicTensor] = {}
        self.switches = {"dummypri": False, "shortest": False, "packed": True}
        self.max_rank = max_rank
        self.messages: list[str] = []
        self._diag = diag

    def note(self, msg: str):
        self.messages.append(msg)
        if self._diag is not None:
            self._diag(msg)

    # -- declarations --------------------------------------------------

    def declare(self, name: str):
        if name in self.tensors:
            self.note(f"+++ {name} is already declared as tensor.")
            return
        self.tensors[name] = BasicTensor(name)

    def undeclare(self, name: str):
        if name not in self.tensors:
            self.note(f"+++ {name} is not a tensor.")
            return
        del self.tensors[name]

    def _check_rank(self, n: int):
        """The factorial-growth guard, for expressions and relations."""
        if n > self.max_rank:
            mc, mb = estimate_memory(n)
            raise DegreeLimitError(
                f"{n} indices exceed the rank limit of {self.max_rank}; the "
                f"group algebra of S_{n} needs about {mc:.1f} Mcells "
                f"({mb:.1f} MByte) -- raise the rank limit to proceed")

    def _fix_arity(self, name: str, arity: int) -> BasicTensor:
        t = self.tensors.get(name)
        if t is None:
            raise TensorError(f"{name} is not declared as tensor")
        if t.arity is None:
            if arity < 1:
                raise TensorError(f"{name} must have at least one index")
            t.arity = arity
        elif t.arity != arity:
            raise TensorError(
                f"{name} takes {t.arity} indices, given {arity}")
        return t

    def declare_symmetry(self, terms: Sequence[RawTerm]):
        """Add one relation (a vanishing combination of one basic tensor)
        to that tensor's stored basis."""
        if not terms:
            raise TensorError("empty symmetry relation")
        name = None
        parsed = []
        for c, facs in terms:
            if len(facs) != 1:
                raise TensorError("symmetry relations must be single products"
                                  " of one basic tensor")
            fname, idx = facs[0]
            if name is None:
                name = fname
            elif fname != name:
                raise TensorError("symmetry relation mixes different tensors")
            if len(set(idx)) != len(idx):
                raise TensorError("dummy indices are not allowed in symmetry"
                                  " relations")
            parsed.append((Fraction(c), idx))
        self._check_rank(len(parsed[0][1]))
        tensor = self._fix_arity(name, len(parsed[0][1]))
        ref = parsed[0][1]
        if tensor.display is None:
            tensor.display = tuple(ref)
        n = len(ref)
        acc: dict[Perm, Fraction] = {}
        for c, idx in parsed:
            if sorted(idx) != sorted(ref):
                raise TensorError("symmetry relation terms must use the same"
                                  " index names")
            pi = _term_perm(idx, ref)
            acc[pi] = acc.get(pi, Fraction(0)) + c
        g = galg.from_dict(n, acc)
        if g.is_zero():
            return
        b = tensor.k0_basis()
        b.build(galg.translate_right(g, rho) for rho in all_perms(n))
        tensor.store_k0(b, self.switches["packed"])

    # -- expression construction ---------------------------------------

    def normalize(self, terms: Sequence[RawTerm]) -> TensorExpr:
        """Canonical factor order, dummy detection and the shared header.

        Repeated index names pair up by their first two occurrences; any
        further occurrence stays free, with a diagnostic.
        """
        if not terms:
            raise TensorError("empty tensor expression")
        norm = []
        for c, facs in terms:
            if not facs:
                raise TensorError("term without tensor factors")
            facs = tuple(sorted(facs, key=lambda f: f[0]))
            for fname, idx in facs:
                self._fix_arity(fname, len(idx))
            names = [x for _, idx in facs for x in idx]
            counts: dict[str, int] = {}
            for x in names:
                counts[x] = counts.get(x, 0) + 1
            keys: list[tuple] = []
            pair_of: dict[str, int] = {}
            pair_names: dict[int, str] = {}
            seen: dict[str, int] = {}
            for x in names:
                occ = seen.get(x, 0)
                seen[x] = occ + 1
                if counts[x] >= 2 and occ < 2:
                    if occ == 0:
                        pid = len(pair_names) + 1
                        pair_of[x] = pid
                        pair_names[pid] = x
                        keys.append(("d", pid, 1))
                    else:
                        keys.append(("d", pair_of[x], 2))
                else:
                    if occ >= 2:
                        self.note(f"+++ index {x} appears more than twice;"
                                  " extra occurrences are kept free")
                    keys.append(("f", x, occ))
            norm.append((Fraction(c), tuple(f[0] for f in facs),
                         tuple(len(f[1]) for f in facs), keys, pair_names))

        _, names0, arities0, keys0, pairs0 = norm[0]
        ref_keys = [("d", k, m) for k in range(1, len(pairs0) + 1)
                    for m in (1, 2)]
        ref_keys += sorted(k for k in keys0 if k[0] == "f")
        refset = sorted(ref_keys)
        slots = []
        for kind, a, b in ref_keys:
            if kind == "d":
                slots.append(IndexSlot("dummy", pairs0[a], pair=a, member=b))
            else:
                slots.append(IndexSlot("free", a, occ=b))
        header = TensorHeader(tuple(zip(names0, arities0)), tuple(slots))

        n = header.degree
        acc: dict[Perm, Fraction] = {}
        for c, names, _, keys, _ in norm:
            if names != names0:
                raise TensorError("terms of one expression must share the"
                                  " same product of basic tensors")
            if sorted(keys) != refset:
                raise TensorError("terms of one expression must carry the"
                                  " same free indices")
            pi = _term_perm(keys, ref_keys)
            acc[pi] = acc.get(pi, Fraction(0)) + c
        return TensorExpr(header, galg.from_dict(n, acc))

    # -- relation generation -------------------------------------------

    def product_relations(self, header: TensorHeader) -> list[GroupVector]:
        """Relations of the product modulo dummy renamings: per-factor
        basis rows embedded onto their slot block, and the block-swap
        commutativity of identical factors, each translated right and
        projected onto coset minima.

        A factor's rows are translated only by one rho per double coset
        S_a*rho*G_D, with S_a the permutations of the factor's slot block:
        a stored basis is closed under right translation by S_a
        (`declare_symmetry` translates each relation over all of it), so
        for sigma in S_a the translate lift(r)*lift(sigma)*rho =
        lift(r*sigma)*rho is already in the span of the rows translated
        by rho, and G_D on the right is absorbed by the projection.

        A swap sigma translated by a coset minimum rho projects to
        e_rho' - e_rho, rho' the minimum of sigma*rho.  sigma is an
        involution, so rho' gives the same relation negated and rho' ==
        rho gives zero: only the rho with rho' > rho are kept."""
        n, p = header.degree, header.npairs
        rels: list[GroupVector] = []
        rhos = list(coset_reps(n, p))
        offs = header.offsets()
        for (fname, arity), off in zip(header.factors, offs):
            t = self.tensors.get(fname)
            if t is None:
                raise TensorError(f"{fname} is not declared as tensor")
            reps = double_coset_reps(rhos, off, off + arity, p)
            for row in t.k0_basis().rows:
                lifted = galg.lift_right(galg.lift_left(row, off),
                                         n - off - arity)
                rels.extend(project(galg.translate_right(lifted, rho), p)
                            for rho in reps)
        for i in range(len(header.factors)):
            for j in range(i + 1, len(header.factors)):
                if header.factors[i][0] != header.factors[j][0]:
                    continue
                a = header.factors[i][1]
                m = list(range(1, n + 1))
                for s in range(a):
                    m[offs[i] + s], m[offs[j] + s] = m[offs[j] + s], m[offs[i] + s]
                sigma = Perm._trusted(tuple(m))
                for rho in rhos:
                    swapped = coset_minimum(perm.multiply(sigma, rho).map,
                                            2 * p)
                    if swapped > rho.map:
                        rels.append(galg.add(galg.unit(Perm._trusted(swapped)),
                                             galg.unit(rho, -1)))
        return rels

    def dummy_relations(self, header: TensorHeader) -> list[GroupVector]:
        """Renaming relations: swap the two names of each pair, and swap
        adjacent whole pairs (these generate the full renaming group).
        Simplification projects instead; these remain as the reference
        that the projection replaces."""
        n = header.degree
        p = header.npairs
        gens: list[Perm] = []
        for k in range(1, p + 1):
            m = list(range(1, n + 1))
            m[2 * k - 2], m[2 * k - 1] = m[2 * k - 1], m[2 * k - 2]
            gens.append(Perm._trusted(tuple(m)))
        for k in range(1, p):
            m = list(range(1, n + 1))
            m[2 * k - 2], m[2 * k] = m[2 * k], m[2 * k - 2]
            m[2 * k - 1], m[2 * k + 1] = m[2 * k + 1], m[2 * k - 1]
            gens.append(Perm._trusted(tuple(m)))
        rels: list[GroupVector] = []
        for g in gens:
            rels.extend(
                galg.add(galg.unit(perm.multiply(pi, g)), galg.unit(pi, -1))
                for pi in all_perms(n))
        return rels

    def expression_basis(self, header: TensorHeader) -> KBasis:
        """Build the transient basis of the product relations modulo dummy
        renamings; its rows live on coset minima."""
        self._check_rank(header.degree)
        return KBasis(header.degree).build(self.product_relations(header))

    # -- simplification ------------------------------------------------

    def simplify(self, expr: TensorExpr) -> SimplifyResult:
        """Canonical and shortest forms.  The forms met are the input, its
        projection onto coset minima and each elimination step; shortest
        is the one with the fewest terms, the earliest on ties.  basis_dim
        is dim K: the basis rows plus the n! - #cosets renaming pivots."""
        h = expr.header
        n, p = h.degree, h.npairs
        b = self.expression_basis(h)
        canonical, shortest = b.sieve_trace(project(expr.vec, p))
        if len(expr.vec) <= len(shortest):
            shortest = expr.vec
        cosets = factorial(n) // (2 ** p * factorial(p))
        return SimplifyResult(TensorExpr(h, canonical),
                              TensorExpr(h, shortest),
                              b.dim() + factorial(n) - cosets)

    def equal(self, a: TensorExpr, b) -> bool:
        """Do two expressions agree under all declared relations?"""
        if b == 0:
            return self.simplify(a).canonical.is_zero()
        if not _compatible(a.header, b.header):
            raise TensorError("expressions have incompatible headers")
        diff = TensorExpr(a.header, galg.add(a.vec, galg.negate(b.vec)))
        return self.simplify(diff).canonical.is_zero()


def _compatible(h1: TensorHeader, h2: TensorHeader) -> bool:
    if h1.factors != h2.factors:
        return False
    free1 = sorted((s.name, s.occ) for s in h1.slots if s.kind == "free")
    free2 = sorted((s.name, s.occ) for s in h2.slots if s.kind == "free")
    return free1 == free2 and h1.npairs == h2.npairs


def _term_perm(keys: Sequence, ref: Sequence) -> Perm:
    """Permutation of a term relative to the reference slot list.

    With sigma the selection with keys = apply(sigma, ref), the term's
    permutation is sigma^{-1}; symmetry relations then close under right
    translation and dummy renamings act by right factors.
    """
    where = {k: i + 1 for i, k in enumerate(ref)}
    if len(where) != len(ref):
        raise TensorError("reference slots are not distinct")
    try:
        sigma = tuple(where[k] for k in keys)
    except KeyError as e:
        raise TensorError(f"index {e.args[0]!r} not present in the reference"
                          " slots") from None
    return perm.inverse(Perm(sigma))

"""Tensor expressions and their canonicalization.

A tensor expression is a linear combination of products of declared basic
tensors sharing one header: the factor list, the names of the p dummy
pairs, pair k in reference slots 2k-1 and 2k, and the free slots after
them, sorted by (name, occurrence).  Each term corresponds to a
permutation of the reference slots, so the whole expression is a
GroupVector in the group algebra of S_n.

The registry stores, per basic tensor, a triangle basis K0 of its symmetry
and linear-identity relations.  On first use it reads the tensor's signed
monoterm group off K0's rows e_g - s*e_id: the (g, s) with e_g = s*e_id
modulo K0, the pair exchange of a Riemann-type tensor included, and keeps
the other rows, projected, as the multiterm rows.  Together with the block
swaps of identical factors, these act on the left of a product's terms and
the dummy renamings G_D (pair swaps and pair permutations of the first 2p
slots) act on the right without sign.  A term is mapped onto the minimum
of its signed double coset G*pi*G_D, or to zero when the orbit's signed
stabilizer holds -1: `normalize` writes it on its coset minimum under G_D
(each pair sorted, then the pairs sorted), numbering the pairs by first
occurrence, and a table of the signed orbits of those minima maps it on,
filled one orbit at a time when a lookup first meets it, each walked or,
when a walked root has its pair prefix, that orbit's right translate by a
permutation of the free slots.  Only the multiterm
identities are left for the sieve: each tensor's multiterm rows, lifted
onto each block of the factor, translated right by the minimum of each
orbit they reach from the input and mapped through the table, until no
orbit is new.  The orbits so closed carry a direct summand of the
relations.  Reading a result's basis_dim closes every orbit.

The table and the multiterm basis depend only on the factor list and the
number of dummy pairs, never on the free index names or the coefficients,
so a registry memoizes them per (factors, npairs), the basis growing by
the orbits each new input reaches.  The memo charges each header its
n!/(2^p*p!) coset minima, at most max_rank! in all (the guard's bound on
one header), evicting the least recently used header first; it is cleared
whenever a stored basis changes or a tensor is undeclared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, permutations as _permutations
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import galg, perm
from .galg import GroupVector
from .kbasis import KBasis

# A raw term is (coefficient, factors); a factor is (tensor name, index
# names), tuples as `frontend.parse` builds them: `normalize` hashes them.
RawFactor = tuple[str, tuple[str, ...]]
RawTerm = tuple[Fraction | int, tuple[RawFactor, ...]]
# A signed monoterm symmetry (g, s), g a one-line map acting on the left.
Generator = tuple[tuple[int, ...], int]
_FIRST = itemgetter(0)


class TensorError(ValueError):
    pass


class DegreeLimitError(TensorError):
    """Expression degree exceeds the configured factorial-growth guard."""


class Record:
    """Base of the value classes: set, compared and shown by `_fields`, the
    slots of the class and its bases unless it names them; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls._fields + cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(shown)})"


class Frozen(Record):
    """An immutable record, hashed by value."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


class TensorHeader(Frozen):
    """The factors, (name, arity) in canonical order, and the reference
    slots: dummy pair k in slots 2k-1 and 2k, `pairs` naming each pair,
    then the free slots, `free` giving each one's (name, occurrence)."""

    __slots__ = ("factors", "pairs", "free")

    @property
    def degree(self) -> int:
        return 2 * len(self.pairs) + len(self.free)

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    @property
    def cosets(self) -> int:
        """The n!/(2^p*p!) minima of the cosets pi*G_D."""
        p = self.npairs
        return factorial(self.degree) // (2 ** p * factorial(p))

    def offsets(self) -> list[int]:
        out, off = [], 0
        for _, a in self.factors:
            out.append(off)
            off += a
        return out


class TensorExpr(Frozen):
    __slots__ = ("header", "vec")       # TensorHeader, GroupVector

    def is_zero(self) -> bool:
        return self.vec.is_zero()


class SimplifyResult(Record):
    __slots__ = ("canonical", "shortest", "quotient")
    _fields = ("canonical", "shortest")     # not the header's closure

    def __init__(self, canonical: TensorExpr, shortest: TensorExpr,
                 quotient: Closure):
        super().__init__(canonical, shortest)
        self.quotient = quotient

    @property
    def basis_dim(self) -> int:
        """dim K: n! less the nonzero orbits, plus the rows of the basis;
        this closes the header's closure, `quotient`, over every orbit."""
        q = self.quotient
        minima = q.table.minima()
        q.close(minima)
        return factorial(q.table.n) - len(minima) + q.basis.dim()


class BasicTensor(Record):
    __slots__ = ("name", "arity", "display", "_k0", "_mono")

    def __init__(self, name: str, arity: Optional[int] = None,
                 display: Optional[tuple[str, ...]] = None):
        super().__init__(name, arity, display, None, None)   # _k0, _mono

    def k0_basis(self) -> KBasis:
        """The live stored basis, not a copy, and read-only to callers: its
        one writer, `declare_symmetry`, builds into it in place and clears
        `monoterm()` and the registry memo, which another writer would
        leave stale.  Empty, of the tensor's arity, until a relation adds
        rows."""
        if self.arity is None:
            raise TensorError(f"arity of {self.name} is not fixed yet")
        if self._k0 is None:
            self._k0 = KBasis(self.arity)
        return self._k0

    def monoterm(self) -> tuple[list[Generator], list[GroupVector]]:
        """Generators of the signed monoterm group and the multiterm rows,
        read off K0 on first use (see `monoterm_data`); a tensor without
        relations has the trivial group and no rows."""
        if self._mono is None:
            self._mono = (monoterm_data(self._k0) if self._k0 is not None
                          else ([], []))
        return self._mono


def monoterm_data(b: KBasis) -> tuple[list[Generator], list[GroupVector]]:
    """A generating set of the signed monoterm group of a stored basis and
    its multiterm rows, both read off the rows of b.

    The group holds every (g, s) with e_g = s*e_id modulo the span of b,
    which is closed under right translation, so e_rho = s*e_{g*rho}.  The
    rows are renormed and reduced and e_id is the least map, so e_id is in
    the span only as a row of its own: the tensor vanishes and (id, -1)
    generates.  Else each (g, s) is a row e_g - s*e_id, s = +-1 as the
    powers of g would otherwise give e_id.  Generators are picked greedily
    in lexicographic order, each not yet in the group of the earlier ones.
    The multiterm rows are the other rows projected onto the orbit minima
    of the group, the nonzero residues reduced; a two-term row with
    unequal coefficients stays."""
    a = b.degree
    ident = tuple(range(1, a + 1))
    rows = {row.terms[0][1]: row for row in b.rows}
    if ident in rows:
        return [(ident, -1)], []
    signs = {g: -r.terms[1][0] for g, r in rows.items()
             if len(r) == 2 and r.terms[1][1] == ident}
    gens: list[Generator] = []
    group = {ident: 1}
    for g in sorted(signs):
        if g not in group:
            gens.append((g, signs[g]))
            group = _orbit(ident, gens, 0)[0]
    table = OrbitTable(a, gens, 0)
    rest = (r for g, r in rows.items() if g not in signs)
    return gens, KBasis(a).build(orbit_project(r, table) for r in rest).rows


def _reader(x: Sequence) -> Callable[[Sequence], tuple]:
    """itemgetter(*x), which gives a tuple also for one index.

    Read off a term's {key: 1-based position} dict, the reference keys x
    give the term's map: sigma^{-1}, with sigma the selection such that
    the term's i-th key is x[sigma[i]].  Symmetry relations then close
    under right translation and dummy renamings act by right factors."""
    return itemgetter(*x) if len(x) > 1 else lambda g, v=x[0]: (g[v],)


def _orbit(root: tuple, gens: Sequence[Generator],
           lead: int) -> tuple[dict[tuple, int], bool]:
    """The signed orbit of the coset minimum root: each member x with the
    sign s of e_x = s*e_root, and whether the orbit's signed stabilizer
    holds -1 (a member met with both signs).  A generator (g, s) maps x to
    the coset minimum of g*x; e_x = s*e_{g*x}."""
    gens = [((0,) + g, s) for g, s in gens]
    sign = {root: 1}
    queue = [root]
    zero = False
    for x in queue:
        sx = sign[x]
        act = _reader(x)   # g*x is (g[x[0]], ...)
        for g, s in gens:
            y = act(g)
            if lead:
                y = coset_minimum(y, lead)
            old = sign.get(y)
            if old is None:
                sign[y] = sx * s
                queue.append(y)
            elif old != sx * s:
                zero = True
    return sign, zero


class OrbitTable(dict):
    """The signed orbit table of the coset minima of n slots with npairs
    dummy pairs, filled one orbit at a time: looking up a minimum x not
    yet present enters every member y of its orbit as (s, m), with
    e_y = s*e_m and m the orbit minimum, or as None when the orbit
    vanishes.  G acts on the left and G_D on the first 2p slots on the
    right, so both commute with any r permuting only the free slots.  An
    orbit is walked only when no walked root shares x's pair prefix
    x[:2p]; else it is that root's translate by r = root^-1*x, y*r with
    y's sign, as coset_minimum(y*r) = coset_minimum(y)*r."""

    def __init__(self, n: int, gens: Sequence[Generator], npairs: int):
        super().__init__()
        self.n, self.gens, self.npairs = n, gens, npairs
        # pair prefix -> a walked root's {value: slot}, sign dict, zero
        self._walked: dict[tuple, tuple[dict, dict, bool]] = {}

    def __missing__(self, x: tuple) -> Optional[tuple[int, tuple]]:
        lead = 2 * self.npairs
        prefix = x[:lead]
        hit = self._walked.get(prefix)
        if hit is None:
            sign, zero = _orbit(x, self.gens, lead)
            # with one free slot or none a prefix fixes the whole map
            if self.n - lead > 1:
                self._walked[prefix] = ({v: i for i, v in enumerate(x)},
                                        sign, zero)
        else:
            where, walked, zero = hit
            # (y*r)[i] = y[r[i]], r 0-based; at least two slots here
            r = itemgetter(*map(where.__getitem__, x))
            sign = {r(y): s for y, s in walked.items()}
        m = min(sign)
        sm = sign[m]
        self.update({y: None if zero else (s * sm, m)
                     for y, s in sign.items()})
        return self[x]

    def fill(self) -> "OrbitTable":
        """Enter every orbit not yet entered, in ascending order of minima."""
        for rho in coset_reps(self.n, self.npairs):
            if rho not in self:
                self.__missing__(rho)
        return self

    def minima(self) -> list[tuple]:
        """Fill the table; the minima of its nonzero orbits."""
        return [x for x, hit in self.fill().items()
                if hit is not None and hit[1] == x]


class Closure:
    """A header's orbit table and the basis of its multiterm relations on
    the orbits closed so far; `rows` are the factors' multiterm rows lifted
    onto every block, each of identical factors too, as a block swap
    carries one block's translates onto another's.  A row is its list of
    (c, (0,)+q) terms: the translate by m has the maps q*m, read at m."""

    def __init__(self, table: OrbitTable, rows: list[list[tuple]]):
        self.table, self.rows = table, rows
        self.basis = KBasis(table.n)
        self.closed: set[tuple] = set()

    def close(self, minima: Iterable[tuple]) -> list[GroupVector]:
        """Close the orbits of the distinct orbit minima `minima`; build
        the new relations into the basis and return them."""
        table, closed = self.table, self.closed
        queue = [m for m in minima if m not in closed]
        closed.update(queue)
        rels: list[GroupVector] = []
        for m in queue:
            act = _reader(m)
            for row in self.rows:
                r = orbit_project([(c, act(q)) for c, q in row], table)
                if not r.is_zero():
                    rels.append(r)
                    for _, x in r.terms:
                        if x not in closed:
                            closed.add(x)
                            queue.append(x)
        self.basis.build(rels)
        return rels


def orbit_project(terms: Iterable[tuple], table: OrbitTable) -> GroupVector:
    """Map every (coefficient, map) term, a vector's too, onto the minimum
    of its signed double coset, its coset minimum first and then through
    the table, adding coefficients."""
    lead = 2 * table.npairs
    acc: dict[tuple, int | Fraction] = {}
    for c, p in terms:
        hit = table[coset_minimum(p, lead) if lead else p]
        if hit is not None:
            s, m = hit
            acc[m] = acc.get(m, 0) + (c if s > 0 else -c)
    return galg.from_dict(table.n, acc)


def coset_reps(n: int, npairs: int):
    """The minima of the cosets pi*G_D in lexicographic order: each of the
    first npairs slot pairs ascending, the pairs ascending by first member.
    Without pairs this is all of S_n in lexicographic order."""
    lead = 2 * npairs

    def extend(prefix, rest):
        i = len(prefix)
        if i == lead:
            for tail in _permutations(rest):
                yield prefix + tail
            return
        lo = prefix[i - 2 + i % 2] if i else 0
        # a pair's first member needs 2*(pairs left) - 1 larger values
        # unused, for its partner and the later pairs
        stop = len(rest) if i % 2 else len(rest) - lead + i + 1
        for x in rest[:stop]:
            if x > lo:
                yield from extend(prefix + (x,),
                                  tuple(y for y in rest if y != x))

    return extend((), tuple(range(1, n + 1)))


def coset_minimum(m: tuple, lead: int) -> tuple:
    """The smallest map of the coset m*G_D, where G_D renames the pairs
    in the first `lead` slots: each pair sorted, then the pairs sorted."""
    if lead == 2:
        return m if m[0] < m[1] else (m[1], m[0]) + m[2:]
    if lead == 4:
        a, b, c, d = m[:4]
        if a > b:
            a, b = b, a
        if c > d:
            c, d = d, c
        return ((a, b, c, d) if a < c else (c, d, a, b)) + m[4:]
    pairs = sorted([(a, b) if a < b else (b, a)
                    for a, b in zip(m[0:lead:2], m[1:lead:2])])
    return sum(pairs, ()) + m[lead:]


def estimate_memory(n: int) -> tuple[float, float]:
    """Storage estimate for a full relation basis at degree n.

    Assumes 4 cells per stored term, an average of 2 terms per basis row
    and 8-byte cells; returns (million cells, MByte) with the MByte column
    using a 1024*1000 divisor for table fidelity.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return _estimate(factorial(n))


def _estimate(count: int) -> tuple[float, float]:
    """(million cells, MByte) of `count` rows, as `estimate_memory`."""
    cells = count * 4 * 2
    return cells / 10**6, cells * 8 / (1024 * 1000)


class Registry:
    """Declared basic tensors and their stored bases."""

    def __init__(self, diag: Optional[Callable[[str], None]] = None,
                 max_rank: int = 8):
        self.tensors: dict[str, BasicTensor] = {}
        self.max_rank = max_rank
        self.messages: list[str] = []
        self._diag = diag
        # (factors, npairs) -> (closure, cosets), least recently used first
        self._memo: dict[tuple, tuple[Closure, int]] = {}

    def note(self, msg: str):
        """Send a note to `diag`, or keep it in `messages` without one."""
        (self._diag or self.messages.append)(msg)

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
        self._memo.clear()

    def _check_rank(self, n: int):
        """The factorial-growth guard on the arity of relations, and on
        the degree of headers without dummy pairs."""
        if n > self.max_rank:
            mc, mb = estimate_memory(n)
            raise DegreeLimitError(
                f"{n} indices exceed the rank limit of {self.max_rank}; the "
                f"group algebra of S_{n} needs about {mc:.1f} Mcells "
                f"({mb:.1f} MByte) -- raise the rank limit to proceed")

    def _check_cosets(self, header: TensorHeader):
        """The guard on a header's n!/(2^p*p!) coset minima, which the
        orbit table and the translates enumerate: at most max_rank!.
        Without pairs that is the rank guard."""
        n, p = header.degree, header.npairs
        if not p:
            return self._check_rank(n)
        cosets = header.cosets
        limit = factorial(self.max_rank)
        if cosets > limit:
            mc, mb = _estimate(cosets)
            raise DegreeLimitError(
                f"{n} indices with {p} dummy pairs give {cosets} cosets, "
                f"more than the {limit} (= {self.max_rank}!) of the rank "
                f"limit of {self.max_rank}; they need about {mc:.1f} Mcells "
                f"({mb:.1f} MByte) -- raise the rank limit to proceed")

    def _fix_arity(self, name: str, arity: int,
                   pending: dict[str, int]) -> BasicTensor:
        """Check `arity` against the one fixed for `name`, in the tensor or
        in `pending`, and enter it in `pending` if none is."""
        t = self.tensors.get(name)
        if t is None:
            raise TensorError(f"{name} is not declared as tensor")
        fixed = t.arity or pending.get(name)
        if fixed is None:
            if arity < 1:
                raise TensorError(f"{name} must have at least one index")
            pending[name] = arity
        elif fixed != arity:
            raise TensorError(f"{name} takes {fixed} indices, given {arity}")
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
            parsed.append((galg.coef(c), idx))
        ref = parsed[0][1]
        n = len(ref)
        self._check_rank(n)
        tensor = self._fix_arity(name, n, {})
        take = _reader(ref)
        acc: dict[tuple, int | Fraction] = {}
        for c, idx in parsed:
            if sorted(idx) != sorted(ref):
                raise TensorError("symmetry relation terms must use the same"
                                  " index names")
            pi = take(dict(zip(idx, count(1))))
            acc[pi] = acc.get(pi, 0) + c
        # a refused relation leaves the tensor as it was
        tensor.arity = n
        if tensor.display is None:
            tensor.display = tuple(ref)
        terms = [(c, (0,) + q) for q, c in acc.items() if c]
        if not terms:
            return
        # the translate by rho has the maps q*rho, (0,)+q read at rho
        tensor._mono = None
        tensor.k0_basis().build([(c, act(q)) for c, q in terms]
                                for act in map(_reader, coset_reps(n, 0)))
        self._memo.clear()

    # -- expression construction ---------------------------------------

    def normalize(self, terms: Sequence[RawTerm]) -> TensorExpr:
        """Canonical factor order, dummy detection and the shared header.

        Repeated index names pair up by their first two occurrences; any
        further occurrence stays free, with one diagnostic per name.  The
        first term fixes the header; a term that does not fit it is refused
        once every term is checked.  The arities the expression fixes are
        kept only if it is accepted, by the coset guard of `simplify` too.
        Each ordered product is mapped once: a term whose ordered factors
        an earlier term brought into the vector adds its coefficient at
        that map, until a term is refused.
        """
        if not terms:
            raise TensorError("empty tensor expression")
        tensors = self.tensors
        pending: dict[str, int] = {}
        noted: set[str] = set()
        acc: dict[tuple, int | Fraction] = {}
        done: dict[tuple, tuple] = {}   # ordered factors -> map, in acc
        header = error = None
        for c, facs in terms:
            if not facs:
                raise TensorError("term without tensor factors")
            if len(facs) == 2:     # as the stable sort: equal names stay
                f, g = facs
                if g[0] < f[0]:
                    facs = g, f
            elif len(facs) > 2:
                facs = tuple(sorted(facs, key=_FIRST))
            # factors already in acc pass the same checks, give the same map
            if error is None and facs in done:
                acc[done[facs]] += galg.coef(c)
                continue
            product, names = [], []
            for fname, idx in facs:
                t = tensors.get(fname)
                if t is None or t.arity != len(idx):
                    self._fix_arity(fname, len(idx), pending)
                product.append(fname)
                names += idx
            # a term is keyed by its slot keys if it has pairs, else by its
            # index names, as a pair-free header reads them
            if header is None or header.pairs:
                keys, pair_names = self._slot_keys(names, noted)
                pos = dict(zip(keys if pair_names else names, count(1)))
            else:
                pos = dict(zip(names, count(1)))
                if len(pos) < len(names):    # refused below, after the note
                    self._slot_keys(names, noted)
            c = galg.coef(c)
            if header is None:
                free = sorted(k for k in keys if k[0] == "f")
                header = TensorHeader(tuple([(f, len(x)) for f, x in facs]),
                                      tuple(pair_names),
                                      tuple([k[1:] for k in free]))
                product0 = product
                ref_keys = [("d", k, m) for k in range(1, len(pair_names) + 1)
                            for m in (1, 2)] + free
                take = _reader(ref_keys if pair_names
                               else [x for _, x, _ in free])
            if error is None and product != product0:
                error = ("terms of one expression must share the same"
                         " product of basic tensors")
            if error is not None:
                continue
            # `take` reads the n reference keys off the term's keys, at most
            # n as the products are equal: the term fits the header exactly
            # when each reference key is among them; one that is not raises
            # KeyError
            try:
                m = take(pos)
            except KeyError:
                error = ("terms of one expression must carry the same free"
                         " indices")
                continue
            acc[m] = acc.get(m, 0) + c
            done[facs] = m
        if error is not None:
            raise TensorError(error)
        self._check_cosets(header)
        for fname, arity in pending.items():
            tensors[fname].arity = arity
        return TensorExpr(header, galg.from_dict(header.degree, acc))

    def _slot_keys(self, names: list[str],
                   noted: set[str]) -> tuple[list[tuple], list[str]]:
        """The slot key of each index name of a term, ("d", pair, member)
        or ("f", name, occurrence), and the names of its pairs in order;
        a name met more than twice is noted unless it is in `noted`."""
        counts: dict[str, int] = {}
        for x in names:
            counts[x] = counts.get(x, 0) + 1
        keys: list[tuple] = []
        pair_of: dict[str, int] = {}
        pair_names: list[str] = []
        seen: dict[str, int] = {}
        for x in names:
            occ = seen.get(x, 0)
            seen[x] = occ + 1
            if counts[x] >= 2 and occ < 2:
                if occ == 0:
                    pair_names.append(x)
                    pid = pair_of[x] = len(pair_names)
                    keys.append(("d", pid, 1))
                else:
                    keys.append(("d", pair_of[x], 2))
            else:
                if occ >= 2 and x not in noted:
                    noted.add(x)
                    self.note(f"+++ index {x} appears more than twice;"
                              " extra occurrences are kept free")
                keys.append(("f", x, occ))
        return keys, pair_names

    # -- relation generation -------------------------------------------

    def _closure(self, header: TensorHeader) -> Closure:
        """A new closure of the header, its table generated by the lifted
        monoterm generators and the swaps of adjacent identical blocks."""
        n = header.degree
        gens: list[Generator] = []
        rows: list[list[tuple]] = []

        def embed(g):
            # a factor's map on the slots off+1..off+arity, the others fixed
            return head + tuple([v + off for v in g]) + tail
        for k, ((fname, arity), off) in enumerate(zip(header.factors,
                                                      header.offsets())):
            t = self.tensors.get(fname)
            if t is None:
                raise TensorError(f"{fname} is not declared as tensor")
            tgens, trows = t.monoterm()
            head = tuple(range(1, off + 1))
            tail = tuple(range(off + arity + 1, n + 1))
            gens.extend((embed(g), s) for g, s in tgens)
            if k and header.factors[k - 1][0] == fname:
                m = list(range(1, n + 1))
                m[off - arity:off + arity] = m[off:off + arity] + m[off - arity:off]
                gens.append((tuple(m), 1))
            rows.extend([(c, (0,) + embed(p)) for c, p in row.terms]
                        for row in trows)
        return Closure(OrbitTable(n, gens, header.npairs), rows)

    def _header_closure(self, header: TensorHeader) -> Closure:
        """The header's closure, memoized per (factors, npairs).  A new
        entry evicts the least recently used ones until the coset counts
        add up to at most max_rank!, the most minima the tables can grow
        to; the guard has checked that the entry alone fits."""
        key = (header.factors, header.npairs)
        memo = self._memo
        hit = memo.pop(key, None)
        if hit is None:
            hit = self._closure(header), header.cosets
            cap = factorial(self.max_rank) - hit[1]
            while memo and sum(e[1] for e in memo.values()) > cap:
                del memo[next(iter(memo))]
        memo[key] = hit
        return hit[0]

    def product_relations(self, header: TensorHeader) -> list[GroupVector]:
        """Relations of the product modulo dummy renamings, on coset
        minima: the multiterm relations of a new closure over every orbit,
        then the orbit relations, e_x - s*e_m for each coset minimum x
        with e_x = s*e_m, m its orbit minimum, and e_x for each member of
        a vanishing orbit.  Together they span the product relations
        projected onto coset minima."""
        n = header.degree
        closure = self._closure(header)
        rels = closure.close(closure.table.minima())
        # the orbit minimum m is below x, so the terms are in descending order
        for x, hit in closure.table.items():
            if hit is None:
                rels.append(GroupVector(n, ((1, x),), _normalized=True))
            elif hit[1] != x:
                rels.append(GroupVector(n, ((1, x), (-hit[0], hit[1])),
                                        _normalized=True))
        return rels

    def dummy_relations(self, header: TensorHeader) -> list[GroupVector]:
        """Renaming relations: swap the two names of each pair, and swap
        adjacent whole pairs (these generate the full renaming group).
        Simplification projects instead; these remain as the reference
        that the projection replaces."""
        n = header.degree
        p = header.npairs
        gens: list[tuple] = []
        for k in range(1, p + 1):
            m = list(range(1, n + 1))
            m[2 * k - 2], m[2 * k - 1] = m[2 * k - 1], m[2 * k - 2]
            gens.append(tuple(m))
        for k in range(1, p):
            m = list(range(1, n + 1))
            m[2 * k - 2], m[2 * k] = m[2 * k], m[2 * k - 2]
            m[2 * k - 1], m[2 * k + 1] = m[2 * k + 1], m[2 * k - 1]
            gens.append(tuple(m))
        rels: list[GroupVector] = []
        for g in gens:
            rels.extend(galg.from_dict(n, {perm.multiply(pi, g): 1, pi: -1})
                        for pi in coset_reps(n, 0))
        return rels

    def expression_basis(self, header: TensorHeader) -> KBasis:
        """Build the transient basis of the product relations modulo dummy
        renamings; its rows live on coset minima."""
        self._check_cosets(header)
        return KBasis(header.degree).build(self.product_relations(header))

    # -- simplification ------------------------------------------------

    def simplify(self, expr: TensorExpr) -> SimplifyResult:
        """Canonical and shortest forms: the input, on coset minima as
        `normalize` writes it, projected onto orbit minima and sieved
        through the multiterm basis closed over its orbits.  The forms met
        are the input, its projection and each elimination step; shortest
        is the one with the fewest terms, the earliest on ties."""
        h = expr.header
        self._check_cosets(h)
        closure = self._header_closure(h)
        v = orbit_project(expr.vec, closure.table)
        closure.close(q for _, q in v.terms)
        canonical, shortest = closure.basis.sieve_trace(v)
        shortest = min(expr.vec, shortest, key=len)     # the input on ties
        return SimplifyResult(TensorExpr(h, canonical),
                              TensorExpr(h, shortest), closure)

    def equal(self, a: TensorExpr, b) -> bool:
        """Do two expressions agree under all declared relations?"""
        if b == 0:
            return self.simplify(a).canonical.is_zero()
        ha, hb = a.header, b.header
        # the free slots fix the number of pairs; pair names may differ
        if ha.factors != hb.factors or ha.free != hb.free:
            raise TensorError("expressions have incompatible headers")
        diff = TensorExpr(ha, galg.add(a.vec, galg.negate(b.vec)))
        return self.simplify(diff).canonical.is_zero()

"""The quotient by the dummy-renaming group against the full-group engine.

The engine maps every term onto the minimum of its signed double coset
G*pi*G_D, G generated by the factors' monoterm symmetries and the swaps of
identical factors, and builds its basis from the multiterm rows alone,
translated by the minima of the orbits they reach from the input.  The
reference here builds the relations that this replaces: product relations
translated over all of S_n plus the renaming relations of
`Registry.dummy_relations`, sieved through one full triangle basis.  Both
must give the same canonical vector, term for term, and the same dimension
of the relation space K.  The reference rows whose pivots are coset minima
must be the rows of `Registry.expression_basis`, term for term: a reduced
basis with renormed rows is unique.
"""

import io
import random
import re
import sys
from collections import Counter
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest

from tensorcanon import frontend, galg, oracle, perm, texpr
from tensorcanon.cli import Session
from tensorcanon.kbasis import KBasis
from tensorcanon.texpr import (DegreeLimitError, OrbitTable, Registry,
                               TensorHeader, coset_minimum, coset_reps,
                               monoterm_data, orbit_project)

from conftest import (MULTITERM, RELATIONS, check_reduced, identity,
                      make_registry, random_vector, raw_terms, translate_right,
                      unit)
import reference_monoterm
import reference_orbits
import reference_quotient
from reference_orbits import project

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SCRIPT = (ROOT / "scripts" / "golden_session.tsc").read_text()
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

ARITY = {"a2": 2, "s2": 2, "a3": 3, "s3": 3, "ri": 4, "v1": 1, "v2": 1}
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def reference_relations(reg, header):
    """Every relation of the full-group engine: per-factor rows and block
    swaps of identical factors translated over all of S_n, plus the
    renaming relations."""
    n = header.degree
    perms = list(coset_reps(n, 0))
    offs = header.offsets()
    rels = []
    for (name, arity), off in zip(header.factors, offs):
        for row in reg.tensors[name].k0_basis().rows:
            lifted = reference_quotient._lift(row, off, n - off - arity)
            rels.extend(translate_right(lifted, rho) for rho in perms)
    for sigma in block_swaps(header):
        rels.extend(galg.add(unit(perm.multiply(sigma, rho)),
                             unit(rho, -1)) for rho in perms)
    return rels + reg.dummy_relations(header)


def block_swaps(header):
    """The block swap sigma of each pair of identical factors."""
    n, offs = header.degree, header.offsets()
    for i, j in combinations(range(len(header.factors)), 2):
        name, arity = header.factors[i]
        if header.factors[j][0] == name:
            m = list(range(1, n + 1))
            for s in range(arity):
                m[offs[i] + s], m[offs[j] + s] = m[offs[j] + s], m[offs[i] + s]
            yield tuple(m)


def random_expression(rng, n, npairs, arity=ARITY):
    """1-4 terms of one random product of degree n with npairs dummy
    pairs, each term with its own factor and index order."""
    while True:
        factors, left = [], n
        while left:
            name = rng.choice([f for f, a in arity.items() if a <= left])
            factors.append(name)
            left -= arity[name]
        if len(factors) > 1 or rng.random() < 0.3:
            break
    letters = rng.sample(LETTERS, n - npairs)
    names = letters[:npairs] * 2 + letters[npairs:]
    terms = []
    for _ in range(rng.randint(1, 4)):
        order, idx, off = factors[:], names[:], 0
        rng.shuffle(order)
        rng.shuffle(idx)
        body = []
        for f in order:
            body.append(f"{f}({','.join(idx[off:off + arity[f]])})")
            off += arity[f]
        terms.append(f"{rng.choice((1, 2, -1, -3))}*{'*'.join(body)}")
    return " + ".join(terms), sorted(set(factors))


def cases(seed, count, max_degree, min_pairs=1, arity=ARITY):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_degree)
        npairs = rng.randint(min_pairs, min(3, n // 2))
        yield random_expression(rng, n, npairs, arity)


def pivot_rows(basis, npairs=0):
    """The rows of a basis by pivot, those with a coset minimum as pivot."""
    rows = {r.terms[0][1]: r for r in basis.rows}
    return {k: r for k, r in rows.items()
            if coset_minimum(k, 2 * npairs) == k}


class TestCosets:
    def test_reps_are_the_coset_minima(self):
        for n in range(1, 7):
            for p in range(n // 2 + 1):
                reps = list(coset_reps(n, p))
                assert reps == sorted(reps)
                assert len(reps) == factorial(n) // (2 ** p * factorial(p))
                minima = {project(unit(pi), p).terms[0][1]
                          for pi in permutations(range(1, n + 1))}
                assert set(reps) == minima

    def test_pruned_reps_are_the_filtered_group(self):
        # the enumeration skips dead-end prefixes, not minima or order
        for n in range(1, 8):
            for p in range(min(3, n // 2) + 1):
                assert list(coset_reps(n, p)) == [
                    pi for pi in permutations(range(1, n + 1))
                    if coset_minimum(pi, 2 * p) == pi]
        assert sum(1 for _ in coset_reps(12, 6)) == 10395

    def test_coset_minimum_against_reference(self):
        # the branches for one and two pairs sort nothing
        for pi in permutations(range(1, 7)):
            for lead in (2, 4, 6):
                assert (coset_minimum(pi, lead)
                        == reference_orbits.coset_minimum(pi, lead))
        rng = random.Random(2402)
        for _ in range(300):
            n = rng.randint(8, 12)
            pi = tuple(rng.sample(range(1, n + 1), n))
            for lead in range(2, n + 1, 2):
                assert (coset_minimum(pi, lead)
                        == reference_orbits.coset_minimum(pi, lead)), pi

    def test_no_pairs_is_the_whole_group(self):
        assert list(coset_reps(4, 0)) == list(permutations(range(1, 5)))

    def test_projection_is_the_renaming_sieve(self):
        # the reduced basis of the renaming relations sieves every vector
        # onto coset minima, adding coefficients
        rng = random.Random(3)
        reg = make_registry("a2", "s2")
        for expr in ("a2(m,c)*s2(m,d)", "a2(m,n)*s2(m,n)",
                     "a2(m,n)*a2(m,k)*s2(n,k)"):
            header = reg.normalize(raw_terms(expr)).header
            n, p = header.degree, header.npairs
            b = KBasis(n).build(reg.dummy_relations(header))
            assert b.dim() == factorial(n) - len(list(coset_reps(n, p)))
            for _ in range(30):
                v = random_vector(rng, n, max_terms=8)
                assert project(v, p) == b.sieve(v)


class TestFullGroupReference:
    def check(self, expr, tensors, use_oracle):
        reg = make_registry(*tensors)
        te = reg.normalize(raw_terms(expr))
        h = te.header
        rels = reference_relations(reg, h)
        ref = KBasis(h.degree).build(rels)
        res = reg.simplify(te)
        assert res.canonical.vec.terms == ref.sieve(te.vec).terms, expr
        assert res.basis_dim == ref.dim(), expr
        assert (pivot_rows(reg.expression_basis(h))
                == pivot_rows(ref, h.npairs)), expr
        if use_oracle:
            diff = galg.add(te.vec, galg.negate(res.canonical.vec))
            assert oracle.member(diff, rels), expr
            if not res.canonical.is_zero():
                assert not oracle.member(res.canonical.vec, rels), expr

    def test_random_expressions(self):
        for expr, tensors in cases(2026, 40, 5):
            self.check(expr, tensors, use_oracle=True)
        for expr, tensors in cases(7, 4, 6):
            self.check(expr, tensors, use_oracle=False)

    def test_pairless_and_repeated_factors(self):
        for expr, tensors in cases(41, 12, 6, min_pairs=0):
            self.check(expr, tensors, use_oracle=False)
        for expr in ("a3(a,b,c)*a3(d,e,f)", "a3(m,n,c)*a3(m,n,d)",
                     "a3(a,b,c)*a3(c,d,e)", "a2(a,b)*a2(c,d)*v3(e)",
                     "a2(m,b)*a2(m,n)*v3(n)", "a2(a,m)*a2(m,b)*v3(a)",
                     "s2(a,b)*s2(c,d)*v1(e)*v1(f)*v1(g)",
                     "a3(m,a,b)*a3(m,c,d)*v1(e)",
                     "v1(a)*v1(b)*v1(c) + 2*v1(b)*v1(a)*v1(c)"
                     " - v1(c)*v1(a)*v1(b)", "v1(m)*v1(m)*v1(a)"):
            self.check(expr, ("a2", "s2", "a3", "v1", "v3"),
                       use_oracle=False)

    def test_degree_six_with_oracle(self):
        self.check("a2(m,a)*v1(b)*s2(c,m)*v2(d)",
                   ("a2", "s2", "v1", "v2"), use_oracle=True)

    def test_degree_seven(self):
        self.check("s2(m,a)*v1(m)*v2(b)*v3(c)*v4(d)*v5(e)",
                   ("s2", "v1", "v2", "v3", "v4", "v5"), use_oracle=False)


class TestSwapRelations:
    # relations generated: the orbit relations of the non-minimal coset
    # minima and vanishing orbits, plus the nonzero multiterm translates,
    # one per nonzero orbit, multiterm row and block
    COUNTS = {"a3(a,b,c)*a3(d,e,f)": 710, "a3(m,b,c)*a3(m,e,f)": 357,
              "a3(m,n,c)*a3(m,n,d)": 89, "a3(m,n,k)*a3(m,n,k)": 14,
              "a2(a,b)*a2(c,d)*v3(e)": 105, "a2(m,b)*a2(m,n)*v3(n)": 13,
              "s2(a,b)*s2(c,d)*v1(e)*v1(f)*v1(g)": 4935,
              "ri(a,b,c,d)*ri(a,c,b,d)": 105}

    def test_counts_and_rows(self):
        # adding the block swaps translated by every coset minimum changes
        # no row
        reg = make_registry("a2", "s2", "a3", "ri", "v1", "v3")
        for expr, count in self.COUNTS.items():
            h = reg.normalize(raw_terms(expr)).header
            rels = reg.product_relations(h)
            assert len(rels) == count, expr
            every = rels + [
                project(galg.add(unit(perm.multiply(sigma, rho)),
                                 unit(rho, -1)), h.npairs)
                for sigma in block_swaps(h)
                for rho in coset_reps(h.degree, h.npairs)]
            assert (pivot_rows(KBasis(h.degree).build(rels))
                    == pivot_rows(KBasis(h.degree).build(every))), expr


class TestShortest:
    def test_shortest_sieves_to_canonical(self):
        for expr, tensors in cases(11, 30, 6):
            reg = make_registry(*tensors)
            te = reg.normalize(raw_terms(expr))
            res = reg.simplify(te)
            assert len(res.shortest.vec) <= len(te.vec), expr
            again = reg.simplify(res.shortest)
            assert again.canonical.vec == res.canonical.vec, expr

    def test_input_counts_first(self):
        # one term, already shortest: the unprojected input is printed
        reg = make_registry("s2")
        te = reg.normalize(raw_terms("s2(m,c)*s2(d,m)"))
        res = reg.simplify(te)
        assert res.shortest.vec == te.vec
        assert res.canonical.vec != te.vec


class TestDegreeEight:
    def test_riemann_scalars(self):
        reg = make_registry("ri")
        te = reg.normalize(raw_terms(
            "ri(a,b,c,d)*ri(a,b,c,d) - 2*ri(a,b,c,d)*ri(a,c,b,d)"))
        assert te.header.degree == 8 and te.header.npairs == 4
        res = reg.simplify(te)
        assert res.canonical.is_zero()
        # quotient: 105 cosets minus 102 rows, the three quadratic scalars
        assert factorial(8) - res.basis_dim == 3
        assert reg.expression_basis(te.header).dim() == 102

    def test_two_pairs(self):
        # 5040 cosets.  The relations translated over all coset minima
        # have rank 5021 (quotient dimension 19); the engine's relations
        # are orbit relations and projected factor rows, which lie in
        # their span, so the same rank means the same span.
        reg = make_registry("ri")
        te = reg.normalize(raw_terms("ri(m,c,n,d)*ri(m,n,e,f)"))
        h = te.header
        assert (h.degree, h.npairs) == (8, 2)
        assert len(reg.product_relations(h)) == 5052
        b = reg.expression_basis(h)
        assert b.dim() == 5021
        assert check_reduced(b)
        rhos = random.Random(8).sample(list(coset_reps(8, 2)), 100)
        for (name, arity), off in zip(h.factors, h.offsets()):
            for row in reg.tensors[name].k0_basis().rows:
                lifted = reference_quotient._lift(row, off, 8 - off - arity)
                for rho in rhos:
                    rel = project(translate_right(lifted, rho), 2)
                    assert b.sieve(rel).is_zero()
        res = reg.simplify(te)
        assert not res.canonical.is_zero()
        # the closure from the input reaches 5 orbits, 576 table entries
        assert len(res.quotient.table) < 5040 // 4
        assert factorial(8) - res.basis_dim == 19
        swapped = reg.normalize(raw_terms(
            "ri(m,c,n,d)*ri(m,n,e,f) + ri(c,m,n,d)*ri(m,n,e,f)"))
        assert reg.simplify(swapped).canonical.is_zero()


    def test_cubic_riemann_scalars(self):
        # 10395 cosets, under the 8! of the default rank limit; the
        # quotient is the 8 cubic Riemann scalars of Fulling et al.,
        # Class. Quantum Grav. 9 (1992) 1151
        reg = make_registry("ri")
        te = reg.normalize(raw_terms("ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b)"))
        assert (te.header.degree, te.header.npairs) == (12, 6)
        res = reg.simplify(te)
        assert not res.canonical.is_zero()
        # the closure from the input reaches 5 orbits, 1728 table entries
        assert len(res.quotient.table) < 10395 // 4
        assert factorial(12) - res.basis_dim == 8
        assert len(res.quotient.table) == 10395

    def test_coset_guard(self):
        # one pair at degree 10 leaves 10!/2 cosets, over 8!; the header
        # comes from a registry with a higher limit
        reg = make_registry("ri", "s2")
        expr = raw_terms("ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h)")
        with pytest.raises(DegreeLimitError, match="1814400 cosets"):
            reg.normalize(expr)
        te = make_registry("ri", "s2", max_rank=10).normalize(expr)
        with pytest.raises(DegreeLimitError, match="1814400 cosets"):
            reg.simplify(te)
        with pytest.raises(DegreeLimitError, match="1814400 cosets"):
            reg.expression_basis(te.header)

    def test_coset_guard_estimate(self):
        # 1814400 cosets at 8 cells each, as estimate_memory counts them
        reg = make_registry("ri", "s2")
        expr = raw_terms("ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h)")
        with pytest.raises(DegreeLimitError,
                           match=r"about 14\.5 Mcells \(113\.4 MByte\)"):
            reg.normalize(expr)
        te = make_registry("ri", "s2", max_rank=10).normalize(expr)
        with pytest.raises(DegreeLimitError,
                           match=r"about 14\.5 Mcells \(113\.4 MByte\)"):
            reg.simplify(te)


class TestMonotermGroup:
    def test_riemann_group(self):
        # the group is every (g, s) with e_id - s*e_g in K0, found here by
        # 2*4! sieves; it has order 8, the pair exchange included, and
        # leaves one multiterm row, the cyclic identity
        reg = make_registry("ri")
        k0 = reg.tensors["ri"].k0_basis()
        gens, rows = reg.tensors["ri"].monoterm()
        ident = identity(4)
        expected = {(g, s) for g in coset_reps(4, 0) for s in (1, -1)
                    if k0.sieve(galg.add(unit(ident), unit(g, -s))).is_zero()}
        group = {(ident, 1)}
        while True:
            more = {(tuple(g[v - 1] for v in x), s * t)
                    for g, s in gens for x, t in group} | group
            if more == group:
                break
            group = more
        assert group == expected
        assert len(group) == 8 and ((3, 4, 1, 2), 1) in group
        assert len(rows) == 1 and len(rows[0]) == 3

    def test_conflicting_symmetries_vanish(self):
        decl = ("tensor t, s2, a2; tsym t(i,j)+t(j,i), t(i,j)-t(j,i);"
                " tsym s2(i,j)-s2(j,i); tsym a2(i,j)+a2(j,i);")
        out = session_output(decl, "t(i,j); t(i,j)*s2(k,l);"
                             " 3*t(m,a)*a2(m,b) - t(a,m)*a2(b,m);"
                             " t(a,b)*t(c,d) + t(c,d)*t(b,a);")
        assert out.split("\n") == ["0", "0", "0", "0", ""]

    def test_tsym_after_evaluation(self):
        decl = "tensor t, s2; tsym s2(i,j)-s2(j,i);"
        text = "t(i,j)*s2(i,k) + t(j,i)*s2(k,i);"
        before = session_output(decl, text)
        assert before != "0\n"
        assert session_output(decl, text + "tsym t(i,j)+t(j,i);"
                              + text) == before + "0\n"

    def test_redeclared_with_other_arity(self):
        text = "t(i,j,k)*t(k,l,m) + t(j,i,k)*t(k,l,m); t(i,i,k);"
        fresh = session_output("tensor t; tsym t(i,j,k)-t(j,i,k);", text)
        again = session_output(
            "tensor t; tsym t(i,j)+t(j,i); t(i,j)*t(j,k); tclear t;"
            " tensor t; tsym t(i,j,k)-t(j,i,k);", text)
        assert again.split("\n")[1:] == fresh.split("\n")
        assert fresh == "2*t(k,l,m)*t(i,j,k)\nt(i,i,k)\n"


def declared(name, relations):
    """A registry declaring `name` with the relation texts given."""
    reg = Registry()
    reg.declare(name)
    for rel in relations:
        reg.declare_symmetry(raw_terms(rel))
    return reg.tensors[name]


class TestMonotermReference:
    """`monoterm_data` reads the group off the stored rows; the copy that
    sieved every unit vector of S_a (`reference_monoterm`) must give the
    same generator list, in order, and the same multiterm rows."""

    @staticmethod
    def check(tensor):
        k0 = tensor.k0_basis()
        data = monoterm_data(k0)
        assert data == reference_monoterm.monoterm_data(k0)
        return data

    def test_standard_tensors(self):
        relations = {**RELATIONS, **MULTITERM}
        # name: (generators, multiterm rows)
        sizes = {"a2": (1, 0), "s2": (1, 0), "a3": (2, 0), "s3": (2, 0),
                 "ri": (3, 1), "c3": (0, 2), "y3": (1, 1)}
        for name, size in sizes.items():
            gens, rows = self.check(declared(name, relations[name]))
            assert (len(gens), len(rows)) == size, name

    @pytest.mark.parametrize("relations", [
        ["t(i,j)+t(j,i)", "t(i,j)-t(j,i)"], ["t(i,j)-2*t(j,i)"]])
    def test_vanishing(self, relations):
        assert self.check(declared("t", relations)) == ([((1, 2), -1)], [])

    def test_random_relation_sets(self):
        # degree 1-5, 1-3 relations of 2-3 terms; most coefficient lists
        # add up to 0, so that not every tensor vanishes
        shapes = [(1, 1), (1, -1), (1, -1), (1, 2, -3), (1, 1, -2),
                  (1, 1, 1), (1, -2)]
        rng = random.Random(1919)
        kinds = {}
        for _ in range(300):
            n = rng.randint(1, 5)
            reg = Registry()
            reg.declare("t")
            for _ in range(rng.choice((1, 1, 2, 3))):
                reg.declare_symmetry(
                    [(c, (("t", tuple(rng.sample(LETTERS[:n], n))),))
                     for c in rng.choice(shapes)])
            if reg.tensors["t"].k0_basis().dim():
                gens, rows = self.check(reg.tensors["t"])
                kind = ("vanishes" if gens[:1] == [(identity(n), -1)]
                        else (len(gens) > 1, bool(rows)))
                kinds[kind] = kinds.get(kind, 0) + 1
        # vanishing tensors, and groups of at most one and of several
        # generators, with and without multiterm rows
        assert len(kinds) == 5 and min(kinds.values()) >= 4, kinds

    def test_sieves_no_unit_vector(self, monkeypatch):
        six = ["t(a,b,c,d,e,f)+t(b,a,c,d,e,f)",
               "t(a,b,c,d,e,f)+t(b,c,d,e,f,a)"]
        tensors = [declared("ri", RELATIONS["ri"]), declared("t", six)]
        sieved = []
        build = KBasis.build

        def spy(self, relations):
            relations = list(relations)
            sieved.extend(map(len, relations))
            return build(self, relations)
        monkeypatch.setattr(KBasis, "build", spy)
        counts = []
        for tensor in tensors:
            sieved.clear()
            tensor.monoterm()
            assert 1 not in sieved
            counts.append(len(sieved))
        # ri sieves its non-group rows; the antisymmetric tensor has none
        assert counts == [15, 0]


class TestHeaderMemo:
    """Each registry memoizes a header's orbit table and multiterm basis;
    what it returns must not depend on what the memo holds."""

    def test_tsym_after_memoized_evaluation(self):
        reg = make_registry("s2")
        reg.declare("t")
        te = reg.normalize(raw_terms("t(i,j)*s2(i,k) + t(j,i)*s2(k,i)"))
        first = reg.simplify(te)
        assert reg.simplify(te) == first and not first.canonical.is_zero()
        reg.declare_symmetry(raw_terms("t(i,j)+t(j,i)"))
        assert reg.simplify(te).canonical.is_zero()

    DECL = "tensor t, s2; tsym s2(i,j)-s2(j,i);"
    TWO = "t(i,j)*s2(k,l) + t(j,i)*s2(l,k); t(m,j)*s2(m,l);"

    def test_tclear_with_same_arity(self):
        anti = self.DECL + "tsym t(i,j)+t(j,i);"
        assert session_output(anti + self.TWO + "tclear t; tensor t;",
                              self.TWO) == (session_output(anti, self.TWO)
                                            + session_output(self.DECL,
                                                             self.TWO))

    def test_tclear_with_other_arity(self):
        three = "t(i,j,k)*s2(l,m) + t(j,i,k)*s2(m,l); t(i,m,k)*s2(m,l);"
        anti = self.DECL + "tsym t(i,j)+t(j,i);"
        sym = "tsym t(i,j,k)-t(j,i,k);"
        assert session_output(anti + self.TWO + "tclear t; tensor t;" + sym,
                              three) == (session_output(anti, self.TWO)
                                         + session_output(self.DECL + sym,
                                                          three))

    def test_kbasis_around_memo_hit(self):
        # kbasis builds from product_relations, which must leave the
        # memoized header alone
        decl = ("tensor a2, ri; tsym a2(i,j)+a2(j,i);"
                + "".join(f"tsym {r};" for r in RELATIONS["ri"]))
        expr = "a2(i,j)*ri(k,l,m,n) + a2(k,l)*ri(i,j,m,n);"
        rows = session_output(decl, "kbasis a2(ri);")
        value = session_output(decl, expr)
        assert session_output(decl, expr + "kbasis a2(ri);" + expr
                              + "kbasis a2(ri); kbasis a2(ri);" + expr) == (
            value + rows + value + rows + rows + value)
        assert rows.endswith("\n690\n")

    def test_eviction_matches_fresh_registry(self):
        # under max_rank 5 the memo holds at most 120 coset minima, so
        # these headers (24 to 120 minima each) keep evicting each other
        exprs = ["a2(i,j)*a3(k,l,m) - a2(j,i)*a3(m,l,k)",
                 "ri(i,j,k,l) + ri(k,l,i,j)", "ri(m,j,m,l)",
                 "a3(i,j,k)*s2(l,m) + 2*a3(k,j,i)*s2(m,l)",
                 "a2(p,q)*a3(r,s,t) + a2(r,s)*a3(p,q,t)",
                 "a2(m,n)*s2(m,n)*v1(k)", "s2(i,j)*s2(k,l)"]
        tensors = ("a2", "s2", "a3", "ri", "v1")
        reg = make_registry(*tensors, max_rank=5)
        for expr in exprs * 3:
            fresh = make_registry(*tensors, max_rank=5)
            assert (reg.simplify(reg.normalize(raw_terms(expr)))
                    == fresh.simplify(fresh.normalize(raw_terms(expr)))), expr
            assert sum(len(closure.table) for closure, _
                       in reg._memo.values()) <= 120
        assert len(reg._memo) < 4


class TestOrbitTable:
    """The orbit table, filled one orbit per first lookup, against the
    full walk it replaced (`reference_orbits`): after an evaluation every
    entry present is the reference's, and once filled the two are equal."""

    @staticmethod
    def reference(table):
        return reference_orbits.signed_orbits(
            coset_reps(table.n, table.npairs), table.gens, table.npairs)

    def check(self, table, full=True):
        ref = self.reference(table)
        assert all(ref[x] == hit for x, hit in table.items())
        if full:
            assert table.fill() == ref

    def checked_session(self, declarations, texts):
        """Run `texts` through one session, checking each evaluation's
        table as it stands; then fill and compare every table met, and
        each tensor's own table looked up on its K0 terms."""
        s = Session(out=io.StringIO(), err=io.StringIO())
        assert s.run_text(declarations) == 0
        simplify, tables = s.registry.simplify, []

        def checked(te):
            res = simplify(te)
            self.check(res.quotient.table, full=False)
            tables.append(res.quotient.table)
            return res

        s.registry.simplify = checked
        for text in texts:
            assert s.run_text(text) == 0, text
        for t in s.registry.tensors.values():
            if t.arity is not None:
                table = OrbitTable(t.arity, t.monoterm()[0], 0)
                for row in t.k0_basis().rows:
                    for _, p in row.terms:
                        table[p]
                tables.append(table)
        for table in tables:
            self.check(table)
        return len(tables)

    def test_golden_session(self):
        # 19 evaluations and 7 tensors of fixed arity (v3 is never used)
        assert self.checked_session("", [GOLDEN_SCRIPT]) == 26

    def test_benchmark_pools(self):
        texts = [text for w in ("contract", "free_sums")
                 for _, text in workloads.pool(w)]
        assert len(texts) == 232
        # 232 evaluations and 8 tensors
        assert self.checked_session(workloads.DECLARATIONS, texts) == 240

    def test_large_and_random_headers(self):
        texts = ["ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b);",
                 "ri(m,c,n,d)*ri(m,n,e,f);"]
        texts += [expr + ";" for expr, _ in cases(909, 40, 7, min_pairs=0)]
        # 42 evaluations and 7 tensors (v3 is not drawn)
        assert self.checked_session(workloads.DECLARATIONS, texts) == 49

    @pytest.mark.parametrize("text, orbits", [
        ("ri(a,b,c,d)", 3), ("a2(a,b)*ri(c,d,e,f)", 45),
        ("a3(a,b,c)*s2(d,e)", 10), ("ri(a,b,c,d)*ri(e,f,g,h)", 315),
        # t vanishes, so (id, -1) is in G and every orbit is zero
        ("t(a,b)*s2(c,d)", 0)])
    def test_pair_free_table_walks_one_orbit(self, text, orbits, monkeypatch):
        # without pairs the first orbit met is walked and every other one
        # is its right translate, entered as a walk of its own would be
        reg = make_registry("ri", "a2", "a3", "s2")
        reg.declare("t")
        reg.declare_symmetry(raw_terms("t(i,j)+t(j,i)"))
        reg.declare_symmetry(raw_terms("t(i,j)-t(j,i)"))
        table = reg._closure(reg.normalize(raw_terms(text)).header).table
        ref = self.reference(table)
        assert len({hit[1] for hit in ref.values() if hit}) == orbits
        rng = random.Random(2301)
        while True:
            x = tuple(rng.sample(range(1, table.n + 1), table.n))
            if min(texpr._orbit(x, table.gens, 0)[0]) != x:
                break
        walks = self.spy_walks(monkeypatch)
        assert table[x] == ref[x]
        assert table.fill() == ref and walks == [x]

    def test_one_slot_table(self):
        # a vanishing one-slot tensor has (id, -1) as generator; itemgetter
        # of one index gives the item, not a 1-tuple
        for gens, hit in (([], (1, (1,))), ([((1,), -1)], None)):
            table = OrbitTable(1, gens, 0)
            assert table[(1,)] == hit
            assert table == self.reference(table)

    @staticmethod
    def spy_walks(monkeypatch):
        """The roots of the orbits `texpr._orbit` walks from now on."""
        walks = []
        orbit = texpr._orbit

        def spy(root, gens, lead):
            walks.append(root)
            return orbit(root, gens, lead)
        monkeypatch.setattr(texpr, "_orbit", spy)
        return walks

    PAIRED = ["ri(m,c,n,d)*ri(m,n,e,f)", "ri(a,b,c,d)*ri(a,e,f,g)",
              "a2(a,b)*ri(a,c,d,e)*s2(f,g)", "ri(a,b,c,d)*a3(a,b,e)"]

    @pytest.mark.parametrize("text, walks", [
        *zip(PAIRED, (10, 3, 7, 9)),
        # with at most one free slot a pair prefix fixes the whole map,
        # so every orbit is walked
        ("ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b)", 33),
        ("ri(a,b,c,d)*ri(a,c,b,d)", 8)])
    def test_paired_table_walks_one_orbit_per_prefix(self, text, walks,
                                                      monkeypatch):
        # an orbit whose pair prefix a walked root shares is that root's
        # translate by a permutation of the free slots
        reg = make_registry("ri", "a2", "a3", "s2")
        table = reg._closure(reg.normalize(raw_terms(text)).header).table
        ref = self.reference(table)
        roots = self.spy_walks(monkeypatch)
        filled = table.fill()
        assert filled == ref and list(filled) == list(ref)
        lead = 2 * table.npairs
        assert len(roots) == len({x[:lead] for x in roots}) == walks

    @pytest.mark.parametrize("text", PAIRED)
    def test_paired_translate_of_seeded_walk(self, text, monkeypatch):
        # a seeded coset minimum, not its orbit's minimum, is walked; a
        # minimum of another orbit with its pair prefix is a translate
        reg = make_registry("ri", "a2", "a3", "s2")
        table = reg._closure(reg.normalize(raw_terms(text)).header).table
        ref = self.reference(table)
        walks = self.spy_walks(monkeypatch)
        lead = 2 * table.npairs
        rng = random.Random(2401)
        x = rng.choice([x for x, hit in ref.items() if hit and hit[1] != x])
        assert table[x] == ref[x] and walks == [x]
        y = rng.choice([y for y in ref
                        if y[:lead] == x[:lead] and y not in table])
        assert table[y] == ref[y] and walks == [x]
        assert all(ref[z] == hit for z, hit in table.items())
        assert table.fill() == ref
        assert len(walks) == len({z[:lead] for z in walks})

    def test_evaluation_walks_only_reached_orbits(self):
        # neither factor has multiterm rows, so only the input's own term
        # looks the table up: one orbit of the 360 coset minima is walked
        reg = make_registry("a3", "s3")
        te = reg.normalize(raw_terms("a3(m,j,k)*s3(m,l,n)"))
        res = reg.simplify(te)
        (closure, _), = reg._memo.values()
        table = closure.table
        assert sum(1 for _ in coset_reps(6, 1)) == 360
        assert 0 < len(table) < 360
        # 720 less 10 nonzero orbits, no multiterm rows; read, it fills
        # the table, and results compare equal however full it is
        assert res.basis_dim == 710 and len(table) == 360
        assert reg.simplify(te) == res


class TestClosure:
    """The closure of the multiterm relations over the orbits they reach
    from the input, against the listing of every coset minimum that it
    replaced (`reference_quotient`).  On each evaluation the canonical and
    shortest vectors are the reference's, no reference row has terms on
    both closed and open orbits, and the memoized basis is exactly the
    reference rows on closed orbits.  Read once all evaluations are done,
    basis_dim closes every orbit and equals the reference's, and each
    basis is then all of the reference's."""

    @staticmethod
    def reference(reg, h):
        table, rels = reference_quotient.quotient(reg, h, full=True)
        b = KBasis(h.degree).build(rels)
        orbits = sum(1 for x, hit in table.items()
                     if hit is not None and hit[1] == x)
        return table, b, factorial(h.degree) - orbits + b.dim()

    def checked(self, reg, run):
        """Call `run()` with reg.simplify checked; returns the number of
        distinct headers (with their tensors' relations) evaluated."""
        simplify, refs, last = reg.simplify, {}, {}

        def checked_simplify(te):
            h, p = te.header, te.header.npairs
            key = (h.factors, p, tuple(
                row.terms for name, _ in h.factors
                for row in reg.tensors[name].k0_basis().rows))
            if key not in refs:
                refs[key] = self.reference(reg, h)
            table, b, dim = refs[key]
            res = simplify(te)
            # the rule before simplify dropped its coset projection: the
            # coset form is met between the input and the orbit form
            cosets = project(te.vec, p)
            canonical, shortest = b.sieve_trace(
                orbit_project(cosets, table))
            for form in (cosets, te.vec):
                if len(form) <= len(shortest):
                    shortest = form
            assert res.canonical.vec.terms == canonical.terms
            assert res.shortest.vec.terms == shortest.terms
            closed, inside = res.quotient.closed, {}
            for k, row in pivot_rows(b).items():
                where = {q in closed for _, q in row.terms}
                assert len(where) == 1, row
                if where == {True}:
                    inside[k] = row
            assert pivot_rows(res.quotient.basis) == inside
            last[key] = res, b, dim
            return res

        reg.simplify = checked_simplify
        run()
        for res, b, dim in last.values():
            assert res.basis_dim == dim
            assert pivot_rows(res.quotient.basis) == pivot_rows(b)
        return len(last)

    def checked_session(self, declarations, texts):
        s = Session(out=io.StringIO(), err=io.StringIO())
        assert s.run_text(declarations) == 0

        def run():
            for text in texts:
                assert s.run_text(text) == 0, text
        return self.checked(s.registry, run)

    STRESS = ["ri(i,j,k,l)*a3(i,j,k);", "ri(a,b,c,d)*ri(a,c,b,d);",
              "ri(m,c,n,d)*ri(m,n,e,f);",
              "ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b);"]

    @staticmethod
    def pools():
        return [text for w in ("contract", "free_sums")
                for _, text in workloads.pool(w)]

    @staticmethod
    def random_headers():
        """A registry with the multiterm tensors c3 and y3, and its run."""
        arity = dict(ARITY, c3=3, y3=3)
        reg = make_registry(*arity)
        for name, rels in MULTITERM.items():
            for rel in rels:
                reg.declare_symmetry(raw_terms(rel))
        exprs = [expr for expr, _ in cases(1212, 60, 8, min_pairs=0,
                                           arity=arity)]
        # runs of identical multiterm factors, each block translated
        exprs += ["c3(a,b,c)*c3(d,e,f) + 2*c3(d,e,f)*c3(b,a,c)",
                  "c3(a,m,n)*c3(b,n,m)", "y3(m,n,a)*y3(n,m,b)",
                  "c3(m,a,b)*c3(m,c,d)*v1(e)", "y3(m,n,k)*y3(k,m,n)",
                  "y3(a,m,b)*y3(c,m,d) - y3(m,a,b)*y3(m,c,d)",
                  "c3(m,n,a)*c3(k,m,n)*c3(k,b,c)"]

        def run():
            for expr in exprs:
                reg.simplify(reg.normalize(raw_terms(expr)))
        return reg, run

    def test_golden_session(self):
        assert self.checked_session("", [GOLDEN_SCRIPT]) == 14

    def test_benchmark_pools(self):
        texts = self.pools()
        assert len(texts) == 232
        # the 16 headers of contract and the 3 of free_sums
        assert self.checked_session(workloads.DECLARATIONS, texts) == 19

    def test_stress_shapes(self):
        assert self.checked_session(workloads.DECLARATIONS, self.STRESS) == 4

    def test_random_headers(self):
        assert self.checked(*self.random_headers()) > 40

    def test_lifted_rows_keep_the_order(self):
        # the closure lifts each factor's multiterm rows onto its block as
        # (c, (0,)+map) terms without sorting them again: on every header of
        # the tests above, each lifted row must be strictly descending in
        # its maps and equal the reference lift, which sorts, term for term
        lifted = set()

        def checked_closure(reg):
            closure = reg._closure

            def check(h):
                c = closure(h)
                want = [reference_quotient._lift(row, off,
                                                 h.degree - off - arity)
                        for (name, arity), off in zip(h.factors, h.offsets())
                        for row in reg.tensors[name].monoterm()[1]]
                assert c.rows == [[(x, (0,) + p) for x, p in row.terms]
                                  for row in want], h
                for row in c.rows:
                    maps = [p for _, p in row]
                    assert all(x > y for x, y in zip(maps, maps[1:])), h
                if want:
                    lifted.add(h.factors)
                return c
            reg._closure = check

        for declarations, texts in (("", [GOLDEN_SCRIPT]),
                                    (workloads.DECLARATIONS, self.pools()),
                                    (workloads.DECLARATIONS, self.STRESS)):
            s = Session(out=io.StringIO(), err=io.StringIO())
            assert s.run_text(declarations) == 0
            checked_closure(s.registry)
            for text in texts:
                assert s.run_text(text) == 0, text
        reg, run = self.random_headers()
        checked_closure(reg)
        run()
        # 32 products with multiterm rows, identical factors among them
        ri, c3, y3 = ("ri", 4), ("c3", 3), ("y3", 3)
        assert {(ri, ri), (ri, ri, ri), (c3, c3), (c3, c3, c3),
                (y3, y3)} <= lifted
        assert len(lifted) == 32


def session_output(declarations, text):
    out, err = io.StringIO(), io.StringIO()
    s = Session(out=out, err=err)
    assert s.run_text(declarations + text) == 0
    assert err.getvalue() == ""
    return out.getvalue()


class TestMetamorphic:
    EXPRS = ("ri(m,n,c,d)*a2(m,n) + 3*a2(c,m)*ri(d,n,n,m);"
             "ri(a,b,c,d)*ri(a,c,b,d) + ri(a,c,b,d)*ri(b,a,c,d);"
             "s3(m,n,k)*a3(m,k,n) + a3(n,m,k)*s3(k,m,n);")
    TENSORS = ("ri", "a2", "a3", "s3")

    def declarations(self, order, duplicate=False):
        text = "tensor " + ",".join(self.TENSORS) + ";"
        for name in self.TENSORS:
            rels = [RELATIONS[name][k] for k in order(len(RELATIONS[name]))]
            if duplicate:
                rels.append(rels[0])
            text += "".join(f"tsym {r};" for r in rels)
        return text

    def test_declaration_order_and_duplicates(self):
        base = session_output(self.declarations(range), self.EXPRS)
        reverse = session_output(
            self.declarations(lambda k: reversed(range(k))), self.EXPRS)
        dup = session_output(self.declarations(range, duplicate=True),
                             self.EXPRS)
        assert base == reverse == dup
        assert base.split("\n")[1] == "0"

    ARGS = re.compile(r"(?<=\w)\(([^()]*)\)")

    @classmethod
    def mapped(cls, text, names):
        """`text` with the index names inside each argument list mapped."""
        return cls.ARGS.sub(lambda m: "(" + ",".join(
            names.get(x, x) for x in m.group(1).split(",")) + ")", text)

    def test_index_renaming(self):
        # a bijective renaming of the dummies, and an order-preserving one
        # of the free indices, keep the canonical vector and the header up
        # to the names, and print the mapped text; a renaming that reorders
        # the free names permutes the free slots, and so the vector
        cases = 0
        for declarations, texts in (
                (GOLDEN_SCRIPT, None),
                (workloads.DECLARATIONS, TestClosure.pools())):
            s = Session(out=io.StringIO(), err=io.StringIO())
            assert s.run_text(declarations) == 0
            reg = s.registry
            stmts = ([st for st in frontend.parse(GOLDEN_SCRIPT)
                      if isinstance(st, frontend.ExprEval)] if texts is None
                     else [frontend.parse(t)[0] for t in texts])
            for stmt in stmts:
                raw = frontend.to_raw_terms(frontend.resolve(stmt.expr, {}))
                counts = [Counter(x for _, idx in fs for x in idx)
                          for _, fs in raw]
                dummies = sorted({x for c in counts for x, k in c.items()
                                  if k == 2})
                free = sorted({x for c in counts for x in c} - set(dummies))
                x = reg.simplify(reg.normalize(raw)).canonical
                text = frontend.format_expr(x)
                for names in (dict(zip(dummies, [f"d{k}" for k in reversed(
                                  range(len(dummies)))])),
                              {f: f"f{k:02}" for k, f in enumerate(free)}):
                    renamed = [(c, tuple((t, tuple(names.get(i, i)
                                                   for i in idx))
                                         for t, idx in fs)) for c, fs in raw]
                    y = reg.simplify(reg.normalize(renamed)).canonical
                    h = x.header
                    assert y.vec == x.vec, stmt.src
                    assert y.header == TensorHeader(
                        h.factors, tuple(names.get(p, p) for p in h.pairs),
                        tuple((names.get(f, f), k) for f, k in h.free))
                    assert frontend.format_expr(y) == self.mapped(text,
                                                                  names)
                    cases += 1
        # 19 golden evaluations and the 232 pool entries, twice each
        assert cases == 2 * (19 + 232)

    def test_factor_order(self):
        # dummy names print as the first term spells them, so identical
        # factors in another order may print other names for one vector
        reg = make_registry(*self.TENSORS)
        pairs = [("ri(m,n,c,d)*a2(m,n)", "a2(m,n)*ri(m,n,c,d)"),
                 ("ri(a,b,c,d)*ri(a,c,b,d)", "ri(a,c,b,d)*ri(a,b,c,d)"),
                 ("s3(m,n,k)*a3(m,k,l)", "a3(m,k,l)*s3(m,n,k)")]
        for first, second in pairs:
            x, y = (reg.simplify(reg.normalize(raw_terms(t))).canonical
                    for t in (first, second))
            assert x.vec == y.vec, first
            assert x.header.factors == y.header.factors
            assert x.header.npairs == y.header.npairs
        decl = self.declarations(range)
        assert (session_output(decl, "ri(m,n,c,d)*a2(m,n);")
                == session_output(decl, "a2(m,n)*ri(m,n,c,d);"))

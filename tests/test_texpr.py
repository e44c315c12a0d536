"""Registry behaviour: declarations, normalization, relation generation."""

import random
import re
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from tensorcanon import frontend, galg, oracle, texpr
from tensorcanon.galg import GroupVector
from tensorcanon.texpr import (DegreeLimitError, Registry, TensorError,
                               TensorExpr, coset_reps, estimate_memory)

from conftest import (MULTITERM, RELATIONS, identity, make_registry,
                      raw_terms, translate_right, unit)
import reference_normalize
import reference_orbits

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


class TestDeclarations:
    def test_declare_undeclare_roundtrip(self):
        reg = Registry()
        reg.declare("tt")
        assert "tt" in reg.tensors
        reg.undeclare("tt")
        assert reg.tensors == {}

    def test_double_declare_notes(self):
        reg = Registry()
        reg.declare("tt")
        reg.declare("tt")
        assert reg.messages == ["+++ tt is already declared as tensor."]

    def test_undeclare_unknown_notes(self):
        reg = Registry()
        reg.undeclare("tt")
        assert reg.messages == ["+++ tt is not a tensor."]

    def test_arity_fixed_by_first_use(self):
        reg = make_registry("a2")
        assert reg.tensors["a2"].arity == 2
        with pytest.raises(TensorError):
            reg.normalize(raw_terms("a2(i,j,k)"))

    def test_undeclared_tensor_rejected(self):
        reg = Registry()
        with pytest.raises(TensorError):
            reg.normalize(raw_terms("nope(i,j)"))


class TestSymmetryDeclaration:
    def test_a2_dim(self):
        reg = make_registry("a2")
        assert reg.tensors["a2"].k0_basis().dim() == 1

    def test_row_content(self):
        # antisymmetry: single row  e_{(2 1)} + e_{(1 2)}
        row = make_registry("a2").tensors["a2"].k0_basis().rows[0]
        coeffs = {p: c for c, p in row.terms}
        assert coeffs[(2, 1)] == 1
        assert coeffs[(1, 2)] == 1

    def test_dummy_indices_rejected(self):
        reg = Registry()
        reg.declare("tt")
        with pytest.raises(TensorError):
            reg.declare_symmetry(raw_terms("tt(i,i)"))

    def test_mixed_tensors_rejected(self):
        reg = Registry()
        reg.declare("t1")
        reg.declare("t2")
        with pytest.raises(TensorError):
            reg.declare_symmetry(raw_terms("t1(i,j)+t2(i,j)"))

    def test_products_rejected(self):
        reg = Registry()
        reg.declare("t1")
        with pytest.raises(TensorError):
            reg.declare_symmetry(raw_terms("t1(i,j)*t1(k,l)"))

    def test_trivial_relation_ignored(self):
        reg = Registry()
        reg.declare("t1")
        reg.declare_symmetry(raw_terms("t1(i,j)-t1(i,j)"))
        assert reg.tensors["t1"].k0_basis().dim() == 0

    def test_relations_accumulate(self):
        reg = make_registry("ri")
        assert reg.tensors["ri"].k0_basis().dim() == 22

    def test_build_without_store_keeps_rows(self):
        t = make_registry("ri").tensors["ri"]
        rows = t.k0_basis().rows
        b = t.k0_basis()
        b.build(translate_right(unit((2, 1, 3, 4)), rho)
                for rho in coset_reps(4, 0))
        assert b.dim() > len(rows)
        assert t.k0_basis().rows == rows


class TestNormalize:
    def test_single_term_identity_perm(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(i,j)"))
        assert te.vec == unit((1, 2))
        assert te.header.pairs == ()
        assert te.header.free == (("i", 0), ("j", 0))

    def test_swapped_term(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(j,i)"))
        assert te.vec == unit((2, 1))

    def test_factor_order_canonical(self):
        reg = make_registry("a2", "s2")
        t1 = reg.normalize(raw_terms("s2(k,l)*a2(i,j)"))
        t2 = reg.normalize(raw_terms("a2(i,j)*s2(k,l)"))
        assert t1.header == t2.header
        assert t1.vec == t2.vec
        assert t1.header.factors == (("a2", 2), ("s2", 2))

    def test_dummy_slots_first(self):
        reg = make_registry("a2", "ri")
        te = reg.normalize(raw_terms("a2(m,n)*ri(m,n,c,d)"))
        assert te.header.pairs == ("m", "n")
        assert te.header.npairs == 2
        assert te.header.free == (("c", 0), ("d", 0))
        assert te.header.degree == 6

    def test_trace_single_pair(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(k,k)"))
        assert te.header.npairs == 1
        assert te.header.degree == 2

    def test_triple_occurrence_kept_free(self):
        reg = Registry()
        reg.declare("t3")
        te = reg.normalize([(1, (("t3", ("i", "i", "i")),))])
        assert te.header.npairs == 1
        assert any("more than twice" in m for m in reg.messages)
        assert te.header.pairs == ("i",)
        assert te.header.free == (("i", 2),)

    def test_extra_occurrence_noted_once_per_expression(self):
        reg = make_registry("ri")
        te = reg.normalize(raw_terms(
            "ri(i,i,i,j) + ri(i,j,i,i) + ri(j,i,i,i)"))
        assert te.header.free == (("i", 2), ("j", 0))
        assert reg.messages == ["+++ index i appears more than twice;"
                                " extra occurrences are kept free"]

    def test_two_extra_indices_noted_once_each(self):
        reg = make_registry("ri")
        reg.declare("t3")
        te = reg.normalize(raw_terms(
            "ri(i,i,i,k)*t3(j,j,j) + ri(k,i,i,i)*t3(j,j,j)"))
        assert te.header.free == (("i", 2), ("j", 2), ("k", 0))
        assert reg.messages == [
            f"+++ index {x} appears more than twice; extra occurrences are"
            " kept free" for x in ("i", "j")]

    def test_mismatched_free_indices_rejected(self):
        reg = make_registry("a2")
        with pytest.raises(TensorError):
            reg.normalize(raw_terms("a2(i,j)+a2(i,k)"))

    def test_mismatched_factors_rejected(self):
        reg = make_registry("a2", "s2")
        with pytest.raises(TensorError):
            reg.normalize(raw_terms("a2(i,j)+s2(i,j)"))

    def test_empty_rejected(self):
        with pytest.raises(TensorError):
            Registry().normalize([])

    def test_refused_by_coset_guard_fixes_no_arity(self):
        # 10 indices with 1 pair give 10!/2 cosets, over 8!: the guard
        # refuses before the arities the expression introduces are kept
        reg = Registry()
        reg.declare("ri")
        reg.declare("s2")
        with pytest.raises(DegreeLimitError, match="1814400 cosets"):
            reg.normalize(raw_terms("ri(m,a,b,c)*ri(m,d,e,f)*s2(g,h)"))
        assert [t.arity for t in reg.tensors.values()] == [None, None]


def normalize_outcome(normalize, reg, terms):
    """What normalizing gives: the header and vector or the error, then
    the registry's diagnostics and the arities it fixed."""
    try:
        te = normalize(reg, terms)
        result = (te.header, te.vec.degree, te.vec.terms)
    except TensorError as e:
        result = (type(e), str(e))
    return result, reg.messages, {k: t.arity for k, t in reg.tensors.items()}


NORMALIZE_TENSORS = ("a2", "s2", "a3", "ri", "v1", "t")


def random_raw_terms(rng):
    """1-6 raw terms of one random product over a few index names, so
    names recur two and three times, some terms spoiled: another product,
    another index name, another arity, no factors, an undeclared tensor.
    In about a third of the lists each term's names are a permutation of
    the same distinct names, where they run out drawn as the others."""
    arity = {"a2": 2, "s2": 2, "a3": 3, "ri": 4, "v1": 1, "t": 2, "zz": 2}
    product = rng.sample(list(arity)[:-1], rng.randint(1, 3))
    distinct = rng.random() < 0.35
    names = rng.sample("abcdefghijk", sum(arity[f] for f in product)
                       if distinct else rng.randint(2, 6))
    terms = []
    for _ in range(rng.randint(0, 6)):
        facs = list(product)
        spoil = rng.random()
        if spoil < 0.06:
            facs[0] = rng.choice(list(arity))
        rng.shuffle(facs)
        term = []
        unused = rng.sample(names, len(names)) if distinct else []
        for f in facs:
            a = arity[f] + (rng.choice((-1, 1)) if spoil > 0.96 else 0)
            term.append((f, tuple(unused.pop() if unused
                                  else rng.choice(names) for _ in range(a))))
        if 0.06 <= spoil < 0.1:
            f, idx = term[0]
            term[0] = (f, idx[:-1] + (rng.choice("xyz"),)) if idx else (f, idx)
        if 0.1 <= spoil < 0.12:
            term = []
        c = rng.choice((1, -1, 3, Fraction(1, 2), Fraction(-2, 3)))
        terms.append((c, tuple(term)))
        if rng.random() < 0.2:
            terms.append((-c, tuple(term)))
    if terms and rng.random() < 0.5:
        # the same term again under its own index order keeps the header
        terms.append((rng.choice((1, Fraction(5, 7))), terms[0][1]))
    return terms


class TestNormalizeDifferential:
    """`Registry.normalize` against the reference copy of the code it
    replaced: the same header and vector, or the same error, the same
    diagnostics in the same order and the same arities fixed.  The
    reference notes an index at each occurrence past the second, normalize
    once per expression at the first, so its diagnostics are compared with
    the reference's, repeats removed."""

    def check(self, terms, tensors):
        # normalize reads no relations, only the declared names and
        # arities; the rank limit is above every header generated, so the
        # coset guard refuses none that the reference accepts
        fresh = [Registry(max_rank=12) for _ in range(2)]
        for reg in fresh:
            for name in tensors:
                reg.declare(name)
        before = {name: None for name in tensors}
        ref = normalize_outcome(reference_normalize.normalize, fresh[0],
                                terms)
        result, messages, arities = normalize_outcome(Registry.normalize,
                                                      fresh[1], terms)
        assert (result, messages) == (ref[0], list(dict.fromkeys(ref[1])))
        # the reference fixes arities even when it refuses; normalize
        # keeps them only for an accepted list
        assert arities == (ref[2] if len(result) == 3 else before)
        return result

    def test_benchmark_pools(self):
        tensors = ("a2", "s2", "a3", "s3", "ri", "v1", "v2", "v3")
        count = 0
        for workload in ("contract", "free_sums"):
            for _, text in workloads.pool(workload):
                stmt = frontend.parse(text)[0]
                terms = frontend.to_raw_terms(
                    frontend.resolve(stmt.expr, {}))
                assert isinstance(self.check(terms, tensors)[0],
                                  texpr.TensorHeader)
                count += 1
        assert count == 232

    def test_distinct_and_repeated_names_mixed(self):
        # a term with distinct names is mapped by their positions, one with
        # a pair by its slot keys; either may fix the header, and an arity
        # error in a later term is raised before an earlier mismatch
        distinct = (1, (("a2", ("i", "j")), ("s2", ("k", "l"))))
        paired = (2, (("s2", ("k", "l")), ("a2", ("k", "j"))))
        late = (1, (("a2", ("i",)), ("s2", ("k", "l"))))
        for terms, error in [
                ([distinct, paired], "carry the same free indices"),
                ([paired, distinct, paired], "carry the same free indices"),
                ([distinct, distinct, paired, late], "a2 takes 2 indices"),
                ([paired, distinct, late], "a2 takes 2 indices")]:
            result = self.check(terms, NORMALIZE_TENSORS)
            assert result[0] is TensorError and error in result[1]

    @pytest.mark.parametrize("terms, error", [
        # one slot: itemgetter of one name gives no tuple
        ([(1, (("v1", ("i",)),)), (2, (("v1", ("i",)),))], None),
        ([(1, (("v1", ("i",)),)), (1, (("v1", ("j",)),))],
         "carry the same free indices"),
        # a later term lacks the reference name j
        ([(1, (("a2", ("i", "j")),)), (1, (("a2", ("i", "k")),))],
         "carry the same free indices"),
        # a one-factor term of the wrong arity after a correct one
        ([(1, (("a2", ("i", "j")),)), (1, (("a2", ("i", "j", "k")),))],
         "a2 takes 2 indices, given 3"),
        # both factor orders of one product
        ([(1, (("a3", ("i", "j", "k")), ("s2", ("l", "m")))),
          (2, (("s2", ("m", "l")), ("a3", ("k", "i", "j")))),
          (3, (("s2", ("i", "j")), ("a3", ("k", "l", "m"))))], None),
    ], ids=["one-slot", "one-slot-other-name", "missing-name",
            "late-arity", "both-orders"])
    def test_pair_free_edges(self, terms, error):
        result = self.check(terms, NORMALIZE_TENSORS)
        if error is None:
            assert isinstance(result[0], texpr.TensorHeader)
        else:
            assert result[0] is TensorError and error in result[1]

    @pytest.mark.parametrize("terms", [
        [(1, (("a2", ("i", "j")), ("a2", ("k", "l")))),
         (2, (("a2", ("k", "l")), ("a2", ("i", "j")))),
         (3, (("a2", ("l", "k")), ("a2", ("j", "i"))))],
        [(1, (("a2", ("i", "k")), ("a2", ("k", "j")))),
         (-1, (("a2", ("k", "j")), ("a2", ("i", "k"))))],
        [(1, (("ri", ("a", "b", "c", "d")), ("ri", ("e", "f", "g", "h")))),
         (2, (("ri", ("e", "f", "g", "h")), ("ri", ("a", "b", "c", "d"))))],
        [(1, (("ri", ("a", "b", "c", "d")), ("ri", ("a", "c", "e", "f")))),
         (-1, (("ri", ("a", "c", "e", "f")), ("ri", ("a", "b", "c", "d")))),
         (1, (("ri", ("c", "a", "e", "f")), ("ri", ("b", "d", "a", "c"))))],
        # three factors are sorted; equal names keep their order there too
        [(1, (("s2", ("i", "j")), ("a2", ("k", "l")), ("a2", ("m", "k")))),
         (1, (("a2", ("m", "k")), ("s2", ("j", "i")), ("a2", ("k", "l"))))],
    ], ids=["a2-a2", "a2-a2-paired", "ri-ri", "ri-ri-paired", "three"])
    def test_repeated_tensors(self, terms):
        # of two factors with one name, neither is moved before the other
        result = self.check(terms, NORMALIZE_TENSORS)
        assert isinstance(result[0], texpr.TensorHeader)

    def test_random_repeated_tensors(self):
        # random_raw_terms draws a product without repeats; here each
        # product holds one tensor twice, in either order, beside at most
        # one other
        rng = random.Random(3001)
        arity = {"a2": 2, "s2": 2, "a3": 3, "ri": 4, "v1": 1}
        accepted = 0
        for _ in range(500):
            twice = rng.choice(list(arity))
            product = [twice, twice] + rng.sample(list(arity), rng.randint(0, 1))
            names = rng.sample("abcdefghijk", rng.randint(3, 7))
            terms = []
            for _ in range(rng.randint(1, 4)):
                rng.shuffle(product)
                terms.append((rng.choice((1, -1, 2)), tuple(
                    (f, tuple(rng.choice(names) for _ in range(arity[f])))
                    for f in product)))
            accepted += len(self.check(terms, NORMALIZE_TENSORS)) == 3
        assert accepted > 100

    def test_random_raw_terms(self):
        rng = random.Random(707)
        kinds = {}
        for _ in range(3000):
            result = self.check(random_raw_terms(rng), NORMALIZE_TENSORS)
            kind = ("ok" if len(result) == 3
                    else re.sub(r"\w+ takes \d+ indices, given \d+|\w+ must"
                                r" have at least one index", "arity",
                                result[1]))
            kinds[kind] = kinds.get(kind, 0) + 1
        # the accepted case and every error are met often
        assert kinds.pop("ok") > 400
        assert sorted(kinds) == [
            "arity", "empty tensor expression",
            "term without tensor factors",
            "terms of one expression must carry the same free indices",
            "terms of one expression must share the same product of basic"
            " tensors", "zz is not declared as tensor"]
        assert min(kinds.values()) > 10, kinds


class TestRelationGeneration:
    def test_single_factor_km_equals_k0(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(i,j)"))
        rels = reg.product_relations(te.header)
        b = texpr.KBasis(2).build(rels)
        k0 = reg.tensors["a2"].k0_basis()
        assert b.rows == k0.rows

    def test_product_dim_vs_oracle(self):
        reg = make_registry("a2", "s2")
        te = reg.normalize(raw_terms("a2(i,j)*s2(k,l)"))
        rels = reg.product_relations(te.header)
        b = texpr.KBasis(4).build(rels)
        assert b.dim() == oracle.span_dim(rels)

    def test_no_dummies_no_relations(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(i,j)"))
        assert reg.dummy_relations(te.header) == []

    @pytest.mark.parametrize("text, vanishes", [
        ("a2(i,j)*a3(k,l,m)", False),       # pair-free
        ("s2(m,c)*s3(m,d,e)", False),       # one dummy pair
        ("a2(m,n)*ri(m,n,c,d)", True),      # one pair, multiterm rows
        ("a2(i,j)*s2(i,j)", True),          # two pairs
    ])
    def test_relations_term_for_term(self, text, vanishes):
        # the engine writes each two-term relation in the order it knows
        # the terms to be in; the public constructor sorts and merges them
        reg = make_registry("a2", "s2", "a3", "s3", "ri")
        h = reg.normalize(raw_terms(text)).header
        n, p = h.degree, h.npairs
        closure = reg._closure(h)
        want = [GroupVector(n, r.terms)
                for r in closure.close(closure.table.minima())]
        for x, hit in closure.table.items():
            if hit is None:
                want.append(GroupVector(n, [(1, x)]))
            elif hit[1] != x:
                want.append(GroupVector(n, [(1, x), (-hit[0], hit[1])]))
        assert (None in closure.table.values()) == vanishes
        got = reg.product_relations(h)
        assert got == want
        # swap the members of each pair, then each two adjacent pairs
        gens = []
        for k in range(0, 2 * p, 2):
            m = list(identity(n))
            m[k:k + 2] = m[k + 1], m[k]
            gens.append(m)
        for k in range(0, 2 * p - 2, 2):
            m = list(identity(n))
            m[k:k + 4] = m[k + 2:k + 4] + m[k:k + 2]
            gens.append(m)
        dummy = reg.dummy_relations(h)
        assert dummy == [
            GroupVector(n, [(1, tuple(pi[j - 1] for j in g)), (-1, pi)])
            for g in gens for pi in permutations(range(1, n + 1))]
        assert len(dummy) == (2 * p - 1 if p else 0) * factorial(n)
        for v in got + dummy:
            maps = [q for _, q in v.terms]
            assert all(a > b for a, b in zip(maps, maps[1:])), v

    def test_dummy_relations_close_renaming_group(self):
        # with p pairs the generators span the hyperoctahedral renaming
        # group of order 2^p * p!; each group element g yields relations
        # e_{pi g} - e_{pi}, all of which must sieve to zero
        reg = make_registry("a2", "ri")
        te = reg.normalize(raw_terms("a2(m,n)*ri(m,n,c,d)"))
        rels = reg.dummy_relations(te.header)
        b = texpr.KBasis(6).build(rels)
        # pair swap composed with member swaps stays in the span
        import itertools
        from tensorcanon import perm as pm
        swaps = [(2, 1, 3, 4, 5, 6), (1, 2, 4, 3, 5, 6),
                 (3, 4, 1, 2, 5, 6)]
        for k in (1, 2, 3):
            for combo in itertools.product(swaps, repeat=k):
                g = identity(6)
                for s in combo:
                    g = pm.multiply(g, s)
                v = galg.add(unit(g), unit(identity(6), -1))
                assert b.sieve(v).is_zero()


class TestExpressionBasisAndSimplify:
    def test_degree_guard(self):
        reg = make_registry("a2", max_rank=3)
        with pytest.raises(DegreeLimitError) as ei:
            reg.normalize(raw_terms("a2(i,j)*a2(k,l)"))
        assert "MByte" in str(ei.value)
        te = make_registry("a2").normalize(raw_terms("a2(i,j)*a2(k,l)"))
        with pytest.raises(DegreeLimitError) as ei:
            reg.expression_basis(te.header)
        assert "MByte" in str(ei.value)

    def test_antisymmetric_trace_vanishes(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(k,k)"))
        assert reg.simplify(te).canonical.is_zero()

    def test_canonical_representative(self):
        reg = make_registry("a2")
        te = reg.normalize(raw_terms("a2(j,i)"))
        res = reg.simplify(te)
        assert res.canonical.vec == unit((1, 2), -1)
        assert res.basis_dim == 1

    def test_equal_reflexive(self):
        reg = make_registry("ri")
        x = reg.normalize(raw_terms("ri(i,j,k,l)"))
        assert reg.equal(x, x)

    def test_equal_zero_form(self):
        reg = make_registry("s3")
        x = reg.normalize(raw_terms("s3(i,j,k)-s3(i,k,j)"))
        assert reg.equal(x, 0)

    def test_incompatible_headers(self):
        reg = make_registry("a2", "s2")
        x = reg.normalize(raw_terms("a2(i,j)"))
        y = reg.normalize(raw_terms("s2(i,j)"))
        with pytest.raises(TensorError):
            reg.equal(x, y)

    def test_equal_compares_free_slots_not_pair_names(self):
        reg = make_registry("a2", "ri", "v1")
        reg.declare("t3")
        refused = [
            ("a2(i,j)", "a2(i,k)"),             # other free names
            # one pair and a free i each, at occurrence 0 and at 2
            ("t3(i,j,j)", "t3(i,i,i)"),
            # the same factors with another number of pairs leave
            # another number of free slots
            ("ri(m,m,i,j)", "ri(i,j,k,l)")]
        for a, b in refused:
            x, y = (reg.normalize(raw_terms(t)) for t in (a, b))
            with pytest.raises(TensorError, match="incompatible headers"):
                reg.equal(x, y)
        x, y = (reg.normalize(raw_terms(t))
                for t in ("a2(m,m)*v1(i)", "a2(n,n)*v1(i)"))
        assert reg.equal(x, y)


COSET_ARITY = {"a2": 2, "s2": 2, "a3": 3, "s3": 3, "ri": 4, "c3": 3, "y3": 3}


@pytest.fixture(scope="class")
def coset_registry():
    reg = make_registry(*RELATIONS)
    for name, rels in MULTITERM.items():
        reg.declare(name)
        for rel in rels:
            reg.declare_symmetry(raw_terms(rel))
    return reg


@st.composite
def coset_inputs(draw):
    """A product of 1-3 factors, identical ones in either order, over 2-8
    index names, so that names recur and some a third time; then the same
    factors in another order with another coefficient."""
    facs = draw(st.lists(st.sampled_from(sorted(COSET_ARITY)), min_size=1,
                         max_size=3))
    names = "abcdefgh"[:draw(st.integers(2, 8))]
    term = [(f, tuple(draw(st.sampled_from(names))
                      for _ in range(COSET_ARITY[f]))) for f in facs]
    other = draw(st.permutations(term))
    return [(draw(st.sampled_from((1, -2, 3))), tuple(term)),
            (draw(st.sampled_from((1, -1, 2))), tuple(other))]


class TestCosetMinima:
    """`normalize` writes every term on its coset minimum: pair k in slots
    2k-1, 2k, its pairs numbered by first occurrence, so each pair is
    ascending and the pairs ascend by first member.  `simplify` still maps
    a term off its coset minimum onto it, so a hand-built vector keeps its
    canonical form."""

    @staticmethod
    def on_minima(te):
        lead = 2 * te.header.npairs
        return all(reference_orbits.coset_minimum(m, lead) == m
                   for _, m in te.vec.terms)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(coset_inputs())
    def test_normalize_and_equal_give_coset_minima(self, coset_registry,
                                                    terms):
        reg = coset_registry
        try:
            both = reg.normalize(terms)
            second = reg.normalize(terms[1:])
        except DegreeLimitError:
            assume(False)
        assert self.on_minima(both) and self.on_minima(second)
        seen = []

        def simplify(te):
            seen.append(te)
            return Registry.simplify(reg, te)
        reg.simplify = simplify
        try:
            reg.equal(both, second)
        finally:
            del reg.simplify
        assert len(seen) == 1 and self.on_minima(seen[0])

    def test_hand_built_vector_off_its_minima(self):
        # each term renamed on the right: every pair's two slots swapped
        # and the pairs in reverse order; t2 and w2 have no symmetry, so
        # an orbit walk from a term off its coset minimum never reaches it
        reg = make_registry("ri", "a2", "t2", "w2")
        for text in ("ri(a,b,c,d)*ri(a,c,b,d)", "ri(m,c,n,d)*ri(m,n,e,f)",
                     "ri(a,b,c,d)*ri(a,e,f,g) - 2*ri(a,e,b,f)*ri(a,c,d,g)",
                     "ri(a,c,e,g)*ri(a,b,d,f) + 2*ri(a,e,b,f)*ri(a,c,d,g)",
                     "a2(m,n)*ri(m,n,a,b) + a2(a,m)*ri(m,b,n,n)",
                     "t2(m,n)*w2(n,m) + 2*t2(n,m)*w2(m,n)",
                     "t2(a,m)*w2(n,b)*t2(m,n)"):
            te = reg.normalize(raw_terms(text))
            p = te.header.npairs
            off = galg.GroupVector(te.header.degree, [
                (c, m[2 * p - 1::-1] + m[2 * p:]) for c, m in te.vec.terms])
            assert off != te.vec, text
            twin = reference_orbits.project(off, p)
            assert twin == te.vec, text
            got = reg.simplify(TensorExpr(te.header, off)).canonical
            assert got == reg.simplify(TensorExpr(te.header, twin)).canonical


class TestValueClasses:
    """Headers and expressions are immutable values; a result is
    compared by its canonical and shortest forms alone."""

    def _expr(self):
        reg = make_registry("a2", "ri")
        te = reg.normalize(raw_terms("a2(i,j)*ri(i,j,k,l)"))
        return reg, te

    def test_equal_and_hashed_by_value(self):
        reg, te = self._expr()
        again = reg.normalize(raw_terms("a2(i,j)*ri(i,j,k,l)"))
        assert te is not again and te == again
        for a, b in ((te, again), (te.header, again.header)):
            assert hash(a) == hash(b) and len({a, b}) == 1
        other = reg.normalize(raw_terms("a2(i,j)*ri(i,j,k,m)"))
        assert te.header != other.header and te != other
        header = texpr.TensorHeader((("t3", 3),), ("i",), (("i", 2),))
        assert header == texpr.TensorHeader((("t3", 3),), ("i",), (("i", 2),))
        assert header != texpr.TensorHeader((("t3", 3),), ("i",), (("i", 0),))
        assert header != ((("t3", 3),), ("i",), (("i", 2),))

    def test_immutable(self):
        _, te = self._expr()
        h = te.header
        for obj, name in ((h, "factors"), (h, "pairs"), (h, "free"),
                          (te, "vec"), (te, "header")):
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
        with pytest.raises(AttributeError):
            te.extra = 1

    def test_result_equality_ignores_quotient(self):
        reg, te = self._expr()
        res = reg.simplify(te)
        fresh = make_registry("a2", "ri").simplify(te)
        assert res.quotient is not fresh.quotient
        assert res == fresh
        assert "quotient" not in repr(res)
        other = reg.normalize(raw_terms("a2(i,j)*ri(i,j,k,m)"))
        assert texpr.SimplifyResult(other, res.shortest, res.quotient) != res
        with pytest.raises(TypeError):
            hash(res)

    def test_repr_names_the_fields(self):
        assert repr(texpr.TensorHeader((("a2", 2),), ("a",), ())) == (
            "TensorHeader(factors=(('a2', 2),), pairs=('a',), free=())")


class TestMemoryEstimate:
    def test_rank_one(self):
        mc, mb = estimate_memory(1)
        assert mc == pytest.approx(8e-6)

    def test_monotone_factorial_growth(self):
        prev = estimate_memory(1)
        for n in range(2, 15):
            cur = estimate_memory(n)
            assert cur[0] == pytest.approx(prev[0] * n)
            assert cur[1] > prev[1]
            prev = cur

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            estimate_memory(0)


def test_all_perms_lexicographic():
    # all of S_n, without pairs, in lexicographic order
    ps = list(coset_reps(3, 0))
    assert len(ps) == 6
    assert ps == sorted(ps)

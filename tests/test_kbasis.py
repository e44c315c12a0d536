"""Triangle bases: reduction, sieving, insertion with rearrangement, export."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from tensorcanon import galg
from tensorcanon.galg import GroupVector
from tensorcanon.kbasis import KBasis, PivotCollisionError
from tensorcanon.texpr import coset_reps

from conftest import (check_reduced, identity, inversion_sign, random_vector,
                      scale, unit)
from reference_kbasis import ReferenceKBasis


def sign_relations(n):
    """e_p - sign(p)*e_id for p != id; spans a subspace of dimension n!-1."""
    e = identity(n)
    return [galg.add(unit(p), unit(e, -inversion_sign(p)))
            for p in coset_reps(n, 0) if p != e]


class TestSieve:
    def test_empty_basis(self):
        b = KBasis(3)
        rng = random.Random(1)
        v = random_vector(rng, 3)
        assert b.sieve(v) == v

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            KBasis(3).sieve(unit((1, 2)))

    def test_sign_scenario(self):
        # sieving any e_p against the parity relations lands on sign(p)*e_id
        b = KBasis(3).build(sign_relations(3))
        assert b.dim() == 5
        for p in coset_reps(3, 0):
            assert b.sieve(unit(p)) == unit(identity(3), inversion_sign(p))

    def test_idempotent(self):
        b = KBasis(3).build(sign_relations(3))
        rng = random.Random(2)
        for _ in range(50):
            v = random_vector(rng, 3)
            s = b.sieve(v)
            assert b.sieve(s) == s

    def test_trace_matches_and_shortens(self):
        b = KBasis(3).build(sign_relations(3))
        rng = random.Random(3)
        for _ in range(50):
            v = random_vector(rng, 3)
            canonical, shortest = b.sieve_trace(v)
            assert canonical == b.sieve(v)
            assert len(shortest.terms) <= len(v.terms)
            assert len(shortest.terms) <= len(canonical.terms)
            # the shortest form is equivalent: difference sieves to zero
            assert b.sieve(galg.add(shortest, galg.negate(canonical))).is_zero()


def reference_sieve_trace(b, v):
    """The earlier two-loop algorithm, kept as a reference: eliminate the
    first pivot term with galg.add until none is left, keeping the
    earliest fewest-term form."""
    rows = {r.terms[0][1]: r for r in b.rows}
    shortest = v
    while True:
        hit = next(((c, rows[p]) for c, p in v.terms if p in rows), None)
        if hit is None:
            return v, shortest
        c, row = hit
        v = galg.add(v, scale(-c / row.terms[0][0], row))
        if len(v.terms) < len(shortest.terms):
            shortest = v


def random_combination(rng, pool, max_terms):
    d = {}
    for p in rng.sample(pool, rng.randint(1, min(max_terms, len(pool)))):
        d[p] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return galg.from_dict(len(pool[0]), d)


class TestSieveDifferential:
    def test_matches_reference(self):
        # terms come from a small pool so that relations overlap and the
        # sieved vectors hit pivots
        rng = random.Random(20)
        differs = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            perms = list(coset_reps(n, 0))
            pool = rng.sample(perms, min(10, len(perms)))
            rels = [random_combination(rng, pool, 4)
                    for _ in range(rng.randint(1, 8))]
            b = KBasis(n).build(rels)
            assert check_reduced(b)
            v = random_combination(rng, pool, 8)
            canonical, shortest = b.sieve_trace(v)
            ref_canonical, ref_shortest = reference_sieve_trace(b, v)
            assert canonical.terms == ref_canonical.terms
            assert shortest.terms == ref_shortest.terms
            assert b.sieve(v).terms == ref_canonical.terms
            differs += shortest != canonical
        assert differs > 0


class TestInsert:
    def test_empty_insert(self):
        b = KBasis(2)
        v = galg.add(unit((2, 1), Fraction(2, 3)),
                     unit((1, 2), Fraction(4, 3)))
        b.insert(v)
        assert b.dim() == 1
        assert b.rows[0] == galg.renorm(v)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            KBasis(2).insert(GroupVector(2))

    def test_pivot_collision(self):
        b = KBasis(2)
        b.insert(unit((2, 1)))
        with pytest.raises(PivotCollisionError):
            b.insert(unit((2, 1), 5))

    def test_unsieved_vector_carrying_a_pivot(self):
        # e21 + e12 carries the pivot of the row e12; as a row it would
        # leave the basis unreduced, and sieve(e21) would give -e12
        b = KBasis(2)
        b.insert(unit((1, 2)))
        with pytest.raises(PivotCollisionError):
            b.insert(galg.add(unit((2, 1)), unit((1, 2))))
        assert b.dim() == 1 and check_reduced(b)
        b.insert(unit((2, 1)))
        assert b.sieve(unit((2, 1))).is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            KBasis(3).insert(unit((2, 1)))
        with pytest.raises(ValueError):
            KBasis(3).build([[(1, (2, 1))]])

    def test_rearranges_existing_rows(self):
        # an older row holding the new pivot gets reduced on insert
        b = KBasis(3)
        b.insert(galg.add(unit((3, 2, 1)), unit((2, 1, 3))))
        b.insert(galg.add(unit((2, 1, 3)), unit((1, 2, 3))))
        assert check_reduced(b)
        first = b.rows[0]
        assert {p: c for c, p in first.terms}.get((2, 1, 3), 0) == 0

    def test_check_reduced_after_build(self):
        b = KBasis(4).build(sign_relations(4))
        assert b.dim() == 23
        assert check_reduced(b)


class TestBuild:
    def test_empty(self):
        b = KBasis(3).build([])
        assert b.dim() == 0

    def test_dependent_relations_skipped(self):
        rels = sign_relations(3)
        b = KBasis(3).build(rels + rels)
        assert b.dim() == 5

    def test_generator_input(self):
        b = KBasis(3).build(r for r in sign_relations(3))
        assert b.dim() == 5


@st.composite
def relation_sets(draw):
    """A degree 2-5 and 1-10 relations over a pool of at most 8 maps, so
    that they overlap, each {map: coefficient} of up to 4 terms with
    coefficients +-1, +-2 and +-3, so that rows get pivots other than 1
    and sieve steps divide into Fractions."""
    n = draw(st.integers(2, 5))
    pool = draw(st.lists(st.sampled_from(list(coset_reps(n, 0))),
                         min_size=2, max_size=8, unique=True))
    relation = st.dictionaries(st.sampled_from(pool),
                               st.sampled_from([-3, -2, -1, 1, 2, 3]),
                               min_size=1, max_size=4)
    return n, draw(st.lists(relation, min_size=1, max_size=10))


class TestBuildDifferential:
    """`build` takes each relation as its terms in any order and reduces a
    carrier row in one pass; the rows, their order and their int
    coefficients must be those of the sieve-then-insert reference."""

    @settings(max_examples=300, deadline=None)
    @given(relation_sets(), st.randoms(use_true_random=False))
    def test_matches_reference(self, case, rng):
        n, rels = case
        expected = ReferenceKBasis(n).build(
            galg.from_dict(n, d) for d in rels)
        shuffled = []
        for d in rels:
            terms = [(c, p) for p, c in d.items()]
            rng.shuffle(terms)
            shuffled.append(terms)
        b = KBasis(n).build(shuffled)
        assert [r.terms for r in b.rows] == [r.terms for r in expected.rows]
        assert all(type(c) is int for r in b.rows for c, _ in r.terms)
        assert check_reduced(b)
        if any(r.terms[0][0] != 1 for r in b.rows):
            event("a pivot other than 1")

    def test_fraction_step(self):
        # the row 2*e321 + 3*e123 has pivot 2, so sieving e321 out of
        # e231 + e321 divides: the residue is 2*e231 - 3*e123, renormed
        rels = [{(3, 2, 1): 2, (1, 2, 3): 3}, {(2, 3, 1): 1, (3, 2, 1): 1}]
        expected = ReferenceKBasis(3).build(galg.from_dict(3, d)
                                            for d in rels)
        b = KBasis(3).build([(c, p) for p, c in d.items()] for d in rels)
        assert [r.terms for r in b.rows] == [r.terms for r in expected.rows]
        assert b.rows[1].terms == ((2, (2, 3, 1)), (-3, (1, 2, 3)))


class TestExport:
    def _basis(self):
        b = KBasis(2)
        b.insert(galg.add(unit((2, 1)), unit((1, 2), -1)))
        return b

    def test_dump_text(self):
        t = self._basis().dump_text()
        lines = t.strip().split("\n")
        assert lines[-1] == "1"
        assert "1*(2 1)" in lines[0]
        assert "- 1*(1 2)" in lines[0]

    def test_dump_json(self):
        obj = json.loads(self._basis().dump_json())
        assert obj["degree"] == 2
        assert obj["dimension"] == 1
        assert obj["rows"] == [{"coeffs": ["1", "-1"],
                                "perms": [[2, 1], [1, 2]]}]


class TestStoredRows:
    def test_roundtrip(self):
        b = KBasis(3).build(sign_relations(3))
        loaded = KBasis.from_rows(b.degree, b.rows)
        assert loaded.degree == b.degree
        assert loaded.rows == b.rows
        assert check_reduced(loaded)
        # sieving alone leaves the column index unbuilt
        assert loaded.sieve(unit(identity(3))) == unit(identity(3))
        assert loaded._cols is None
        # the first insert indexes the loaded rows and reduces them all
        loaded.insert(unit(identity(3)))
        assert loaded.dim() == 6
        assert check_reduced(loaded)
        assert all(len(row) == 1 for row in loaded.rows)

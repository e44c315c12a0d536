"""Triangle bases: reduction, sieving, insertion with rearrangement, export."""

import json
import random
from fractions import Fraction

import pytest

from tensorcanon import galg, perm
from tensorcanon.kbasis import KBasis, PivotCollisionError
from tensorcanon.texpr import coset_reps

from conftest import check_reduced, inversion_sign, random_vector


def sign_relations(n):
    """e_p - sign(p)*e_id for p != id; spans a subspace of dimension n!-1."""
    e = perm.identity(n)
    return [galg.add(galg.unit(p), galg.unit(e, -inversion_sign(p)))
            for p in coset_reps(n, 0) if p != e]


class TestSieve:
    def test_empty_basis(self):
        b = KBasis(3)
        rng = random.Random(1)
        v = random_vector(rng, 3)
        assert b.sieve(v) == v

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            KBasis(3).sieve(galg.unit((1, 2)))

    def test_sign_scenario(self):
        # sieving any e_p against the parity relations lands on sign(p)*e_id
        b = KBasis(3).build(sign_relations(3))
        assert b.dim() == 5
        for p in coset_reps(3, 0):
            assert b.sieve(galg.unit(p)) == galg.unit(
                perm.identity(3), inversion_sign(p))

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
    rows = {galg.leading(r)[1]: r for r in b.rows}
    shortest = v
    while True:
        hit = next(((c, rows[p]) for c, p in v.terms if p in rows), None)
        if hit is None:
            return v, shortest
        c, row = hit
        v = galg.add(v, galg.scale(-c / galg.leading(row)[0], row))
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
        v = galg.add(galg.unit((2, 1), Fraction(2, 3)),
                     galg.unit((1, 2), Fraction(4, 3)))
        b.insert(v)
        assert b.dim() == 1
        assert b.rows[0] == galg.renorm(v)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            KBasis(2).insert(galg.zero(2))

    def test_pivot_collision(self):
        b = KBasis(2)
        b.insert(galg.unit((2, 1)))
        with pytest.raises(PivotCollisionError):
            b.insert(galg.unit((2, 1), 5))

    def test_rearranges_existing_rows(self):
        # an older row holding the new pivot gets reduced on insert
        b = KBasis(3)
        b.insert(galg.add(galg.unit((3, 2, 1)),
                          galg.unit((2, 1, 3))))
        b.insert(galg.add(galg.unit((2, 1, 3)),
                          galg.unit((1, 2, 3))))
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


class TestExport:
    def _basis(self):
        b = KBasis(2)
        b.insert(galg.add(galg.unit((2, 1)), galg.unit((1, 2), -1)))
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
        assert loaded.sieve(galg.unit(perm.identity(3))) == galg.unit(
            perm.identity(3))
        assert loaded._cols is None
        # the first insert indexes the loaded rows and reduces them all
        loaded.insert(galg.unit(perm.identity(3)))
        assert loaded.dim() == 6
        assert check_reduced(loaded)
        assert all(len(row) == 1 for row in loaded.rows)

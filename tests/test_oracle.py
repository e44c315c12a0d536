"""Brute-force reference checks and its agreement with the engine."""

import random

import pytest

from tensorcanon import galg, oracle
from tensorcanon.galg import GroupVector
from tensorcanon.kbasis import KBasis
from tensorcanon.texpr import coset_reps

from conftest import (identity, inversion_sign, make_registry, random_vector,
                      raw_terms, unit)


def parity_relations(n):
    e = identity(n)
    return [galg.add(unit(p), unit(e, -inversion_sign(p)))
            for p in coset_reps(n, 0) if p != e]


class TestBasics:
    def test_member_zero(self):
        rels = parity_relations(3)
        assert oracle.member(GroupVector(3), rels)

    def test_member_of_relations(self):
        rels = parity_relations(3)
        for r in rels:
            assert oracle.member(r, rels)

    def test_member_empty_relation_set(self):
        assert oracle.member(GroupVector(3), [])
        assert not oracle.member(unit((2, 1, 3)), [])

    def test_member_generator_input(self):
        rels = parity_relations(3)
        assert oracle.member(rels[0], (r for r in rels))

    def test_residual_no_relations(self):
        v = unit((2, 1))
        assert oracle.residual(v, []) == v

    def test_residual_of_relations_zero(self):
        rels = parity_relations(4)
        for r in rels:
            assert oracle.residual(r, rels).is_zero()

    def test_span_dim(self):
        assert oracle.span_dim(parity_relations(3)) == 5
        assert oracle.span_dim(parity_relations(4)) == 23

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            oracle.span_dim([unit(identity(8))])


class TestEngineAgreement:
    def test_stored_bases(self):
        for name, n in (("a2", 2), ("s2", 2), ("a3", 3), ("s3", 3),
                        ("ri", 4)):
            reg = make_registry(name)
            te = reg.normalize(raw_terms(
                f"{name}({','.join('ijkl'[:n])})"))
            rels = reg.product_relations(te.header)
            assert oracle.span_dim(rels) == reg.tensors[name].k0_basis().dim()

    def test_random_relation_sets(self):
        rng = random.Random(42)
        for _ in range(10):
            n = rng.randint(2, 4)
            rels = [random_vector(rng, n) for _ in range(rng.randint(1, 5))]
            rels = [r for r in rels if not r.is_zero()]
            if not rels:
                continue
            b = KBasis(n).build(rels)
            assert b.dim() == oracle.span_dim(rels)
            for _ in range(5):
                v = random_vector(rng, n)
                assert b.sieve(v).is_zero() == oracle.member(v, rels)

    def test_residual_equivalence(self):
        # engine and oracle pick different representatives, but those
        # representatives must differ by a relation vector
        rng = random.Random(5)
        rels = parity_relations(4)
        b = KBasis(4).build(rels)
        for _ in range(10):
            v = random_vector(rng, 4)
            d = galg.add(b.sieve(v), galg.negate(oracle.residual(v, rels)))
            assert oracle.member(d, rels)

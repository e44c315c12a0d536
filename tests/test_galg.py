"""Group-algebra vectors: invariants, linear ops, translations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tensorcanon import galg, perm
from tensorcanon.galg import GroupVector

from conftest import (identity, inverse, random_vector, scale,
                      translate_right, unit)


def vectors(n=3):
    from itertools import permutations
    perms = list(permutations(range(1, n + 1)))
    term = st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.sampled_from(perms))
    return st.lists(term, max_size=5).map(lambda tl: GroupVector(n, tl))


class TestInvariants:
    def test_terms_sorted_descending_no_zeros(self):
        v = GroupVector(3, [(Fraction(1), (1, 2, 3)),
                            (Fraction(0), (2, 1, 3)),
                            (Fraction(2), (3, 2, 1))])
        assert [p for _, p in v.terms] == [(3, 2, 1), (1, 2, 3)]

    def test_duplicates_merged(self):
        p = (2, 1)
        v = GroupVector(2, [(Fraction(1), p), (Fraction(2), p)])
        assert v.terms == ((Fraction(3), p),)

    def test_cancelling_duplicates(self):
        p = (2, 1)
        v = GroupVector(2, [(Fraction(2), p), (Fraction(-2), p)])
        assert v.is_zero()

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GroupVector(2, [(Fraction(1), (1, 2, 3))])

    def test_terms_are_checked(self):
        # the merging path validates every map it is given
        with pytest.raises(ValueError, match="not a permutation"):
            GroupVector(2, [(1, (1, 1))])
        with pytest.raises(ValueError, match="degree must be at least 1"):
            GroupVector(2, [(1, ())])
        assert GroupVector(2, [(1, [2, 1])]).terms == ((Fraction(1), (2, 1)),)

    def test_coeff_and_dict(self):
        p, q = (2, 1), (1, 2)
        v = galg.add(unit(p, 2), unit(q, -3))
        coeffs = {r: c for c, r in v.terms}
        assert coeffs[p] == 2
        assert coeffs[q] == -3
        assert v.terms == ((Fraction(2), p), (Fraction(-3), q))


class TestLinearOps:
    @given(vectors())
    def test_add_zero(self, v):
        assert galg.add(v, GroupVector(3)) == v

    @given(vectors())
    def test_add_negate(self, v):
        assert galg.add(v, galg.negate(v)).is_zero()

    @given(vectors(), vectors())
    def test_add_commutes(self, u, v):
        assert galg.add(u, v) == galg.add(v, u)

    @given(vectors(), vectors(), vectors())
    def test_add_associates(self, u, v, w):
        assert galg.add(galg.add(u, v), w) == galg.add(u, galg.add(v, w))

    @given(vectors())
    def test_scale_laws(self, v):
        # negate is scaling by -1, term for term and in the same order
        n = galg.negate(v)
        assert n.terms == tuple((-c, p) for c, p in v.terms)
        assert n == GroupVector(3, [(-c, p) for c, p in v.terms])
        assert galg.negate(n) == v


class TestSortCompressRenorm:
    @given(vectors())
    def test_renorm(self, v):
        r = galg.renorm(v)
        if v.is_zero():
            assert r.is_zero()
            return
        from math import gcd
        nums = [c for c, _ in r.terms]
        assert all(c.denominator == 1 for c in nums)
        g = 0
        for c in nums:
            g = gcd(g, abs(c.numerator))
        assert g == 1
        assert nums[0] > 0
        # renorm is projective: scaling the input does not change it
        assert galg.renorm(scale(Fraction(3, 7), v)) == r
        assert galg.renorm(r) == r


class TestTranslate:
    @given(vectors())
    def test_identity_translations(self, v):
        e = identity(3)
        assert translate_right(v, e) == v

    def test_translate_right_unit(self):
        q, p = (2, 1, 3), (3, 1, 2)
        assert translate_right(unit(q), p) == unit(
            perm.multiply(q, p))

    @given(vectors())
    def test_translations_invertible(self, v):
        p = (2, 3, 1)
        assert translate_right(translate_right(v, p), inverse(p)) == v


class TestLeading:
    def test_maximal_map_wins(self):
        rng = random.Random(11)
        for _ in range(20):
            v = random_vector(rng, 4)
            if v.is_zero():
                continue
            # the first term carries the maximal map
            _, p = v.terms[0]
            assert p == max(q for _, q in v.terms)

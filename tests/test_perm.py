"""Permutation arithmetic: composition convention, inverses, slot selection,
extensions."""

import pytest
from hypothesis import given, strategies as st

from tensorcanon import perm
from tensorcanon.perm import Perm


def perms(max_degree=6):
    return (st.integers(1, max_degree)
            .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
            .map(Perm))


def all_of(n):
    from itertools import permutations
    return [Perm(m) for m in permutations(range(1, n + 1))]


class TestConstruction:
    def test_valid(self):
        p = Perm((2, 3, 1))
        assert p.map == (2, 3, 1)
        assert p.degree == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((1, 1))
        with pytest.raises(ValueError):
            Perm((0, 1))
        with pytest.raises(ValueError):
            Perm(())

    def test_equality_and_hash(self):
        assert Perm((2, 1)) == Perm((2, 1))
        assert Perm((2, 1)) != Perm((1, 2))
        assert hash(Perm((2, 1))) == hash(Perm((2, 1)))

    def test_str(self):
        assert str(Perm((2, 1, 3))) == "(2 1 3)"


class TestMultiply:
    def test_convention_q_first(self):
        # multiply(p, q)[i] = p[q[i]]
        p = Perm((2, 3, 1))
        q = Perm((3, 1, 2))
        assert perm.multiply(p, q).map == tuple(p.map[j - 1] for j in q.map)

    def test_identity_neutral(self):
        p = Perm((3, 1, 2))
        e = perm.identity(3)
        assert perm.multiply(p, e) == p
        assert perm.multiply(e, p) == p

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            perm.multiply(Perm((1, 2)), Perm((1, 2, 3)))

    @given(perms(), perms(), perms())
    def test_associative(self, p, q, r):
        if not p.degree == q.degree == r.degree:
            return
        assert (perm.multiply(perm.multiply(p, q), r)
                == perm.multiply(p, perm.multiply(q, r)))

    @given(perms())
    def test_apply_composes_contravariantly(self, p):
        # apply(multiply(p,q), l) = apply(q, apply(p, l))
        n = p.degree
        for q in all_of(min(n, 3)) if n <= 3 else [perm.inverse(p)]:
            if q.degree != n:
                continue
            l = tuple(f"x{i}" for i in range(n))
            assert (perm.apply(perm.multiply(p, q), l)
                    == perm.apply(q, perm.apply(p, l)))


class TestInverseDivide:
    @given(perms())
    def test_inverse(self, p):
        e = perm.identity(p.degree)
        assert perm.multiply(p, perm.inverse(p)) == e
        assert perm.multiply(perm.inverse(p), p) == e


class TestApply:
    def test_identity(self):
        assert perm.apply(perm.identity(3), ("a", "b", "c")) == ("a", "b", "c")

    def test_selection(self):
        # result[i] = l[p[i]]
        assert perm.apply(Perm((3, 1, 2)), ("a", "b", "c")) == ("c", "a", "b")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            perm.apply(Perm((1, 2)), ("a",))


class TestExtendConcat:
    def test_extend_right_zero(self):
        p = Perm((2, 1))
        assert perm.extend_right(p, 0) == p

    def test_extend_right(self):
        assert perm.extend_right(Perm((2, 1)), 2).map == (2, 1, 3, 4)

    def test_extend_left_zero(self):
        p = Perm((2, 1))
        assert perm.extend_left(p, 0) == p

    def test_extend_left(self):
        assert perm.extend_left(Perm((2, 1)), 2).map == (1, 2, 4, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            perm.extend_right(Perm((1,)), -1)
        with pytest.raises(ValueError):
            perm.extend_left(Perm((1,)), -1)


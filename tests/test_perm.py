"""Permutation arithmetic: validation, composition convention, and the
test-only inverse in conftest."""

import pytest
from hypothesis import given, strategies as st

from tensorcanon import perm
from tensorcanon.kbasis import KBasis

from conftest import identity, inverse, unit


def perms(max_degree=6):
    return (st.integers(1, max_degree)
            .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
            .map(perm.check))


class TestConstruction:
    def test_valid(self):
        p = perm.check([2, 3, 1])
        assert p == (2, 3, 1)
        assert len(p) == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            perm.check((1, 1))
        with pytest.raises(ValueError):
            perm.check((0, 1))
        with pytest.raises(ValueError):
            perm.check(())

    def test_check_texts(self):
        # the texts of the permutation constructor that check replaces
        with pytest.raises(ValueError) as ei:
            perm.check((1, 1, 2))
        assert str(ei.value) == "not a permutation of 1..3: (1, 1, 2)"
        with pytest.raises(ValueError) as ei:
            perm.check(())
        assert str(ei.value) == "permutation degree must be at least 1"

    def test_equality_and_hash(self):
        assert perm.check((2, 1)) == perm.check([2, 1])
        assert perm.check((2, 1)) != perm.check((1, 2))
        assert hash(perm.check((2, 1))) == hash(perm.check([2, 1]))

    def test_str(self):
        # a permutation prints in the basis export as its map in parentheses
        b = KBasis(3)
        b.insert(unit((2, 1, 3)))
        assert b.dump_text() == "1*(2 1 3)\n1\n"


class TestMultiply:
    def test_convention_q_first(self):
        # multiply(p, q)[i] = p[q[i]]
        p = (2, 3, 1)
        q = (3, 1, 2)
        assert perm.multiply(p, q) == tuple(p[j - 1] for j in q)

    def test_identity_neutral(self):
        p = (3, 1, 2)
        e = identity(3)
        assert perm.multiply(p, e) == p
        assert perm.multiply(e, p) == p

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            perm.multiply((1, 2), (1, 2, 3))

    @given(perms(), perms(), perms())
    def test_associative(self, p, q, r):
        if not len(p) == len(q) == len(r):
            return
        assert (perm.multiply(perm.multiply(p, q), r)
                == perm.multiply(p, perm.multiply(q, r)))


class TestInverseDivide:
    @given(perms())
    def test_inverse(self, p):
        e = identity(len(p))
        assert perm.multiply(p, inverse(p)) == e
        assert perm.multiply(inverse(p), p) == e

"""Shared fixtures: scenario registries, random vector generation, unit
and scaled vectors through the public constructor, the identity and the
inverse of a permutation, right translation of a vector and a parity
oracle."""

from fractions import Fraction
import random

from tensorcanon import frontend, galg
from tensorcanon.galg import GroupVector
from tensorcanon.perm import multiply
from tensorcanon.texpr import Registry, coset_reps

# The standard scenarios: an antisymmetric and a symmetric pair tensor,
# their rank-3 analogues, and a curvature-type rank-4 tensor with a
# three-term cyclic identity.
RELATIONS = {
    "a2": ["a2(i,j)+a2(j,i)"],
    "s2": ["s2(i,j)-s2(j,i)"],
    "a3": ["a3(i,j,k)+a3(j,i,k)", "a3(i,j,k)-a3(j,k,i)"],
    "s3": ["s3(i,j,k)-s3(j,i,k)", "s3(i,j,k)-s3(j,k,i)"],
    "ri": ["ri(i,j,k,l)+ri(j,i,k,l)", "ri(i,j,k,l)+ri(i,j,l,k)",
           "ri(i,j,k,l)+ri(i,k,l,j)+ri(i,l,j,k)"],
}
# multiterm tensors other than ri: a cyclic identity alone, and the
# mixed (Young) symmetry of a tensor symmetric in its first two slots
MULTITERM = {"c3": ["c3(i,j,k)+c3(j,k,i)+c3(k,i,j)"],
             "y3": ["y3(i,j,k)-y3(j,i,k)", "y3(i,j,k)+y3(j,k,i)+y3(k,i,j)"]}


def raw_terms(text: str):
    """Parse one expression into raw (coeff, factors) terms."""
    stmt = frontend.parse(text + ";")[0]
    return frontend.to_raw_terms(frontend.resolve(stmt.expr, {}))


def make_registry(*tensors: str, max_rank: int = 8) -> Registry:
    reg = Registry(max_rank=max_rank)
    for name in tensors:
        reg.declare(name)
        for rel in RELATIONS.get(name, []):
            reg.declare_symmetry(raw_terms(rel))
    return reg


def random_vector(rng: random.Random, n: int, max_terms: int = 4):
    perms = list(coset_reps(n, 0))
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        p = rng.choice(perms)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        d[p] = d.get(p, Fraction(0)) + c
    return galg.from_dict(n, d)


def check_reduced(b) -> bool:
    """Invariant check of a KBasis: no row touches another row's pivot,
    and the column index, once built, lists exactly the rows that carry
    each non-pivot permutation."""
    for key, row in b._rows.items():
        for _, p in row.terms[1:]:
            if p in b._rows:
                return False
        if row.terms[0][1] != key:
            return False
    return b._cols is None or b._cols == b._index()


def unit(p: tuple, c=1) -> GroupVector:
    """The single-term vector c*e_p, zero when c is."""
    return GroupVector(len(p), [(c, p)])


def scale(c, v: GroupVector) -> GroupVector:
    return GroupVector(v.degree, [(galg.coef(c) * a, p) for a, p in v.terms])


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def inverse(p: tuple) -> tuple[int, ...]:
    """The x with multiply(x, p) = identity."""
    r = [0] * len(p)
    for i, v in enumerate(p):
        r[v - 1] = i + 1
    return tuple(r)


def translate_right(v: GroupVector, p: tuple) -> GroupVector:
    """Replace every term permutation q by q∘p."""
    if len(p) != v.degree:
        raise ValueError(f"degree mismatch: {v.degree} != {len(p)}")
    terms = sorted(((c, multiply(q, p)) for c, q in v.terms),
                   key=lambda t: t[1], reverse=True)
    return GroupVector(v.degree, tuple(terms), _normalized=True)


def inversion_sign(p: tuple) -> int:
    """Parity of p, (-1)^(number of inversions), independent of the engine."""
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return -1 if inv % 2 else 1

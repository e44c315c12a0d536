"""Acceptance gate: six criteria, one pass/fail line each.

Expected values come from two sources: fixed reference numbers checked in
as literals, and the independent brute-force eliminator in the oracle
module, which shares no code with the engine's triangle-basis sieve.
"""

import functools
import io
import random
import re
import string
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from tensorcanon import frontend, galg, oracle
from tensorcanon.cli import Session
from tensorcanon.kbasis import KBasis
from tensorcanon.texpr import estimate_memory

from conftest import RELATIONS, make_registry, random_vector, raw_terms, scale

HERE = Path(__file__).parent


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


@criterion("criterion 1 (stored basis dimensions)")
def test_criterion_1_stored_basis_dimensions():
    expected = {"a2": 1, "s2": 1, "a3": 5, "s3": 5, "ri": 22}
    for name, dim in expected.items():
        t0 = time.perf_counter()
        reg = make_registry(name)
        got = reg.tensors[name].k0_basis().dim()
        elapsed = time.perf_counter() - t0
        assert got == dim, f"{name}: dim {got} != {dim}"
        assert elapsed < 1.0, f"{name}: {elapsed:.2f}s >= 1s"


@criterion("criterion 2 (product basis dimension)")
def test_criterion_2_product_basis_dimension():
    out = io.StringIO()
    s = Session(out=out, err=io.StringIO())
    s.run_text("tensor s2,a3; tsym s2(i,j)-s2(j,i);"
               "tsym a3(i,j,k)+a3(j,i,k), a3(i,j,k)-a3(j,k,i);")
    t0 = time.perf_counter()
    s.run_text("kbasis s2(a3);")
    elapsed = time.perf_counter() - t0
    lines = out.getvalue().strip().split("\n")
    assert lines[-1] == "110", f"dim {lines[-1]} != 110"
    assert len(lines) == 111
    assert elapsed < 30.0, f"{elapsed:.1f}s >= 30s"


# (expression, reference result, reference term count, tensors, slow)
GOLDEN = [
    ("a2(k,k)", "0", 0, ("a2",), False),
    ("a2(j,i)-a2(i,j)", "2*a2(j,i)", 1, ("a2",), False),
    ("a2(i,j)*v1(i)*v1(j)", "0", 0, ("a2", "v1"), False),
    ("a2(i,j)*s2(i,j)", "0", 0, ("a2", "s2"), False),
    ("a2(i,j)*a2(j,k)*a2(k,i)", "0", 0, ("a2",), True),
    ("a3(i,k,i)", "0", 0, ("a3",), False),
    ("s3(i,j,k)-s3(i,k,j)", "0", 0, ("s3",), False),
    ("s3(i,j,k)*a3(i,j,k)", "0", 0, ("s3", "a3"), True),
    ("ri(i,j,k,l)-ri(k,l,i,j)", "0", 0, ("ri",), False),
    ("ri(m,n,m,n)-ri(m,n,n,m)", "2*ri(m,n,m,n)", 1, ("ri",), False),
    ("ri(i,j,k,l)+ri(j,k,l,i)+ri(k,l,i,j)+ri(l,i,j,k)",
     "-2*ri(l,j,i,k)+4*ri(l,i,j,k)", 2, ("ri",), False),
    ("a2(m,n)*ri(m,n,c,d)+a2(k,l)*ri(c,d,l,k)", "0", 0, ("a2", "ri"), True),
    ("(ri(i,j,k,l)-ri(i,k,j,l))*a2(i,j)", "half", 1, ("a2", "ri"), True),
]

HALF_TARGET = [(Fraction(1, 2),
                (("a2", ("i", "j")), ("ri", ("i", "j", "k", "l"))))]


@criterion("criterion 3 (simplification golden suite)")
def test_criterion_3_golden_simplifications():
    for expr, target, nterms, tensors, slow in GOLDEN:
        reg = make_registry(*tensors)
        te = reg.normalize(raw_terms(expr))
        t0 = time.perf_counter()
        result = reg.simplify(te)
        elapsed = time.perf_counter() - t0
        got = len(result.canonical.vec.terms)
        assert got == nterms, f"{expr}: {got} terms != {nterms}"
        if target == "0":
            assert result.canonical.is_zero(), f"{expr}: expected zero"
        else:
            raw = (HALF_TARGET if target == "half" else raw_terms(target))
            # semantic equality: result minus reference sieves to zero
            assert reg.equal(result.canonical, reg.normalize(raw)), \
                f"{expr}: differs from reference {target}"
        budget = 60.0 if slow else 10.0
        assert elapsed < budget, f"{expr}: {elapsed:.1f}s >= {budget}s"


@criterion("criterion 4 (memory estimator table)")
def test_criterion_4_memory_estimates():
    expected = {9: (2.9, 22.6), 10: (29.0, 226.8), 11: (319.3, 2494.8)}
    for rank, (mc_ref, mb_ref) in expected.items():
        mc, mb = estimate_memory(rank)
        assert abs(mc - mc_ref) / mc_ref < 0.01, f"rank {rank}: {mc} Mcells"
        assert abs(mb - mb_ref) / mb_ref < 0.01, f"rank {rank}: {mb} MByte"


def _scenario_bases():
    out = {}
    for name, n in (("a2", 2), ("a3", 3), ("ri", 4)):
        reg = make_registry(name)
        b = reg.tensors[name].k0_basis()
        out[name] = (n, b)
    reg = make_registry("s2", "a3")
    te = reg.normalize(raw_terms("a3(i,j,k)*s2(l,m)"))
    out["s2(a3)"] = (5, reg.expression_basis(te.header))
    return out


def _rename_variants(rng, expr, dummies, free):
    pool = [x for x in string.ascii_lowercase if x not in free]
    new = rng.sample(pool, len(dummies))
    pat = re.compile("|".join(dummies))
    table = dict(zip(dummies, new))
    return pat.sub(lambda m: table[m.group()], expr)


@criterion("criterion 5 (property suites)")
def test_criterion_5_properties():
    rng = random.Random(2026)

    # sieve idempotence, linearity and the canonical length bound,
    # 1000 random vectors per scenario
    for label, (n, basis) in _scenario_bases().items():
        bound = factorial(n) - basis.dim()
        prev = None
        for _ in range(1000):
            v = random_vector(rng, n)
            s = basis.sieve(v)
            assert basis.sieve(s) == s, f"{label}: sieve not idempotent"
            assert len(s.terms) <= bound, f"{label}: length bound violated"
            if prev is not None:
                combo = galg.add(scale(2, v), scale(-3, prev))
                lin = galg.add(scale(2, s), scale(-3, basis.sieve(prev)))
                assert basis.sieve(combo) == lin, f"{label}: not linear"
            prev = v

    # output invariance under 200 randomized dummy renamings
    renamings = [("ri(m,n,m,n)", ("m", "n"), (), ("ri",)),
                 ("a2(m,n)*v1(m)*v2(n)", ("m", "n"), (), ("a2", "v1", "v2")),
                 ("a2(m,n)*ri(m,n,c,d)", ("m", "n"), ("c", "d"),
                  ("a2", "ri"))]
    done = 0
    for expr, dummies, free, tensors in renamings:
        reg = make_registry(*tensors)
        baseline = reg.simplify(reg.normalize(raw_terms(expr))).canonical
        count = 10 if "ri(m,n,c,d)" in expr else 95
        for _ in range(count):
            variant = _rename_variants(rng, expr, dummies, free)
            res = reg.simplify(reg.normalize(raw_terms(variant))).canonical
            assert res.vec == baseline.vec, f"{variant}: result moved"
            assert res.header.npairs == baseline.header.npairs
            done += 1
    assert done == 200

    # the pair-exchange symmetry of ri is derived, not declared
    reg = make_registry("ri")
    assert len(RELATIONS["ri"]) == 3
    te = reg.normalize(raw_terms("ri(i,j,k,l)-ri(k,l,i,j)"))
    assert reg.equal(te, 0)
    # dual route: the same fact through the brute-force eliminator
    assert oracle.member(te.vec, reg.product_relations(te.header))

    # engine/oracle agreement on dimension and zero-membership:
    # 50 randomized relation sets plus all named scenarios, 100% required
    for i in range(50):
        n = rng.randint(2, 5)
        rels = [v for v in (random_vector(rng, n)
                            for _ in range(rng.randint(1, 6)))
                if not v.is_zero()]
        if not rels:
            continue
        b = KBasis(n).build(rels)
        assert b.dim() == oracle.span_dim(rels), f"set {i}: rank mismatch"
        for _ in range(3):
            v = random_vector(rng, n)
            assert b.sieve(v).is_zero() == oracle.member(v, rels), \
                f"set {i}: membership mismatch"
    for name in ("a2", "s2", "a3", "s3", "ri"):
        reg = make_registry(name)
        t = reg.tensors[name]
        te = reg.normalize(raw_terms(
            f"{name}({','.join('ijkl'[:t.arity])})"))
        rels = reg.product_relations(te.header)
        b = t.k0_basis()
        assert b.dim() == oracle.span_dim(rels), f"{name}: rank mismatch"
        for _ in range(5):
            v = random_vector(rng, t.arity)
            assert b.sieve(v).is_zero() == oracle.member(v, rels), \
                f"{name}: membership mismatch"
    reg = make_registry("s2", "a3")
    te = reg.normalize(raw_terms("a3(i,j,k)*s2(l,m)"))
    rels = reg.product_relations(te.header)
    b = reg.expression_basis(te.header)
    assert b.dim() == oracle.span_dim(rels) == 110
    for _ in range(5):
        v = random_vector(rng, 5)
        assert b.sieve(v).is_zero() == oracle.member(v, rels)


def _normalize_transcript(text):
    out = []
    for line in text.split("\n"):
        line = re.sub(r"\s+", " ", line).strip()
        if not line or line.startswith("Time:"):
            continue
        out.append(line)
    return out


@criterion("criterion 6 (session transcript)")
def test_criterion_6_transcript():
    script = (HERE.parent / "scripts" / "golden_session.tsc").read_text()
    expected = _normalize_transcript(
        (HERE / "data" / "golden_session.out").read_text())
    out, err = io.StringIO(), io.StringIO()
    session = Session(out=out, err=err, echo=True)
    t0 = time.perf_counter()
    status = session.run_text(script)
    elapsed = time.perf_counter() - t0
    assert status == 0
    assert err.getvalue() == ""
    got = _normalize_transcript(out.getvalue())
    assert got == expected
    assert elapsed < 300.0, f"{elapsed:.0f}s >= 5 minutes"

"""Coefficient types: an `int` where integral, a `Fraction` otherwise,
never a `float`.

Every GroupVector built while a session runs is recorded, and so is every
triangle basis inserted into: stored K0 bases, the closures' multiterm
bases and product bases alike.  Their rows must be renormed, with `int`
coefficients and a positive pivot.  The boundary tests give the library
`Fraction` and `float` inputs and build bases whose pivots are not 1, so
that a sieve step divides.
"""

import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tensorcanon import frontend, galg, oracle
from tensorcanon.cli import Session
from tensorcanon.galg import GroupVector
from tensorcanon.kbasis import KBasis
from tensorcanon.texpr import Registry, coset_reps

from conftest import check_reduced, make_registry, scale, unit

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

STRESS = """tensor a3, ri;
tsym a3(i,j,k)+a3(j,i,k), a3(i,j,k)-a3(j,k,i);
tsym ri(i,j,k,l)+ri(j,i,k,l), ri(i,j,k,l)+ri(i,j,l,k), ri(i,j,k,l)+ri(i,k,l,j)+ri(i,l,j,k);
ri(i,j,k,l)*a3(i,j,k);
ri(a,b,c,d)*ri(a,c,b,d);
ri(m,c,n,d)*ri(m,n,e,f);
ri(a,b,c,d)*ri(c,d,e,f)*ri(e,f,a,b);
"""


class Recorder:
    """The coefficient types of every GroupVector built and the bases
    inserted into, while installed."""

    def __init__(self, monkeypatch):
        self.types: set[type] = set()
        self.bases: dict[int, KBasis] = {}
        init, insert = GroupVector.__init__, KBasis.insert

        def recording_init(vec, degree, terms=(), *, _normalized=False):
            init(vec, degree, terms, _normalized=_normalized)
            self.types.update(type(c) for c, _ in vec.terms)

        def recording_insert(basis, v):
            insert(basis, v)
            self.bases[id(basis)] = basis

        monkeypatch.setattr(GroupVector, "__init__", recording_init)
        monkeypatch.setattr(KBasis, "insert", recording_insert)

    def check(self, registry: Registry):
        """No float was built; every basis row, the registry's stored and
        memoized ones included, is renormed."""
        assert self.types <= {int, Fraction}, self.types
        assert int in self.types
        rows = [row for b in self.bases.values() for row in b.rows]
        for t in registry.tensors.values():
            rows += t._k0
        lifted = []
        for closure, _ in registry._memo.values():
            rows += closure.basis.rows
            lifted += closure.rows
        assert rows
        for row in rows:
            check_row(row)
        # a closure's lifted rows are their (c, (0,)+map) terms in order
        for terms in lifted:
            assert all(type(c) is int for c, _ in terms), terms
            assert terms[0][0] > 0, terms


def check_row(row: GroupVector):
    assert all(type(c) is int for c, _ in row.terms), row
    assert row.terms[0][0] > 0, row


def check_vector(v: GroupVector):
    assert all(type(c) in (int, Fraction) for c, _ in v.terms), v


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)


def run(text: str, declarations: str = "") -> Session:
    session = Session(out=io.StringIO(), err=io.StringIO())
    session.run_text(declarations)
    assert session.run_text(text) == 0, session.err.getvalue()
    return session


class TestEngineCoefficients:
    def test_golden_session(self, recorder):
        script = (ROOT / "scripts" / "golden_session.tsc").read_text()
        session = run(script)
        recorder.check(session.registry)

    def test_pool_entries(self, recorder):
        # both forms of each entry, as `on shortest` prints the second
        session = run("", workloads.DECLARATIONS)
        reg = session.registry
        texts = [text for w in ("contract", "free_sums")
                 for _, text in workloads.pool(w)]
        assert len(texts) == 232
        for text in texts:
            stmt = frontend.parse(text)[0]
            te = reg.normalize(frontend.to_raw_terms(
                frontend.resolve(stmt.expr, {})))
            result = reg.simplify(te)
            check_vector(result.canonical.vec)
            check_vector(result.shortest.vec)
        recorder.check(reg)

    def test_stress_shapes(self, recorder):
        session = run(STRESS)
        assert session.out.getvalue().count("\n") == 4
        recorder.check(session.registry)

    def test_oracle_residual(self, recorder):
        # the oracle scales each pivot row to a unit leading entry, a
        # division even on the int rows of ri
        reg = make_registry("ri")
        rows = reg.tensors["ri"]._k0
        for p in list(coset_reps(4, 0))[::5]:
            r = oracle.residual(unit(p, 3), rows)
            check_vector(r)
            assert oracle.member(galg.add(unit(p, 3), galg.negate(r)),
                                 rows)
        recorder.check(reg)


class TestLibraryInputs:
    P, Q = (2, 1, 3), (1, 3, 2)

    def test_group_vector(self):
        P, Q = self.P, self.Q
        assert (GroupVector(3, [(Fraction(2), P), (-1, Q)]).terms
                == GroupVector(3, [(2, P), (-1, Q)]).terms)
        halves = GroupVector(3, [(Fraction(1, 2), P), (Fraction(1, 2), P)])
        assert halves.terms == GroupVector(3, [(1, P)]).terms
        v = GroupVector(3, [(0.5, P), (Fraction(1, 2), Q)])
        assert v.terms == ((Fraction(1, 2), P), (Fraction(1, 2), Q))
        check_vector(v)

    def test_unit_and_scale(self):
        P = self.P
        assert unit(P, Fraction(3)) == unit(P, 3)
        assert unit(P, 0.5) == unit(P, Fraction(1, 2))
        check_vector(unit(P, 0.5))
        v = galg.add(unit(P, 2), unit(self.Q, -4))
        assert scale(Fraction(3), v) == scale(3, v)
        assert scale(Fraction(1, 2), v).terms == ((1, P), (-2, self.Q))
        check_vector(scale(0.25, v))
        assert galg.renorm(scale(Fraction(1, 2), v)).terms \
            == ((1, P), (-2, self.Q))
        check_row(galg.renorm(scale(Fraction(1, 3), v)))

    def test_normalize(self):
        reg = make_registry("a2")
        ij, ji = (("a2", ("i", "j")),), (("a2", ("j", "i")),)
        as_ints = reg.normalize([(2, ij), (1, ji)])
        assert reg.normalize([(Fraction(2), ij), (Fraction(1), ji)]) \
            == as_ints
        assert reg.normalize([(Fraction(1, 2), ji), (2, ij),
                              (Fraction(1, 2), ji)]) == as_ints
        half = reg.normalize([(Fraction(1, 2), ij), (0.5, ij), (0.5, ji)])
        assert half.vec.terms == ((Fraction(1, 2), (2, 1)), (1, (1, 2)))
        check_vector(half.vec)

    @pytest.mark.parametrize("coeffs", [
        (Fraction(1), Fraction(1)), (Fraction(2), 2), (Fraction(1, 2), 0.5)])
    def test_declare_symmetry(self, coeffs):
        reg = Registry()
        reg.declare("a2")
        ij, ji = (("a2", ("i", "j")),), (("a2", ("j", "i")),)
        reg.declare_symmetry([(coeffs[0], ij), (coeffs[1], ji)])
        assert reg.tensors["a2"]._k0 == make_registry("a2").tensors["a2"]._k0
        for row in reg.tensors["a2"]._k0:
            check_row(row)


class TestNonUnitPivots:
    def bases(self, seed):
        """Bases of random int relations on a small pool of S_4, so that
        rows overlap, renormed pivots reach 2 and 3 and inserts reduce
        rows with such pivots."""
        rng = random.Random(seed)
        pool = rng.sample(list(coset_reps(4, 0)), 8)
        for _ in range(30):
            rels = []
            for _ in range(rng.randint(2, 6)):
                d = {p: rng.choice([-3, -2, 2, 3])
                     for p in rng.sample(pool, rng.randint(1, 4))}
                rels.append(galg.from_dict(4, d))
            yield KBasis(4).build(rels), rels, pool, rng

    def test_sieve_matches_oracle(self):
        pivots = set()
        fractions = 0
        for b, rels, pool, rng in self.bases(16):
            assert check_reduced(b)
            for row in b.rows:
                check_row(row)
                pivots.add(row.terms[0][0])
            assert b.dim() == oracle.span_dim(rels)
            for _ in range(5):
                v = galg.from_dict(4, {p: rng.randint(-4, 4)
                                       for p in rng.sample(pool, 4)})
                canonical, shortest = b.sieve_trace(v)
                for form in (canonical, shortest):
                    check_vector(form)
                    assert oracle.member(galg.add(v, galg.negate(form)),
                                         rels)
                r = oracle.residual(v, rels)
                check_vector(r)
                assert oracle.member(galg.add(canonical, galg.negate(r)),
                                     rels)
                fractions += any(type(c) is Fraction
                                 for c, _ in canonical.terms)
        assert {2, 3} <= pivots
        assert fractions

    def test_insert_order_gives_the_same_rows(self):
        # a reduced basis of renormed rows is unique, so reducing rows
        # fraction-free must not depend on the order of the inserts
        for b, rels, _, _ in self.bases(17):
            again = KBasis(4).build(reversed(rels))
            assert set(again.rows) == set(b.rows)

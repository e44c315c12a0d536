"""The quotient by the dummy-renaming group against the full-group engine.

The engine projects every term onto the minimum of its coset pi*G_D and
builds its basis from product relations translated over representatives
only: double cosets S_a*rho*G_D for each factor's rows, cosets rho*G_D
for the swaps of identical factors.  The reference here builds the
relations that this replaces: product relations translated over all of
S_n plus the renaming relations of `Registry.dummy_relations`, sieved
through one full triangle basis.  Both must give the same canonical
vector, term for term, and the same dimension of the relation space K.
The reference rows whose pivots are coset minima must be the engine's
rows, term for term: a reduced basis with renormed rows is unique.
"""

import io
import random
from itertools import combinations
from math import factorial

from tensorcanon import galg, oracle, perm
from tensorcanon.cli import Session
from tensorcanon.kbasis import KBasis
from tensorcanon.perm import Perm
from tensorcanon.texpr import all_perms, coset_minimum, coset_reps, project

from conftest import RELATIONS, make_registry, random_vector, raw_terms

ARITY = {"a2": 2, "s2": 2, "a3": 3, "s3": 3, "ri": 4, "v1": 1, "v2": 1}
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def reference_relations(reg, header):
    """Every relation of the full-group engine: per-factor rows and block
    swaps of identical factors translated over all of S_n, plus the
    renaming relations."""
    n = header.degree
    perms = list(all_perms(n))
    offs = header.offsets()
    rels = []
    for (name, arity), off in zip(header.factors, offs):
        for row in reg.tensors[name].k0_basis().rows:
            lifted = galg.lift_right(galg.lift_left(row, off),
                                     n - off - arity)
            rels.extend(galg.translate_right(lifted, rho) for rho in perms)
    for sigma in block_swaps(header):
        rels.extend(galg.add(galg.unit(perm.multiply(sigma, rho)),
                             galg.unit(rho, -1)) for rho in perms)
    return rels + reg.dummy_relations(header)


def block_swaps(header):
    """The block swap sigma of each pair of identical factors."""
    n, offs = header.degree, header.offsets()
    for i, j in combinations(range(len(header.factors)), 2):
        name, arity = header.factors[i]
        if header.factors[j][0] == name:
            m = list(range(1, n + 1))
            for s in range(arity):
                m[offs[i] + s], m[offs[j] + s] = m[offs[j] + s], m[offs[i] + s]
            yield Perm(m)


def random_expression(rng, n, npairs):
    """1-4 terms of one random product of degree n with npairs dummy
    pairs, each term with its own factor and index order."""
    while True:
        factors, left = [], n
        while left:
            name = rng.choice([f for f, a in ARITY.items() if a <= left])
            factors.append(name)
            left -= ARITY[name]
        if len(factors) > 1 or rng.random() < 0.3:
            break
    letters = rng.sample(LETTERS, n - npairs)
    names = letters[:npairs] * 2 + letters[npairs:]
    terms = []
    for _ in range(rng.randint(1, 4)):
        order, idx, off = factors[:], names[:], 0
        rng.shuffle(order)
        rng.shuffle(idx)
        body = []
        for f in order:
            body.append(f"{f}({','.join(idx[off:off + ARITY[f]])})")
            off += ARITY[f]
        terms.append(f"{rng.choice((1, 2, -1, -3))}*{'*'.join(body)}")
    return " + ".join(terms), sorted(set(factors))


def cases(seed, count, max_degree, min_pairs=1):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_degree)
        npairs = rng.randint(min_pairs, min(3, n // 2))
        yield random_expression(rng, n, npairs)


def pivot_rows(basis, npairs=0):
    """The rows of a basis by pivot, those with a coset minimum as pivot."""
    rows = {galg.leading(r)[1].map: r for r in basis.rows}
    return {k: r for k, r in rows.items()
            if coset_minimum(k, 2 * npairs) == k}


class TestCosets:
    def test_reps_are_the_coset_minima(self):
        for n in range(1, 7):
            for p in range(n // 2 + 1):
                reps = [r.map for r in coset_reps(n, p)]
                assert reps == sorted(reps)
                assert len(reps) == factorial(n) // (2 ** p * factorial(p))
                minima = {galg.leading(project(galg.unit(pi), p))[1].map
                          for pi in all_perms(n)}
                assert set(reps) == minima

    def test_no_pairs_is_the_whole_group(self):
        assert list(coset_reps(4, 0)) == list(all_perms(4))

    def test_projection_is_the_renaming_sieve(self):
        # the reduced basis of the renaming relations sieves every vector
        # onto coset minima, adding coefficients
        rng = random.Random(3)
        reg = make_registry("a2", "s2")
        for expr in ("a2(m,c)*s2(m,d)", "a2(m,n)*s2(m,n)",
                     "a2(m,n)*a2(m,k)*s2(n,k)"):
            header = reg.normalize(raw_terms(expr)).header
            n, p = header.degree, header.npairs
            b = KBasis(n).build(reg.dummy_relations(header))
            assert b.dim() == factorial(n) - len(list(coset_reps(n, p)))
            for _ in range(30):
                v = random_vector(rng, n, max_terms=8)
                assert project(v, p) == b.sieve(v)


class TestFullGroupReference:
    def check(self, expr, tensors, use_oracle):
        reg = make_registry(*tensors)
        te = reg.normalize(raw_terms(expr))
        h = te.header
        rels = reference_relations(reg, h)
        ref = KBasis(h.degree).build(rels)
        res = reg.simplify(te)
        assert res.canonical.vec.terms == ref.sieve(te.vec).terms, expr
        assert res.basis_dim == ref.dim(), expr
        assert (pivot_rows(reg.expression_basis(h))
                == pivot_rows(ref, h.npairs)), expr
        if use_oracle:
            diff = galg.add(te.vec, galg.negate(res.canonical.vec))
            assert oracle.member(diff, rels), expr
            if not res.canonical.is_zero():
                assert not oracle.member(res.canonical.vec, rels), expr

    def test_random_expressions(self):
        for expr, tensors in cases(2026, 40, 5):
            self.check(expr, tensors, use_oracle=True)
        for expr, tensors in cases(7, 4, 6):
            self.check(expr, tensors, use_oracle=False)

    def test_pairless_and_repeated_factors(self):
        for expr, tensors in cases(41, 12, 6, min_pairs=0):
            self.check(expr, tensors, use_oracle=False)
        for expr in ("a3(a,b,c)*a3(d,e,f)", "a3(m,n,c)*a3(m,n,d)",
                     "a3(a,b,c)*a3(c,d,e)", "a2(a,b)*a2(c,d)*v3(e)",
                     "a2(m,b)*a2(m,n)*v3(n)", "a2(a,m)*a2(m,b)*v3(a)",
                     "s2(a,b)*s2(c,d)*v1(e)*v1(f)*v1(g)",
                     "a3(m,a,b)*a3(m,c,d)*v1(e)"):
            self.check(expr, ("a2", "s2", "a3", "v1", "v3"),
                       use_oracle=False)

    def test_degree_six_with_oracle(self):
        self.check("a2(m,a)*v1(b)*s2(c,m)*v2(d)",
                   ("a2", "s2", "v1", "v2"), use_oracle=True)

    def test_degree_seven(self):
        self.check("s2(m,a)*v1(m)*v2(b)*v3(c)*v4(d)*v5(e)",
                   ("s2", "v1", "v2", "v3", "v4", "v5"), use_oracle=False)


class TestSwapRelations:
    # relations generated, with each block swap translated by one of each
    # pair of coset minima it exchanges
    COUNTS = {"a3(a,b,c)*a3(d,e,f)": 1560, "a3(m,b,c)*a3(m,e,f)": 900,
              "a3(m,n,c)*a3(m,n,d)": 255, "a3(m,n,k)*a3(m,n,k)": 44,
              "a2(a,b)*a2(c,d)*v3(e)": 180, "a2(m,b)*a2(m,n)*v3(n)": 24,
              "s2(a,b)*s2(c,d)*v1(e)*v1(f)*v1(g)": 15120,
              "ri(a,b,c,d)*ri(a,c,b,d)": 480}

    def test_counts_and_rows(self):
        # adding the swaps translated by every coset minimum, as they were
        # generated before, changes no row
        reg = make_registry("a2", "s2", "a3", "ri", "v1", "v3")
        for expr, count in self.COUNTS.items():
            h = reg.normalize(raw_terms(expr)).header
            rels = reg.product_relations(h)
            assert len(rels) == count, expr
            every = rels + [
                project(galg.add(galg.unit(perm.multiply(sigma, rho)),
                                 galg.unit(rho, -1)), h.npairs)
                for sigma in block_swaps(h)
                for rho in coset_reps(h.degree, h.npairs)]
            assert (pivot_rows(KBasis(h.degree).build(rels))
                    == pivot_rows(KBasis(h.degree).build(every))), expr


class TestShortest:
    def test_shortest_sieves_to_canonical(self):
        for expr, tensors in cases(11, 30, 6):
            reg = make_registry(*tensors)
            te = reg.normalize(raw_terms(expr))
            res = reg.simplify(te)
            assert len(res.shortest.vec) <= len(te.vec), expr
            again = reg.simplify(res.shortest)
            assert again.canonical.vec == res.canonical.vec, expr

    def test_input_counts_first(self):
        # one term, already shortest: the unprojected input is printed
        reg = make_registry("s2")
        te = reg.normalize(raw_terms("s2(m,c)*s2(d,m)"))
        res = reg.simplify(te)
        assert res.shortest.vec == te.vec
        assert res.canonical.vec != te.vec


class TestDegreeEight:
    def test_riemann_scalars(self):
        reg = make_registry("ri")
        te = reg.normalize(raw_terms(
            "ri(a,b,c,d)*ri(a,b,c,d) - 2*ri(a,b,c,d)*ri(a,c,b,d)"))
        assert te.header.degree == 8 and te.header.npairs == 4
        res = reg.simplify(te)
        assert res.canonical.is_zero()
        # quotient: 105 cosets minus 102 rows, the three quadratic scalars
        assert factorial(8) - res.basis_dim == 3
        assert reg.expression_basis(te.header).dim() == 102

    def test_two_pairs(self):
        # 5040 cosets.  The relations translated over all coset minima
        # have rank 5021 (quotient dimension 19); the engine translates a
        # subset of them, so the same rank means the same span.
        reg = make_registry("ri")
        te = reg.normalize(raw_terms("ri(m,c,n,d)*ri(m,n,e,f)"))
        h = te.header
        assert (h.degree, h.npairs) == (8, 2)
        assert len(reg.product_relations(h)) == 16380
        b = reg.expression_basis(h)
        assert b.dim() == 5021
        assert b.check_reduced()
        rhos = random.Random(8).sample(list(coset_reps(8, 2)), 100)
        for (name, arity), off in zip(h.factors, h.offsets()):
            for row in reg.tensors[name].k0_basis().rows:
                lifted = galg.lift_right(galg.lift_left(row, off),
                                         8 - off - arity)
                for rho in rhos:
                    rel = project(galg.translate_right(lifted, rho), 2)
                    assert b.sieve(rel).is_zero()
        res = reg.simplify(te)
        assert not res.canonical.is_zero()
        assert factorial(8) - res.basis_dim == 19
        swapped = reg.normalize(raw_terms(
            "ri(m,c,n,d)*ri(m,n,e,f) + ri(c,m,n,d)*ri(m,n,e,f)"))
        assert reg.simplify(swapped).canonical.is_zero()


def session_output(declarations, text):
    out, err = io.StringIO(), io.StringIO()
    s = Session(out=out, err=err)
    assert s.run_text(declarations + text) == 0
    assert err.getvalue() == ""
    return out.getvalue()


class TestMetamorphic:
    EXPRS = ("ri(m,n,c,d)*a2(m,n) + 3*a2(c,m)*ri(d,n,n,m);"
             "ri(a,b,c,d)*ri(a,c,b,d) + ri(a,c,b,d)*ri(b,a,c,d);"
             "s3(m,n,k)*a3(m,k,n) + a3(n,m,k)*s3(k,m,n);")
    TENSORS = ("ri", "a2", "a3", "s3")

    def declarations(self, order, duplicate=False):
        text = "tensor " + ",".join(self.TENSORS) + ";"
        for name in self.TENSORS:
            rels = [RELATIONS[name][k] for k in order(len(RELATIONS[name]))]
            if duplicate:
                rels.append(rels[0])
            text += "".join(f"tsym {r};" for r in rels)
        return text

    def test_declaration_order_and_duplicates(self):
        base = session_output(self.declarations(range), self.EXPRS)
        reverse = session_output(
            self.declarations(lambda k: reversed(range(k))), self.EXPRS)
        dup = session_output(self.declarations(range, duplicate=True),
                             self.EXPRS)
        assert base == reverse == dup
        assert base.split("\n")[1] == "0"

    def test_factor_order(self):
        # dummy names print as the first term spells them, so identical
        # factors in another order may print other names for one vector
        reg = make_registry(*self.TENSORS)
        pairs = [("ri(m,n,c,d)*a2(m,n)", "a2(m,n)*ri(m,n,c,d)"),
                 ("ri(a,b,c,d)*ri(a,c,b,d)", "ri(a,c,b,d)*ri(a,b,c,d)"),
                 ("s3(m,n,k)*a3(m,k,l)", "a3(m,k,l)*s3(m,n,k)")]
        for first, second in pairs:
            x, y = (reg.simplify(reg.normalize(raw_terms(t))).canonical
                    for t in (first, second))
            assert x.vec == y.vec, first
            assert x.header.factors == y.header.factors
            assert ([s.kind for s in x.header.slots]
                    == [s.kind for s in y.header.slots])
        decl = self.declarations(range)
        assert (session_output(decl, "ri(m,n,c,d)*a2(m,n);")
                == session_output(decl, "a2(m,n)*ri(m,n,c,d);"))

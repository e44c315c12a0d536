"""Surface syntax: lexing, statement parsing, resolution, printing."""

import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from tensorcanon import frontend
from tensorcanon.frontend import (Assignment, ExprEval, KBasisQuery,
                                  ParseError, ShowTime, SwitchSet, SymDecl,
                                  TClear, TensorDecl, parse, resolve,
                                  to_raw_terms)
from tensorcanon.galg import GroupVector

from conftest import make_registry, raw_terms, scale, unit
import reference_parser

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


class TestLexer:
    def test_comments_ignored(self):
        stmts = parse("% a comment\ntensor tt; % trailing\n")
        assert isinstance(stmts[0], TensorDecl)

    def test_case_folding(self):
        stmts = parse("TENSOR Tt;")
        assert stmts[0].names == ["tt"]

    def test_bad_character(self):
        with pytest.raises(ParseError) as ei:
            parse("tensor t$;")
        assert "line 1" in str(ei.value)

    def test_position_on_third_line_after_comment(self):
        text = "tensor a2;\n% note: a2(i,j)\n  a2(i,j) + $; % tail"
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == "unexpected character '$' (line 3, column 13)"
        assert (ei.value.line, ei.value.col) == (3, 13)
        text = "tensor a2;\n% a comment\n  a2(i,j) + );"
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value) == "unexpected token ')' (line 3, column 13)"
        assert (ei.value.line, ei.value.col) == (3, 13)

    def test_end_of_input_has_no_position(self):
        for text, msg in (("tensor tt", "expected ';', got end of input"),
                          ("a2(i,j", "expected ')', got end of input"),
                          ("on", "expected 'ident', got end of input"),
                          ("a2(i,j) +", "unexpected end of input")):
            with pytest.raises(ParseError) as ei:
                parse(text)
            assert str(ei.value) == msg
            assert ei.value.line is None and ei.value.col is None

    def test_non_ascii_letters_are_unexpected(self):
        # the Kelvin sign lowercases to ASCII 'k', and dotted capital I
        # to 'i' plus a combining dot: neither may become an identifier
        for ch in ("\u212a", "\u0130"):
            with pytest.raises(ParseError) as ei:
                parse(f"tensor a{ch}b;")
            assert str(ei.value) == (f"unexpected character {ch!r}"
                                     " (line 1, column 9)")

    def test_integer_literal_src(self):
        (s,) = parse("007*a2(i,j);")
        assert s.src == "7*a2(i,j);"
        assert s.expr == [(7, (("a2", ("i", "j")),))]

    def test_deep_nesting(self):
        depth = 1000
        with pytest.raises(ParseError) as ei:
            parse("(" * depth + "a2(i,j)" + ")" * depth + ";")
        assert str(ei.value) == "expression nested too deeply"


class TestStatements:
    def test_tensor_list(self):
        (s,) = parse("tensor v1,v2,v3;")
        assert s.names == ["v1", "v2", "v3"]

    def test_tclear(self):
        (s,) = parse("tclear v1;")
        assert isinstance(s, TClear) and s.names == ["v1"]

    def test_tsym_multiple_relations(self):
        (s,) = parse("tsym a2(i,j)+a2(j,i), s2(i,j)-s2(j,i);")
        assert isinstance(s, SymDecl) and len(s.relations) == 2

    def test_kbasis_specs(self):
        (s,) = parse("kbasis a2, s2(a3);")
        assert isinstance(s, KBasisQuery)
        assert s.specs == [("a2", ()), ("s2", ("a3",))]

    def test_switches(self):
        on, off = parse("on shortest; off dummypri;")
        assert isinstance(on, SwitchSet) and on.name == "shortest" and on.on
        assert isinstance(off, SwitchSet) and not off.on

    def test_assignment_and_eval(self):
        a, e = parse("x := a2(i,j); x;")
        assert isinstance(a, Assignment) and a.name == "x"
        assert isinstance(e, ExprEval)

    def test_showtime(self):
        (s,) = parse("showtime;")
        assert isinstance(s, ShowTime)

    def test_src_reconstruction(self):
        s1, s2 = parse("a2(i,j);\na2(i,j);")
        assert s1.src == "a2(i,j);"
        assert s2.src == "a2(i,j);"

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("tensor tt")


class TestStatementValues:
    def test_equal_by_class_fields_and_src(self):
        assert TensorDecl(["a"]) == TensorDecl(["a"], src="")
        assert TensorDecl(["a"]) != TClear(["a"])
        assert TClear(["a"]) != TensorDecl(["a"])
        assert TensorDecl(["a"], src="tensor a;") != TensorDecl(["a"])
        assert TensorDecl(["a"]) != TensorDecl(["b"])
        assert SwitchSet("shortest", True) != SwitchSet("shortest", False)
        assert ShowTime() == ShowTime() != ShowTime(src="showtime;")
        assert parse("tensor a; tclear a;") == [
            TensorDecl(["a"], src="tensor a;"), TClear(["a"], src="tclear a;")]

    def test_src_assignable_and_unhashable(self):
        s = ExprEval([(1, ())])
        s.src = "1;"
        assert s == ExprEval([(1, ())], src="1;")
        with pytest.raises(TypeError):
            hash(s)

    def test_repr(self):
        assert repr(Assignment("x", [])) == (
            "Assignment(src='', name='x', expr=[])")


class TestExpressions:
    def test_sum_collection(self):
        (s,) = parse("a2(i,j)+a2(i,j);")
        assert s.expr == [(2, (("a2", ("i", "j")),))]

    def test_cancellation_keeps_zero_term(self):
        (s,) = parse("a2(i,j)-a2(i,j);")
        assert s.expr == [(0, (("a2", ("i", "j")),))]

    def test_integer_coefficients(self):
        (s,) = parse("3*a2(i,j)-a2(j,i);")
        assert (3, (("a2", ("i", "j")),)) in s.expr
        assert (-1, (("a2", ("j", "i")),)) in s.expr

    def test_parenthesized_distribution(self):
        (s,) = parse("(a2(i,j)-a2(j,i))*v1(k);")
        assert len(s.expr) == 2
        coeffs = sorted(c for c, _ in s.expr)
        assert coeffs == [-1, 1]

    def test_unary_minus(self):
        (s,) = parse("-a2(i,j);")
        assert s.expr == [(-1, (("a2", ("i", "j")),))]

    def test_reference_factor(self):
        (s,) = parse("2*x;")
        assert s.expr == [(2, (("x",),))]


class TestResolve:
    def test_binding_substitution(self):
        (a, e) = parse("x := a2(i,j)+a2(j,i); 2*x;")
        bindings = {"x": resolve(a.expr, {})}
        r = resolve(e.expr, bindings)
        assert (2, (("a2", ("i", "j")),)) in r
        assert (2, (("a2", ("j", "i")),)) in r

    def test_nested_bindings(self):
        stmts = parse("x := a2(i,j); y := 3*x; y;")
        b = {}
        for s in stmts[:2]:
            b[s.name] = resolve(s.expr, b)
        r = resolve(stmts[2].expr, b)
        assert r == [(3, (("a2", ("i", "j")),))]

    def test_collected_list_returned_as_is(self):
        # parse collects every term list it returns, so resolve has
        # nothing left to merge in a list without bound names; its terms
        # are the ones normalize reads, so neither copies the list
        count = 0
        for workload in ("contract", "free_sums"):
            for _, text in workloads.pool(workload):
                expr = parse(text)[0].expr
                assert resolve(expr, {}) == frontend._collect(expr)
                assert to_raw_terms(resolve(expr, {})) is expr
                count += 1
        assert count == 232

    def test_no_bindings_returns_the_list_itself(self):
        # without bindings nothing is substituted or refused, bound names
        # included: to_raw_terms refuses them
        for text in ("a2(i,j)+2*a2(j,i);", "x;", "3*x*a2(i,j) - y;"):
            expr = parse(text)[0].expr
            assert resolve(expr, {}) is expr
        with pytest.raises(ParseError, match="^x is not bound"):
            to_raw_terms(resolve(expr, {}))

    def test_unbound_name(self):
        (e,) = parse("x;")
        with pytest.raises(ParseError) as ei:
            to_raw_terms(resolve(e.expr, {}))
        assert "not bound" in str(ei.value)
        # to_raw_terms refuses a bound name by itself too
        (e,) = parse("2*x;")
        with pytest.raises(ParseError) as ei:
            to_raw_terms(e.expr)
        assert str(ei.value) == "x is not bound to an expression"

    def test_to_raw_terms(self):
        assert raw_terms("2*a2(i,j)*v1(k)") == [
            (2, (("a2", ("i", "j")), ("v1", ("k",))))]


class TestPrinting:
    def _expr(self, reg, text):
        return reg.normalize(raw_terms(text))

    def test_zero(self):
        reg = make_registry("a2")
        te = frontend.TensorExpr(self._expr(reg, "a2(i,j)").header,
                                 GroupVector(2))
        assert frontend.format_expr(te) == "0"

    def test_unit_coefficient_omitted(self):
        reg = make_registry("a2")
        assert frontend.format_expr(self._expr(reg, "a2(i,j)")) == "a2(i,j)"

    def test_negative_parenthesized(self):
        reg = make_registry("a2")
        te = self._expr(reg, "-a2(i,j)")
        assert frontend.format_expr(te) == "(-1)*a2(i,j)"

    def test_denominator_suffix(self):
        reg = make_registry("a2")
        base = self._expr(reg, "a2(i,j)")
        te = frontend.TensorExpr(base.header,
                                 scale(Fraction(1, 2), base.vec))
        assert frontend.format_expr(te) == "a2(i,j) / 2"

    def test_product_and_order(self):
        reg = make_registry("a2", "s2")
        te = self._expr(reg, "s2(k,l)*a2(i,j)")
        assert frontend.format_expr(te) == "a2(i,j)*s2(k,l)"

    def test_dummypri_names(self):
        reg = make_registry("a2")
        te = self._expr(reg, "a2(m,m)")
        assert frontend.format_expr(te, dummypri=True) == "a2(m_1,m_2)"
        assert frontend.format_expr(te, dummypri=False) == "a2(m,m)"

    def test_dummypri_names_two_pairs_and_free_slots(self):
        # pair k takes slots 2k-1 and 2k; the free slots print unnumbered
        reg = make_registry("a2", "ri")
        te = self._expr(reg, "a2(m,n)*ri(n,c,m,d)")
        assert (frontend.format_expr(te, dummypri=True)
                == "a2(m_1,n_3)*ri(n_4,c,m_2,d)")
        assert frontend.format_expr(te) == "a2(m,n)*ri(n,c,m,d)"

    def test_format_vector_rearranges_slots(self):
        header_names = ["i", "j"]
        v = unit((2, 1))
        out = frontend.format_vector(v, (("a2", 2),), header_names)
        assert out == "a2(j,i)"

    def test_format_vector_places_slot_names_by_the_map(self):
        # the name of slot i goes to position p[i]
        v = unit((2, 3, 1))
        out = frontend.format_vector(v, (("t", 3),), ["i", "j", "k"])
        assert out == "t(k,i,j)"

    def test_default_names(self):
        assert frontend.default_names(3) == ("i", "j", "k")
        assert frontend.default_names(15)[0] == "x1"


# -- differential test against the earlier parser ------------------------

NAMES = ("a2", "s2", "ri", "v1", "x", "y_1", "T", "Ri")
INDICES = "ijklmnab"
# characters a mutation inserts: token starts, whitespace, characters
# that start no token, and non-ASCII letters and digits whose lowercase
# or int() reading differs from their ASCII look-alikes
NOISE = ("$", ":", "=", "%", "\n", "\t", " ", "(", ")", ",", ";", "-",
         "*", "+", "0", "7", "_", "A", "\u212a", "\u0130", "\u00c9",
         "\u0663", "\u00b2", "\u00a0")


def random_expr(rng, depth=0):
    terms = []
    for k in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5:
                idx = rng.sample(INDICES, rng.randint(1, 4))
                factors.append(f"{rng.choice(NAMES)}({','.join(idx)})")
            elif roll < 0.65:
                factors.append(rng.choice(("1", "2", "007", "12")))
            elif roll < 0.8 and depth < 3:
                factors.append(f"({random_expr(rng, depth + 1)})")
            else:
                factors.append(rng.choice(NAMES))
        op = ("" if k == 0 else rng.choice((" + ", " - ", "+", "-")))
        terms.append(op + "-" * rng.choice((0, 0, 0, 1, 2))
                     + rng.choice(("*", " * ")).join(factors))
    return "".join(terms)


def random_statement(rng):
    names = lambda: ",".join(rng.sample(NAMES, rng.randint(1, 3)))
    spec = lambda: rng.choice(NAMES) + rng.choice(("", f"({names()})"))
    return rng.choice((
        lambda: f"tensor {names()};",
        lambda: f"TClear {names()};",
        lambda: "tsym " + ", ".join(random_expr(rng)
                                    for _ in range(rng.randint(1, 2))) + ";",
        lambda: "kbasis " + ", ".join(spec() for _ in range(2)) + ";",
        lambda: f"{rng.choice(('on', 'OFF'))} {rng.choice(NAMES)};",
        lambda: f"{rng.choice(NAMES)} := {random_expr(rng)};",
        lambda: f"{random_expr(rng)};",
        lambda: "showtime;",
    ))()


def random_script(rng):
    parts = []
    for _ in range(rng.randint(1, 5)):
        parts.append(random_statement(rng))
        parts.append(rng.choice((" ", "\n", "\n\n  ", " % a remark\n", "")))
    return "".join(parts)


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.5:
            text = text[:k] + rng.choice(NOISE) + text[k:]
        elif roll < 0.8:
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k]
    return text


def outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


class TestParserDifferential:
    """Seeded scripts, half of them mutated, give the same statements,
    `src` strings, and error messages with line and column, as the
    earlier parser in `reference_parser`."""

    def test_matches_reference(self):
        rng = random.Random(2605)
        errors = 0
        for k in range(1200):
            text = random_script(rng)
            if k % 2:
                text = mutate(rng, text)
            ref = outcome(reference_parser.parse, text)
            assert outcome(parse, text) == ref, text
            errors += isinstance(ref, tuple)
        # both sides of the comparison are exercised
        assert 300 < errors < 900


# -- the term path for literal sums -----------------------------------------

# keyword names open a keyword statement when they start the text unsigned
# and unweighted; `\x1c` is a blank to both `\s` and str.split()
SUM_NAMES = ("a2", "S2", "Ri", "v_1", "tensor", "On", "SHOWTIME")
SUM_INDICES = ("i", "J", "k", "Mu", "n_2")
BLANKS = ("", "", " ", "\t", "\n", "\x1c")
COEFFS = ("", "", "", "0", "1", "007", "12")


def random_literal_sum(rng):
    blank = lambda: rng.choice(BLANKS)
    # few distinct products, so that terms repeat and cancel
    products = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            idx = rng.sample(SUM_INDICES, rng.randint(1, 3))
            sep = blank() + "," + blank()
            factors.append(f"{rng.choice(SUM_NAMES)}{blank()}({blank()}"
                           f"{sep.join(idx)}{blank()})")
        products.append((blank() + "*" + blank()).join(factors))
    parts = []
    for k in range(rng.randint(1, 6)):
        sign = rng.choice(("", "-") if k == 0 else ("+", "-"))
        coeff = rng.choice(COEFFS)
        if coeff:
            coeff += blank() + "*" + blank()
        parts.append(blank() + sign + blank() + coeff + rng.choice(products))
    return "".join(parts) + blank() + ";" + blank()


def token_parse(text):
    return frontend._Parser(text).statements()


class TestLiteralSums:
    """`parse` reads a one-statement literal sum term by term and gives
    what the token parser gives; any other text goes to the token
    parser."""

    @pytest.fixture
    def token_calls(self, monkeypatch):
        calls, parser = [], frontend._Parser

        def spy(text):
            calls.append(text)
            return parser(text)

        monkeypatch.setattr(frontend, "_Parser", spy)
        return calls

    def test_matches_both_parsers(self):
        rng = random.Random(1107)
        taken = errors = 0
        for k in range(1500):
            text = random_literal_sum(rng)
            if k % 3 == 2:
                text = mutate(rng, text)
            ref = outcome(reference_parser.parse, text)
            assert outcome(parse, text) == ref, text
            assert outcome(token_parse, text) == ref, text
            taken += frontend._literal_sum(text) is not None
            errors += isinstance(ref, tuple)
        # taken texts, declined valid ones and errors all occur
        assert min(taken, errors, 1500 - taken - errors) > 300

    @pytest.mark.parametrize("text", [
        "007*a2(i,j);", "a2(i,j) - 012*a2(j,i);", "00*a2(i,j);",
        "tensor(a);", "On(i);", "SHOWTIME(i);", "kbasis(a, b);",
        "a2(i,j) % a remark\n;", "a2(i,j); % a remark",
        "\u0663*a2(i,j);", "a2(i,\u00e9);", "a\u212a(i);",
        "+a2(i,j);", "--a2(i,j);", "a2(i,j) + -a2(j,i);",
        "a2(i,j)*2;", "2*3*a2(i,j);", "a2(i,j) a2(j,i);", "a2(i,j)*x;",
        "x;", "(a2(i,j));", "a2(i,j) - (a2(j,i));", "a2();", "a2(1,2);",
        "a2(i,j); a2(j,i);", "x := a2(i,j);", "a2(i,j)", ";",
        "1" * 19 + "*a2(i,j);", "a2(i,j)-;", "-;", "3a2(i,j);",
        "a2(i,j)--a2(j,i);", "a2(i,j)*;",
        "a2(i,j) - " + "1" * 19 + "*a2(j,i);",
        "a2(i,j) + a 2(j,i);", "a2(i,j) + 1 2*a2(j,i);",
        # a character that is no blank, between terms or before the ';'
        "a(i)\0+b(j);", "a(i)\0;",
        # a malformed or empty factor, also in a body that cancels
        "a(i) - a(i) + b(j,);", "b(j) + a(i,) - a(i,);", "2*a(i)**b(j);",
        "a(i)*;",
        # str.split() blanks other than spaces between two words
        "a2(i,j) + a\x0b2(j,i);", "a2(i,j) + 1\x1c2*a2(j,i);",
        "a2(i,j)\x0b\x1cb(k);",
    ])
    def test_declined(self, text, token_calls):
        assert frontend._literal_sum(text) is None
        assert outcome(parse, text) == outcome(reference_parser.parse, text)
        assert token_calls == [text]

    @pytest.mark.parametrize("text", [
        "0*a2(i,j);", "a2(i,j) - a2(i,j);", "-tensor(a);", "2*On(i);",
        " A2 ( I , J )\x1c-\t12 *B(k, L)*c(m) ;\n",
        "1" * 18 + "*a2(i,j) - 1*a2(j,i);", "a2(i,j) + 0*a2(j,i);",
        "a2(i,j) - 2*A2 ( I,j ) + 3*a2(i , J);",
        "a2(i,j)\x0b-\x1ca2(j,i)\x1c+\x0b2*a2(i,j)\x0b;",
    ])
    def test_taken(self, text, token_calls):
        stmts = parse(text)
        assert token_calls == []
        assert stmts == token_parse(text) == reference_parser.parse(text)

    @pytest.mark.parametrize("text, taken", [
        (" + ".join(f"{k}*a2(i,j{k})" for k in range(1, 20000))
         + " + a2(i,j;", False),
        ("a2(i,j)" + " " * 200000 + "- a2(j,i);", True),
        ("a2(i,j) + a" + " " * 200000 + "2(j,i);", False),
    ], ids=["unclosed-19999-terms", "blanks-between-terms",
            "blanks-inside-word"])
    def test_linear_time(self, text, taken):
        # a backtracking pattern would take far longer on these
        start = time.perf_counter()
        stmts = frontend._literal_sum(text)
        assert time.perf_counter() - start < 1
        assert (stmts is not None) == taken

    def test_pool_entries_take_the_term_path(self, monkeypatch):
        texts = [text for workload in ("contract", "free_sums")
                 for _, text in workloads.pool(workload)]
        assert len(texts) == 232
        expected = [token_parse(text) for text in texts]

        def declined(text):
            raise AssertionError(f"declined: {text[:60]!r}")

        monkeypatch.setattr(frontend, "_Parser", declined)
        assert [parse(text) for text in texts] == expected

    def test_script_takes_the_token_parser(self, token_calls):
        text = "tensor a2;\na2(i,j) - a2(j,i);\na2(i,j);\n"
        assert len(parse(text)) == 3
        assert token_calls == [text]

    def test_unicode_digit_coefficient_kept(self, token_calls):
        # `\d` reads the Arabic-Indic three as 3, as the earlier lexer did
        (s,) = parse("\u0663*a2(i,j);")
        assert token_calls == ["\u0663*a2(i,j);"]
        assert s.src == "3*a2(i,j);"
        assert s.expr == [(3, (("a2", ("i", "j")),))]

    def test_peak_memory_below_token_parser(self):
        text = max((t for _, t in workloads.pool("free_sums")), key=len)

        def peak(parse_fn):
            tracemalloc.start()
            try:
                parse_fn(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(parse) < peak(token_parse)


class TestResolveWithoutReferences:
    def test_matches_the_substitution_loop(self):
        # a bound name for 1 after every term sends the same terms through
        # the per-factor substitution loop
        rng = random.Random(1108)
        one = [(1, ())]
        for _ in range(300):
            stmts = outcome(parse, random_literal_sum(rng))
            if isinstance(stmts, tuple):
                continue
            expr = stmts[0].expr
            with_ref = [(c, f + (("one",),)) for c, f in expr]
            assert resolve(expr, {}) == resolve(with_ref, {"one": one})

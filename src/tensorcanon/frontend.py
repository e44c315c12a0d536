"""Surface syntax: statement parser and expression printer.

The command language is a small, case-insensitive, ';'-terminated grammar:

    tensor t1,t2,...;          declare basic tensors
    tclear t1,...;             remove them (their stored bases are lost)
    tsym   expr, expr,...;     declare vanishing relations
    kbasis t1, t2(t3,...),...; print a stored or product basis
    on sw; / off sw;           switches: dummypri, shortest
    name := expr;              bind a name for later use
    expr;                      simplify and print
    showtime;                  elapsed milliseconds since the last call

Expressions are sums/differences of products of integer literals,
indexed tensors and parenthesized subexpressions; '%' starts a comment.
Parsing expands everything into a flat list of coefficient-weighted
products of factors, up to MAX_TERMS of them per product (a larger one is
refused before it is built).  A factor is the (name, indices) pair that
`Registry.normalize` reads, or the 1-tuple (name,) of a bound name.

Lexing is one regex findall over the text into parallel kind and value
lists; the parser walks them by index up to an end sentinel, so its cost
is linear in the tokens.  No line or column is tracked while lexing: a
ParseError rescans the text up to its token to find them.

A text that is one literal sum, `[-][k*]t(i,...)*... ± [k*]t(...)...;`,
skips the tokens.  The pass that removes its blanks also finds blanks
between two words; the text is then split once on its term weights, and
each distinct weight, product and factor is read once.  Each distinct
factor is checked when first read, in products whose weights cancel too.
Any other text goes to the token parser, which gives every error.  So
does a literal sum with a comment, a non-ASCII character, blanks between
two words, a coefficient with a leading zero, or a first factor named by
a keyword, such as `tensor(i);` or `On(i);`.
"""

from __future__ import annotations

import re
from decimal import Decimal
from functools import reduce as _reduce
from math import lcm

from .galg import GroupVector
from .texpr import Record, TensorError, TensorExpr, TensorHeader

# A parsed factor is (name, indices), or (name,) for a bound name.
Factor = tuple
# A term list is [(int coefficient, (factor, ...)), ...].
TermList = list
# The most terms a product of sums may expand to, checked before building.
MAX_TERMS = 10_000


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{msg} (line {line}, column {col})"
        super().__init__(msg)
        self.line = line
        self.col = col


# -- statements --------------------------------------------------------

class Statement(Record):
    """The fields of its class, in order, and `src`, its compacted text."""

    __slots__ = ("src",)

    def __init__(self, *values, src: str = ""):
        super().__init__(src, *values)


class TensorDecl(Statement):
    __slots__ = ("names",)          # list[str]


class TClear(Statement):
    __slots__ = ("names",)          # list[str]


class SymDecl(Statement):
    __slots__ = ("relations",)      # list[TermList]


class KBasisQuery(Statement):
    # each spec is (name, factor names) -- factor names empty for a
    # stored single-tensor basis
    __slots__ = ("specs",)          # list[tuple[str, tuple[str, ...]]]


class SwitchSet(Statement):
    __slots__ = ("name", "on")      # str, bool


class Assignment(Statement):
    __slots__ = ("name", "expr")    # str, TermList


class ExprEval(Statement):
    __slots__ = ("expr",)           # TermList


class ShowTime(Statement):
    __slots__ = ()


# -- lexer -------------------------------------------------------------

# One findall lexes the text.  Whitespace is what no branch matches, and
# `\S` catches every character that starts no token, for the lexer to
# report.  `\d` is any Unicode decimal digit, as int() reads it.
_TOKEN_RE = re.compile(r"%[^\n]*|\d+|[A-Za-z_][A-Za-z0-9_]*|:=|\S")
_SYMBOLS = frozenset(("-", "+", "*", "(", ")", ",", ";", ":="))
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "abcdefghijklmnopqrstuvwxyz_")
_WORDS = ("int", "ident")
_KEYWORDS = frozenset(("tensor", "tclear", "tsym", "kbasis", "on", "off",
                       "showtime"))


def _position(text, index):
    """Line and column of the index-th token, comments not counted."""
    for m in _TOKEN_RE.finditer(text):
        if m.group()[0] != "%":
            if not index:
                break
            index -= 1
    pos = m.start()
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text):
    """Parallel kind and value lists, closed by an "end" sentinel.
    Identifiers are lowercased one token at a time: lowercasing the text
    would turn characters such as the Kelvin sign into ASCII letters."""
    kinds, vals = [], []
    for tok in _TOKEN_RE.findall(text):
        c = tok[0]
        if tok in _SYMBOLS:
            kind = tok
        elif c in _IDENT_START:
            kind, tok = "ident", tok.lower()
        elif c.isdecimal():
            try:
                kind, tok = "int", int(tok)
            except ValueError:  # over sys.get_int_max_str_digits()
                raise ParseError(f"integer of {len(tok)} digits is too long",
                                 *_position(text, len(kinds))) from None
        elif c == "%":
            continue
        else:
            raise ParseError(f"unexpected character {c!r}",
                             *_position(text, len(kinds)))
        kinds.append(kind)
        vals.append(tok)
    kinds.append("end")
    vals.append(None)
    return kinds, vals


class _Parser:
    def __init__(self, text):
        self.text = text
        self.kinds, self.vals = _tokenize(text)
        self.i = 0

    def error(self, msg, i):
        """A ParseError at token i; the end of input has no position."""
        if self.kinds[i] == "end":
            return ParseError(msg)
        return ParseError(msg, *_position(self.text, i))

    def expect(self, kind):
        i = self.i
        if self.kinds[i] != kind:
            got = ("end of input" if self.kinds[i] == "end"
                   else repr(self.vals[i]))
            raise self.error(f"expected {kind!r}, got {got}", i)
        self.i = i + 1
        return self.vals[i]

    def statements(self):
        out = []
        while self.kinds[self.i] != "end":
            start = self.i
            stmt = self.statement()
            stmt.src = self._join(start, self.i)
            out.append(stmt)
        return out

    def _join(self, start, stop):
        # rebuild the statement text from its tokens.  In a statement that
        # parsed, only a leading keyword and the token after it can both
        # be words (int or ident), so only the first gap may need a space.
        kinds, vals = self.kinds, self.vals
        words = kinds[start] in _WORDS and kinds[start + 1] in _WORDS
        return (str(vals[start]) + " " * words
                + "".join(map(str, vals[start + 1:stop])))

    def statement(self):
        word = self.vals[self.i] if self.kinds[self.i] == "ident" else None
        if word in _KEYWORDS:
            self.i += 1
            if word in ("tensor", "tclear"):
                names = self._list(self.expect, "ident")
                stmt = (TensorDecl if word == "tensor" else TClear)(names)
            elif word == "tsym":
                stmt = SymDecl(self._list(self.expr))
            elif word == "kbasis":
                stmt = KBasisQuery(self._list(self._basis_spec))
            elif word == "showtime":
                stmt = ShowTime()
            else:
                stmt = SwitchSet(self.expect("ident"), word == "on")
        elif word is not None and self.kinds[self.i + 1] == ":=":
            self.i += 2
            stmt = Assignment(word, self.expr())
        else:
            stmt = ExprEval(self.expr())
        self.expect(";")
        return stmt

    def _list(self, item, *args):
        """item(*args), repeated while a ',' follows."""
        out = [item(*args)]
        while self.kinds[self.i] == ",":
            self.i += 1
            out.append(item(*args))
        return out

    def _basis_spec(self):
        name = self.expect("ident")
        if self.kinds[self.i] != "(":
            return name, ()
        self.i += 1
        factors = tuple(self._list(self.expect, "ident"))
        self.expect(")")
        return name, factors

    # -- expressions ---------------------------------------------------

    def expr(self) -> TermList:
        terms = self.term()
        kinds = self.kinds
        while kinds[self.i] in ("+", "-"):
            minus = kinds[self.i] == "-"
            self.i += 1
            nxt = self.term()
            terms.extend([(-c, f) for c, f in nxt] if minus else nxt)
        return _collect(terms)

    def term(self) -> TermList:
        kinds = self.kinds
        sign = 1
        while kinds[self.i] == "-":
            self.i += 1
            sign = -sign
        prod = self.factor()
        while kinds[self.i] == "*":
            star = self.i
            self.i += 1
            prod = _cross(prod, self.factor(), lambda m: self.error(m, star))
        if sign < 0:
            prod = [(-c, f) for c, f in prod]
        return prod

    def factor(self) -> TermList:
        kinds, vals, i = self.kinds, self.vals, self.i
        kind = kinds[i]
        if kind == "ident":
            if kinds[i + 1] != "(":
                self.i = i + 1
                return [(1, ((vals[i],),))]
            # name(i,j,...): step over "ident ," pairs, then expect() reports
            # any token that breaks the pattern
            j = i + 2
            while kinds[j] == "ident" and kinds[j + 1] == ",":
                j += 2
            self.i = j
            self.expect("ident")
            self.expect(")")
            return [(1, ((vals[i], tuple(vals[i + 2:j + 1:2])),))]
        if kind == "int":
            self.i = i + 1
            return [(vals[i], ())]
        if kind == "(":
            self.i = i + 1
            e = self.expr()
            self.expect(")")
            return e
        raise self.error("unexpected end of input" if kind == "end"
                         else f"unexpected token {vals[i]!r}", i)


def _cross(a: TermList, b: TermList, error=ParseError) -> TermList:
    if len(a) == 1 and len(b) == 1:
        (ca, fa), (cb, fb) = a[0], b[0]
        return [(ca * cb, fa + fb)]
    if len(a) * len(b) > MAX_TERMS:
        raise error(f"a product of {len(a) * len(b)} terms exceeds the"
                    f" limit of {MAX_TERMS}")
    return _collect([(ca * cb, fa + fb) for ca, fa in a for cb, fb in b])


def _collect(terms: TermList) -> TermList:
    acc: dict[tuple, int] = {}
    for c, f in terms:
        acc[f] = acc.get(f, 0) + c
    return [(c, f) for f, c in acc.items() if c] or [(0, terms[0][1])]


# -- term path -----------------------------------------------------------

# A literal sum, blanks removed, splits on its weights into product bodies.
# A weight with a leading zero or over 18 digits fails as a factor, since
# _Parser prints `007` as `7` and int() has a digit limit.
_WEIGHT_RE = re.compile(r"([-+](?:(?:0|[1-9][0-9]{0,17})\*)?)")
_FACTOR_RE = re.compile(r"[a-z_][a-z0-9_]*"
                        r"\([a-z_][a-z0-9_]*(?:,[a-z_][a-z0-9_]*)*\)")
_TOUCH_RE = re.compile(r" (?<=[0-9A-Za-z_] )[0-9A-Za-z_]")


class _Factors(dict):
    """Factor text -> its factor, checked and built on the first lookup."""

    def __missing__(self, f):
        if _FACTOR_RE.fullmatch(f) is None:
            raise ValueError(f)
        name, _, idx = f[:-1].partition("(")
        self[f] = out = (name, tuple(idx.split(",")))
        return out


def _literal_sum(text):
    """The one ExprEval of a literal sum, as `_Parser` builds it, or None
    for any other text: `_Parser` then parses it and reports its errors."""
    # no blank may part two words; str.split() drops what the lexer skips
    # as blank (on ASCII text), and each space of the join marks one run
    src = " ".join(text.split())
    if not text.isascii() or _TOUCH_RE.search(src):
        return None
    src = src.replace(" ", "").lower()
    if src[-1:] != ";" or src[0] == "+":
        return None
    parts = _WEIGHT_RE.split(src[:-1] if src[0] == "-" else "+" + src[:-1])
    weights, bodies = parts[1::2], parts[2::2]
    # an unsigned, unweighted `tensor(i);` or the like is a keyword statement
    if weights[0] == "+" and bodies[0].partition("(")[0] in _KEYWORDS:
        return None
    coeffs = {w: int(w[:-1] or w + "1") for w in set(weights)}
    acc: dict[str, int] = {}    # in order of first appearance, as _collect
    for w, b in zip(weights, bodies):
        acc[b] = acc.get(b, 0) + coeffs[w]
    # read every body, those whose weights cancel too, to check its factors
    factors = _Factors().__getitem__
    try:
        terms = [(c, tuple(map(factors, b.split("*"))))
                 for b, c in acc.items()]
    except ValueError:
        return None
    if not all(acc.values()):
        terms = [t for t in terms if t[0]] or [(0, terms[0][1])]
    return [ExprEval(terms, src=src)]


def parse(text: str) -> list[Statement]:
    fast = _literal_sum(text)
    if fast is not None:
        return fast
    try:
        return _Parser(text).statements()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def parse_basis_spec(text: str) -> tuple[str, tuple[str, ...]]:
    """One basis spec, `name` or `name(name,...)`, and nothing after it."""
    p = _Parser(text)
    spec = p._basis_spec()
    if p.kinds[p.i] != "end":
        raise p.error(f"unexpected token {p.vals[p.i]!r} after the spec",
                      p.i)
    return spec


def resolve(expr: TermList, bindings: dict[str, TermList]) -> TermList:
    """Substitute bound names in a term list as `parse` or `resolve`
    returns it, products collected; returns one of (name, indices) factors."""
    if all(len(f) == 2 for _, factors in expr for f in factors):
        return expr
    result: TermList = []
    for c, factors in expr:
        prod: TermList = [(c, ())]
        for f in factors:
            if len(f) == 2:
                prod = _cross(prod, [(1, (f,))])
            else:
                name = f[0]
                if name not in bindings:
                    raise ParseError(f"{name} is not bound to an expression")
                prod = _cross(prod, resolve(bindings[name], bindings))
        result.extend(prod)
    return _collect(result)


def to_raw_terms(expr: TermList) -> TermList:
    """The term list itself, once checked to hold no bound name: its terms
    are then the (coeff, ((name, indices), ...)) that `normalize` reads."""
    for _, factors in expr:
        for f in factors:
            if len(f) == 1:
                raise ParseError(f"{f[0]} is not bound to an expression")
    return expr


# -- printing ----------------------------------------------------------

DEFAULT_NAMES = "ijklmnabcdefgh"


def default_names(arity: int) -> tuple[str, ...]:
    if arity <= len(DEFAULT_NAMES):
        return tuple(DEFAULT_NAMES[:arity])
    return tuple(f"x{i}" for i in range(1, arity + 1))


def _slot_names(header: TensorHeader, dummypri: bool) -> list[str]:
    names = [x for x in header.pairs for _ in (1, 2)]
    if dummypri:
        names = [f"{x}_{i}" for i, x in enumerate(names, 1)]
    return names + [x for x, _ in header.free]


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise TensorError(f"coefficient of {Decimal(abs(n)).adjusted() + 1}"
                          " digits is too long to print") from None


def format_vector(vec: GroupVector, factors, slot_names) -> str:
    """Render a group vector as a sum of coefficient-weighted products."""
    if vec.is_zero():
        return "0"
    den = _reduce(lcm, (c.denominator for c, _ in vec.terms), 1)
    parts = []
    for c, p in vec.terms:
        c = (c * den).numerator
        # the name of slot i goes to position p[i]
        arranged = [x for _, x in sorted(zip(p, slot_names))]
        pieces = []
        off = 0
        for fname, arity in factors:
            pieces.append(f"{fname}({','.join(arranged[off:off + arity])})")
            off += arity
        body = "*".join(pieces)
        if c == 1:
            parts.append(body)
        elif c > 0:
            parts.append(f"{_int_text(c)}*{body}")
        else:
            parts.append(f"({_int_text(c)})*{body}")
    out = " + ".join(parts)
    if den > 1:
        out += f" / {_int_text(den)}"
    return out


def format_expr(expr: TensorExpr, dummypri: bool = False) -> str:
    return format_vector(expr.vec, expr.header.factors,
                         _slot_names(expr.header, dummypri))

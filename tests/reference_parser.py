"""The line-tracking lexer and peek/next parser that `frontend` had
before it lexed in one findall, kept as a test-only reference.  It builds
the same statement classes, so its output compares with `==`.
"""

import re

from tensorcanon.frontend import (Assignment, ExprEval, KBasisQuery,
                                  ParseError, ShowTime, Statement,
                                  SwitchSet, SymDecl, TClear, TensorDecl,
                                  TermList)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<sym>[-+*(),;])
""", re.VERBOSE)


def _tokenize(text):
    line, col = 1, 1
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "int":
            out.append(("int", int(val), line, col))
        elif kind == "ident":
            out.append(("ident", val.lower(), line, col))
        elif kind == "assign":
            out.append((":=", val, line, col))
        elif kind == "sym":
            out.append((val, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t is None or t[0] != kind:
            got = "end of input" if t is None else repr(t[1])
            where = (t[2], t[3]) if t else (None, None)
            raise ParseError(f"expected {kind!r}, got {got}", *where)
        return self.next()

    def statements(self):
        out = []
        while self.peek() is not None:
            start = self.i
            stmt = self.statement()
            stmt.src = self._join(self.toks[start:self.i])
            out.append(stmt)
        return out

    @staticmethod
    def _join(toks):
        # reconstruct statement text from the token stream
        s = ""
        for _, val, _, _ in toks:
            p = str(val)
            if s and (s[-1].isalnum() or s[-1] == "_") and (p[0].isalnum() or p[0] == "_"):
                s += " "
            s += p
        return s

    def statement(self):
        t = self.peek()
        if t[0] == "ident":
            word = t[1]
            if word == "tensor":
                self.next()
                return TensorDecl(self._name_list())
            if word == "tclear":
                self.next()
                return TClear(self._name_list())
            if word == "tsym":
                self.next()
                rels = [self.expr()]
                while self.peek() and self.peek()[0] == ",":
                    self.next()
                    rels.append(self.expr())
                self.expect(";")
                return SymDecl(rels)
            if word == "kbasis":
                self.next()
                specs = [self._basis_spec()]
                while self.peek() and self.peek()[0] == ",":
                    self.next()
                    specs.append(self._basis_spec())
                self.expect(";")
                return KBasisQuery(specs)
            if word in ("on", "off"):
                self.next()
                sw = self.expect("ident")[1]
                self.expect(";")
                return SwitchSet(sw, word == "on")
            if word == "showtime":
                self.next()
                self.expect(";")
                return ShowTime()
            nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
            if nxt is not None and nxt[0] == ":=":
                name = self.next()[1]
                self.next()
                e = self.expr()
                self.expect(";")
                return Assignment(name, e)
        e = self.expr()
        self.expect(";")
        return ExprEval(e)

    def _name_list(self):
        names = [self.expect("ident")[1]]
        while self.peek() and self.peek()[0] == ",":
            self.next()
            names.append(self.expect("ident")[1])
        self.expect(";")
        return names

    def _basis_spec(self):
        name = self.expect("ident")[1]
        factors = ()
        if self.peek() and self.peek()[0] == "(":
            self.next()
            fl = [self.expect("ident")[1]]
            while self.peek() and self.peek()[0] == ",":
                self.next()
                fl.append(self.expect("ident")[1])
            self.expect(")")
            factors = tuple(fl)
        return name, factors

    # -- expressions ---------------------------------------------------

    def expr(self) -> TermList:
        terms = self.term()
        while self.peek() and self.peek()[0] in "+-":
            op = self.next()[0]
            nxt = self.term()
            if op == "-":
                nxt = [(-c, f) for c, f in nxt]
            terms = terms + nxt
        return _collect(terms)

    def term(self) -> TermList:
        sign = 1
        while self.peek() and self.peek()[0] == "-":
            self.next()
            sign = -sign
        prod = self.factor()
        while self.peek() and self.peek()[0] == "*":
            self.next()
            prod = _cross(prod, self.factor())
        if sign < 0:
            prod = [(-c, f) for c, f in prod]
        return prod

    def factor(self) -> TermList:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        if t[0] == "int":
            self.next()
            return [(t[1], ())]
        if t[0] == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t[0] == "ident":
            name = self.next()[1]
            if self.peek() and self.peek()[0] == "(":
                self.next()
                idx = [self.expect("ident")[1]]
                while self.peek() and self.peek()[0] == ",":
                    self.next()
                    idx.append(self.expect("ident")[1])
                self.expect(")")
                return [(1, ((name, tuple(idx)),))]
            return [(1, ((name,),))]
        raise ParseError(f"unexpected token {t[1]!r}", t[2], t[3])


def _cross(a: TermList, b: TermList) -> TermList:
    return _collect([(ca * cb, fa + fb) for ca, fa in a for cb, fb in b])


def _collect(terms: TermList) -> TermList:
    acc: dict[tuple, int] = {}
    order: list[tuple] = []
    for c, f in terms:
        if f not in acc:
            acc[f] = 0
            order.append(f)
        acc[f] += c
    return [(acc[f], f) for f in order if acc[f] != 0] or [(0, terms[0][1])]


def parse(text: str) -> list[Statement]:
    try:
        return _Parser(text).statements()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None

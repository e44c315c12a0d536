"""Script runner and interactive session for the canonicalization engine."""

from __future__ import annotations

import sys
import time

from . import frontend, texpr
from .frontend import (Assignment, ExprEval, KBasisQuery, ParseError, ShowTime,
                       SwitchSet, SymDecl, TClear, TensorDecl)
from .kbasis import KBasis
from .texpr import Registry, TensorError, TensorHeader


class Session:
    """One evaluation session: registry, name bindings and switches."""

    def __init__(self, out=None, err=None, max_rank=8, echo=False,
                 auto_time=False):
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self.registry = Registry(diag=self._diag, max_rank=max_rank)
        self.switches = {"dummypri": False, "shortest": False}
        self.bindings: dict[str, frontend.TermList] = {}
        self.echo = echo
        self.auto_time = auto_time
        self._clock = time.monotonic()

    def _diag(self, msg: str):
        print(msg, file=self.err)

    def _print(self, text: str):
        print(text, file=self.out)

    def run_text(self, text: str) -> int:
        try:
            statements = frontend.parse(text)
        except ParseError as e:
            self._diag(f"***** {e}")
            return 1
        status = 0
        for stmt in statements:
            if self.echo:
                self._print(stmt.src)
            try:
                self.execute(stmt)
            except (ParseError, TensorError) as e:
                self._diag(f"***** {e}")
                status = 1
        return status

    def execute(self, stmt):
        reg = self.registry
        if isinstance(stmt, TensorDecl):
            for name in stmt.names:
                reg.declare(name)
        elif isinstance(stmt, TClear):
            for name in stmt.names:
                reg.undeclare(name)
        elif isinstance(stmt, SymDecl):
            for rel in stmt.relations:
                resolved = frontend.resolve(rel, self.bindings)
                reg.declare_symmetry(frontend.to_raw_terms(resolved))
        elif isinstance(stmt, KBasisQuery):
            for spec in stmt.specs:
                self._print_basis(spec)
        elif isinstance(stmt, SwitchSet):
            if stmt.name not in self.switches:
                self._diag(f"+++ unknown switch: {stmt.name}")
            else:
                self.switches[stmt.name] = stmt.on
        elif isinstance(stmt, Assignment):
            self.bindings[stmt.name] = frontend.resolve(stmt.expr,
                                                        self.bindings)
        elif isinstance(stmt, ExprEval):
            self._evaluate(stmt.expr)
        elif isinstance(stmt, ShowTime):
            now = time.monotonic()
            ms = round((now - self._clock) * 1000)
            self._clock = now
            self._print(f"Time: {ms} ms")

    def _evaluate(self, expr):
        reg = self.registry
        t0 = time.monotonic()
        raw = frontend.to_raw_terms(frontend.resolve(expr, self.bindings))
        te = reg.normalize(raw)
        result = reg.simplify(te)
        shown = (result.shortest if self.switches["shortest"]
                 else result.canonical)
        self._print(frontend.format_expr(shown, self.switches["dummypri"]))
        if self.auto_time:
            self._print(f"Time: {round((time.monotonic() - t0) * 1000)} ms")

    # -- bases ---------------------------------------------------------

    def basis_for(self, spec) -> tuple[KBasis, TensorHeader]:
        """The stored basis of a tensor, or the product basis of factors."""
        name, factor_names = spec
        reg = self.registry
        factors = []
        for fn in (name,) + factor_names:
            t = reg.tensors.get(fn)
            if t is None:
                raise TensorError(f"Invalid as tensor: {fn}")
            if t.arity is None:
                raise TensorError(f"arity of {fn} is not fixed yet"
                                  " (evaluate or declare a relation first)")
            factors.append((fn, t.arity))
        factors.sort(key=lambda f: f[0])
        slot_names = [x for fn, arity in factors
                      for x in (reg.tensors[fn].display
                                or frontend.default_names(arity))]
        if len(set(slot_names)) < len(slot_names):
            slot_names = frontend.default_names(len(slot_names))
        header = TensorHeader(tuple(factors), (),
                              tuple((x, 0) for x in slot_names))
        if len(factors) == 1:
            return reg.tensors[name].k0_basis(), header
        return reg.expression_basis(header), header

    def _print_basis(self, spec):
        basis, header = self.basis_for(spec)
        names = [x for x, _ in header.free]
        for row in basis.rows:
            self._print(frontend.format_vector(row, header.factors, names))
        self._print(str(basis.dim()))


def memtable(max_rank: int) -> str:
    """Storage-estimate table for ranks 1..max_rank."""
    if not 1 <= max_rank <= 20:
        raise ValueError("memtable takes a rank from 1 to 20")
    lines = ["rank\tMcells\tMByte"]
    for n in range(1, max_rank + 1):
        mc, mb = texpr.estimate_memory(n)
        lines.append(f"{n}\t{mc:.6g}\t{mb:.6g}")
    return "\n".join(lines) + "\n"


def export_basis(session: Session, spec_text: str, as_json: bool) -> str:
    """Textual or structured dump of a stored or product basis."""
    basis, _ = session.basis_for(frontend.parse_basis_spec(spec_text))
    return basis.dump_json() if as_json else basis.dump_text()


# flag: (attribute, value type or None for a switch, metavar, --help line)
FLAGS = {
    "--help": ("help", None, "", "show this help and exit (also -h)"),
    "--script": ("script", str, "FILE", "run a script instead of stdin"),
    "--max-rank": ("max_rank", int, "N",
                   "limit relations to N indices, cosets to N! (default 8)"),
    "--export-basis": ("export_basis", str, "SPEC",
                       "after the run, dump the basis of t or t1(t2,...)"),
    "--json": ("json", None, "", "structured basis export instead of text"),
    "--output": ("output", str, "FILE", "write the export here, not stdout"),
    "--time": ("auto_time", None, "", "print the time of each evaluation"),
    "--memtable": ("memtable", int, "N",
                   "print the storage-estimate table up to rank N and exit"),
}


def parse_argv(argv) -> dict:
    """Flag values by attribute from `--name value` or `--name=value`; the
    last one wins, a value is verbatim and not empty, and a bad argument, or
    `--json` or `--output` without `--export-basis`, is a ValueError."""
    args = {attr: None for attr, *_ in FLAGS.values()}
    args["max_rank"] = 8
    argv = iter(argv)
    for arg in argv:
        name, eq, value = ("--help" if arg == "-h" else arg).partition("=")
        if name not in FLAGS:
            raise ValueError(f"unrecognized argument: {arg} (see --help)")
        attr, kind = FLAGS[name][:2]
        if not (eq or kind is None):
            value = next(argv, "")
        if eq if kind is None else not value:
            raise ValueError(
                f"{name} {'needs a' if kind else 'takes no'} value")
        try:
            args[attr] = True if kind is None else kind(value)
        except ValueError:
            raise ValueError(f"{name} needs an integer: {value!r}") from None
    stray = [f for f in ("--json", "--output") if args[f[2:]] is not None]
    if stray and args["export_basis"] is None:
        raise ValueError(f"--export-basis is needed for {' and '.join(stray)}")
    return args


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if args["help"]:
            out.write("usage: tensorcanon [options]\n\nCanonicalize indexed"
                      " expressions under tensor symmetries.\n\noptions:\n"
                      + "".join(f"  {flag} {metavar}".ljust(23) + f"{text}\n"
                                for flag, (_, _, metavar, text)
                                in FLAGS.items()))
            return 0
        if args["memtable"] is not None:
            out.write(memtable(args["memtable"]))
            return 0
        if args["max_rank"] < 1:
            raise ValueError("--max-rank must be at least 1")
        # input is UTF-8 in any locale: the real stdin is read as bytes;
        # UnicodeDecodeError is a ValueError
        if args["script"] is not None:
            with open(args["script"], encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = (stdin if stdin is not None
                    else getattr(sys.stdin, "buffer", sys.stdin)).read()
            text = text.decode("utf-8") if type(text) is bytes else text
    except (OSError, ValueError) as e:
        print(f"***** {e}", file=err)
        return 1
    session = Session(out=out, err=err, max_rank=args["max_rank"],
                      echo=args["script"] is not None,
                      auto_time=args["auto_time"])
    # an engine fault in the run is no refusal: it raises
    status = session.run_text(text)
    if args["export_basis"] is None:
        return status
    try:
        dump = export_basis(session, args["export_basis"], args["json"])
        if args["output"] is None:
            out.write(dump)
        else:
            with open(args["output"], "w", encoding="utf-8") as fh:
                fh.write(dump)
    except (OSError, ParseError, TensorError) as e:
        print(f"***** {e}", file=err)
        return 1
    return status


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

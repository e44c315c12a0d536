"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions of the engine's modules with wrappers
that time them (spans) or count their calls (counters).  Nothing in the
program changes; the wrappers are installed in the measured process only,
after import.  A span's self time is its duration minus the time of the
spans it called, so the self times of all spans add up to the time spent
inside the outermost ones.

Wrappers are looked up by the name the callers bind: `galg` calls the
`multiply` it imported from `perm`, so both `perm.multiply` and
`galg.multiply` are wrapped and feed one counter.
"""

from __future__ import annotations

import time
from collections import Counter
from math import factorial

# (module, attribute path, span name); a missing attribute is skipped, so
# a later refactor that drops a function leaves its metric at zero
SPANS = [
    ("cli", "run", "cli.run"),
    ("cli", "Session.run_text", "cli.run_text"),
    ("frontend", "parse", "frontend.parse"),
    ("frontend", "resolve", "frontend.resolve"),
    ("frontend", "to_raw_terms", "frontend.to_raw_terms"),
    ("frontend", "format_expr", "frontend.format"),
    ("texpr", "Registry.declare_symmetry", "texpr.declare_symmetry"),
    ("texpr", "Registry.normalize", "texpr.normalize"),
    ("texpr", "Registry.simplify", "texpr.simplify"),
    ("texpr", "Registry.expression_basis", "texpr.expression_basis"),
    ("texpr", "Registry.product_relations", "texpr.product_relations"),
    ("texpr", "Registry.dummy_relations", "texpr.dummy_relations"),
    ("kbasis", "KBasis.build", "kbasis.build"),
    ("kbasis", "KBasis.sieve", "kbasis.sieve"),
    ("kbasis", "KBasis.sieve_trace", "kbasis.sieve_trace"),
    ("kbasis", "KBasis.insert", "kbasis.insert"),
    ("kbasis", "load_packed", "kbasis.load_packed"),
]

COUNTERS = [
    ("galg", "add", "galg.add"),
    ("galg", "renorm", "galg.renorm"),
    ("galg", "translate_right", "galg.translate_right"),
    ("perm", "multiply", "perm.multiply"),
    ("galg", "multiply", "perm.multiply"),
]


class Tracer:
    """Self time and call count per span, plus counts taken at the spans."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.headers: set = set()
        # one [span name, time of child spans] frame per open span
        self._stack: list[list] = []

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def install(self, modules: dict):
        """Wrap the SPANS and COUNTERS found in `modules` (name -> module)."""
        after = {
            "texpr.product_relations": self._count_len(
                "texpr.product_relations.count"),
            "texpr.dummy_relations": self._count_len(
                "texpr.dummy_relations.count"),
            "frontend.to_raw_terms": self._count_len("frontend.raw_terms"),
            "texpr.expression_basis": self._basis_done,
        }
        for mod, path, name in SPANS:
            _patch(modules[mod], path,
                   lambda fn, name=name: self._span(name, fn, after.get(name)))
        for mod, path, name in COUNTERS:
            _patch(modules[mod], path,
                   lambda fn, name=name: self._counter(name, fn))

    def _span(self, name, fn, after):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stack, calls = self._stack, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "galg.add" and stack and stack[-1][0] == "kbasis.insert":
                calls["kbasis.insert.row_updates"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_len(self, key):
        def after(result, args):
            self.counts[key] += len(result)
        return after

    def _basis_done(self, basis, args):
        header = args[1]
        self.headers.add((header.factors, header.npairs))
        dim = basis.dim()
        self.counts["kbasis.basis_dim"] += dim
        self.counts["kbasis.quotient_dim"] += factorial(header.degree) - dim

    def snapshot(self) -> dict:
        """Plain-data view: self times in ms, call counts and counts."""
        counts = dict(self.calls)
        counts.update(self.counts)
        counts["texpr.expression_basis.distinct_headers"] = len(self.headers)
        return {"self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
                "counts": counts}


def _patch(module, path, make):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    setattr(owner, attr, make(fn))

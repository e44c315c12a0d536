"""`Registry.normalize` and `_term_perm` as they were before terms were
written straight into their inverse maps, kept as a test-only reference.
`normalize` takes the registry as its first argument and uses its
`_fix_arity` and `note`, so arity fixes and diagnostics land in it; it
fixes each arity in the tensor at once, even when it then refuses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from tensorcanon import galg, perm
from tensorcanon.texpr import RawTerm, TensorError, TensorExpr, TensorHeader

from conftest import inverse


def normalize(self, terms: Sequence[RawTerm]) -> TensorExpr:
    """Canonical factor order, dummy detection and the shared header.

    Repeated index names pair up by their first two occurrences; any
    further occurrence stays free, with a diagnostic.
    """
    if not terms:
        raise TensorError("empty tensor expression")
    norm = []
    for c, facs in terms:
        if not facs:
            raise TensorError("term without tensor factors")
        facs = tuple(sorted(facs, key=lambda f: f[0]))
        for fname, idx in facs:
            pending: dict[str, int] = {}
            tensor = self._fix_arity(fname, len(idx), pending)
            tensor.arity = pending.get(fname, tensor.arity)
        names = [x for _, idx in facs for x in idx]
        counts: dict[str, int] = {}
        for x in names:
            counts[x] = counts.get(x, 0) + 1
        keys: list[tuple] = []
        pair_of: dict[str, int] = {}
        pair_names: dict[int, str] = {}
        seen: dict[str, int] = {}
        for x in names:
            occ = seen.get(x, 0)
            seen[x] = occ + 1
            if counts[x] >= 2 and occ < 2:
                if occ == 0:
                    pid = len(pair_names) + 1
                    pair_of[x] = pid
                    pair_names[pid] = x
                    keys.append(("d", pid, 1))
                else:
                    keys.append(("d", pair_of[x], 2))
            else:
                if occ >= 2:
                    self.note(f"+++ index {x} appears more than twice;"
                              " extra occurrences are kept free")
                keys.append(("f", x, occ))
        norm.append((Fraction(c), tuple(f[0] for f in facs),
                     tuple(len(f[1]) for f in facs), keys, pair_names))

    _, names0, arities0, keys0, pairs0 = norm[0]
    ref_keys = [("d", k, m) for k in range(1, len(pairs0) + 1)
                for m in (1, 2)]
    ref_keys += sorted(k for k in keys0 if k[0] == "f")
    refset = sorted(ref_keys)
    header = TensorHeader(tuple(zip(names0, arities0)),
                          tuple(pairs0[k] for k in range(1, len(pairs0) + 1)),
                          tuple((a, b) for kind, a, b in ref_keys
                                if kind == "f"))

    n = header.degree
    acc: dict[tuple, Fraction] = {}
    for c, names, _, keys, _ in norm:
        if names != names0:
            raise TensorError("terms of one expression must share the"
                              " same product of basic tensors")
        if sorted(keys) != refset:
            raise TensorError("terms of one expression must carry the"
                              " same free indices")
        pi = _term_perm(keys, ref_keys)
        acc[pi] = acc.get(pi, Fraction(0)) + c
    return TensorExpr(header, galg.from_dict(n, acc))


def _term_perm(keys: Sequence, ref: Sequence) -> tuple:
    """Permutation of a term relative to the reference slot list.

    With sigma the selection with keys[i] = ref[sigma[i]], the term's
    permutation is sigma^{-1}; symmetry relations then close under right
    translation and dummy renamings act by right factors.
    """
    where = {k: i + 1 for i, k in enumerate(ref)}
    if len(where) != len(ref):
        raise TensorError("reference slots are not distinct")
    try:
        sigma = tuple(where[k] for k in keys)
    except KeyError as e:
        raise TensorError(f"index {e.args[0]!r} not present in the reference"
                          " slots") from None
    return inverse(perm.check(sigma))

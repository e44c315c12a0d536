"""Record the expected canonical output of every pool entry.

    python3 perfbench/record.py

Runs each entry of the `contract` and `free_sums` pools through one
`cli.Session` of the program in this checkout and writes the output, with
a hash of the input text, to data/expected.json.  Each entry of degree 5
or less is cross-checked once against the dense eliminator in
`tensorcanon.oracle`, which shares no elimination code with the engine:
the input minus its canonical form must lie in the span of the header's
product and dummy relations, and a nonzero canonical form must not.  A
run counts an entry whose check disagreed as a failed evaluation.

The canonical forms are meant never to change, so record only at a commit
whose outputs are trusted, and only to add or regenerate entries.
"""

import io
import json
import platform
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from tensorcanon import cli, frontend, galg, oracle  # noqa: E402

ORACLE_MAX_DEGREE = 5


def oracle_verdict(reg, text: str) -> str:
    stmt = frontend.parse(text)[0]
    te = reg.normalize(frontend.to_raw_terms(frontend.resolve(stmt.expr, {})))
    if te.header.degree > ORACLE_MAX_DEGREE:
        return "not checked"
    canonical = reg.simplify(te).canonical.vec
    rels = (reg.product_relations(te.header)
            + reg.dummy_relations(te.header))
    ok = oracle.member(galg.add(te.vec, galg.negate(canonical)), rels)
    if ok and not canonical.is_zero():
        ok = not oracle.member(canonical, rels)
    return "agrees" if ok else "disagrees"


def main() -> int:
    out, err = io.StringIO(), io.StringIO()
    session = cli.Session(out=out, err=err)
    if session.run_text(workloads.DECLARATIONS) or err.getvalue():
        print(err.getvalue(), file=sys.stderr)
        return 1
    recorded = {"python": platform.python_version()}
    for workload in ("contract", "free_sums"):
        entries = recorded[workload] = {}
        for entry_id, text in workloads.pool(workload):
            out.seek(0)
            out.truncate()
            status = session.run_text(text)
            if status or err.getvalue():
                print(f"{entry_id}: status {status}: {err.getvalue()}",
                      file=sys.stderr)
                return 1
            entries[entry_id] = {
                "sha256": workloads.digest(text),
                "output": out.getvalue(),
                "oracle": oracle_verdict(session.registry, text),
            }
            print(entry_id, entries[entry_id]["oracle"], flush=True)
    workloads.EXPECTED.parent.mkdir(exist_ok=True)
    workloads.EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs: the golden script and seeded draws from recorded pools.

`contract` and `free_sums` draw one variant per fixed slot and shuffle
the order.  The slots are the same for every seed, so the cost of a pass
does not depend on the seed; the variants differ in index names, dummy
pairings, index orders, coefficients and term counts.  Every variant's
canonical output was recorded by `record.py` into `data/expected.json`,
together with a hash of its input text, so a run can check each output
and detect a generator that no longer reproduces the recorded inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_SCRIPT = ROOT / "scripts" / "golden_session.tsc"
GOLDEN_OUT = ROOT / "tests" / "data" / "golden_session.out"
EXPECTED = HERE / "data" / "expected.json"

WORKLOADS = ("golden", "contract", "free_sums")
VARIANTS = 8

ARITY = {"a2": 2, "s2": 2, "a3": 3, "s3": 3, "ri": 4,
         "v1": 1, "v2": 1, "v3": 1}
# the relations of tests/conftest.py
RELATIONS = {
    "a2": ["a2(i,j)+a2(j,i)"],
    "s2": ["s2(i,j)-s2(j,i)"],
    "a3": ["a3(i,j,k)+a3(j,i,k)", "a3(i,j,k)-a3(j,k,i)"],
    "s3": ["s3(i,j,k)-s3(j,i,k)", "s3(i,j,k)-s3(j,k,i)"],
    "ri": ["ri(i,j,k,l)+ri(j,i,k,l)", "ri(i,j,k,l)+ri(i,j,l,k)",
           "ri(i,j,k,l)+ri(i,k,l,j)+ri(i,l,j,k)"],
}
DECLARATIONS = ("tensor " + ",".join(ARITY) + ";\n"
                + "".join(f"tsym {', '.join(rels)};\n"
                          for rels in RELATIONS.values()))

# contract: (factors, dummy pairs).  No two slots share a relation set, so
# no header repeats within a pass.  The six degree-6 products take over
# 90% of a pass, almost all of it in relation generation and the basis
# build; the ten degree-5 ones keep shapes with vectors and 1-3 pairs in.
CONTRACT_SLOTS = [
    (("a2", "ri"), 2), (("ri", "s2"), 1), (("ri", "v1", "v2"), 3),
    (("a3", "s3"), 1), (("a3", "a3"), 3), (("a2", "s2", "s2"), 2),
    (("ri", "v1"), 1), (("ri", "v3"), 2), (("a3", "s2"), 1),
    (("a2", "s3"), 2), (("a2", "a3"), 1), (("s3", "v1", "v2"), 1),
    (("a2", "s2", "v1"), 2), (("a2", "a2", "v3"), 1),
    (("s2", "v1", "v2", "v3"), 2), (("a3", "v2", "v3"), 1),
]

# free_sums: (header, terms).  Three no-dummy headers, each reused by
# several literal sums of 100-2000 terms.
FREE_SLOTS = [
    ("ri(i,j,k,l)", 100), ("ri(i,j,k,l)", 300), ("ri(i,j,k,l)", 500),
    ("ri(i,j,k,l)", 1000), ("ri(i,j,k,l)", 2000),
    ("a3(i,j,k)*s2(l,m)", 100), ("a3(i,j,k)*s2(l,m)", 300),
    ("a3(i,j,k)*s2(l,m)", 500), ("a3(i,j,k)*s2(l,m)", 1000),
    ("a3(i,j,k)*s2(l,m)", 2000),
    ("a2(i,j)*ri(k,l,m,n)", 200), ("a2(i,j)*ri(k,l,m,n)", 700),
    ("a2(i,j)*ri(k,l,m,n)", 2000),
]

INDEX_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _product(factors, names) -> str:
    out, off = [], 0
    for f in factors:
        out.append(f"{f}({','.join(names[off:off + ARITY[f]])})")
        off += ARITY[f]
    return "*".join(out)


def _sum(terms) -> str:
    """`c1*t1 - c2*t2 + ...;` for integer coefficients c and products t."""
    parts = []
    for c, body in terms:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("- " if c < 0 else "+ ") + mag + body)
    text = " ".join(parts)
    return (text[2:] if text[0] == "+" else "-" + text[2:]) + ";"


def _shuffled_term(rng, factors, names):
    """One product with the factors and the index names in random order."""
    factors = list(factors)
    rng.shuffle(factors)
    names = list(names)
    rng.shuffle(names)
    return _product(factors, names)


def contract_text(slot, variant: int) -> str:
    """1-4 terms of one product with `npairs` dummy pairs."""
    factors, npairs = slot
    rng = random.Random(f"contract/{contract_id(slot, variant)}")
    n = sum(ARITY[f] for f in factors)
    letters = rng.sample(INDEX_NAMES, n - npairs)
    names = letters[:npairs] * 2 + letters[npairs:]
    terms = [(rng.choice((1, 2, 3, -1, -2, -3)),
              _shuffled_term(rng, factors, names))
             for _ in range(rng.randint(1, 4))]
    return _sum(terms)


def free_text(slot, variant: int) -> str:
    """A literal sum of `size` terms of one no-dummy header."""
    header, size = slot
    rng = random.Random(f"free_sums/{free_id(slot, variant)}")
    factors = [f.split("(")[0] for f in header.split("*")]
    names = [x for f in header.split("*")
             for x in f.split("(")[1].rstrip(")").split(",")]
    terms = [(rng.choice((1, -1)) * rng.randint(1, 9),
              _shuffled_term(rng, factors, names))
             for _ in range(size)]
    return _sum(terms)


def contract_id(slot, variant: int) -> str:
    factors, npairs = slot
    return f"{'*'.join(factors)}/{npairs}/{variant}"


def free_id(slot, variant: int) -> str:
    header, size = slot
    return f"{header}/{size}/{variant}"


def _slots(workload: str):
    if workload == "contract":
        return CONTRACT_SLOTS, contract_id, contract_text
    return FREE_SLOTS, free_id, free_text


def pool(workload: str) -> list[tuple[str, str]]:
    """Every (id, text) the workload can draw, in slot order."""
    slots, make_id, make_text = _slots(workload)
    return [(make_id(s, v), make_text(s, v))
            for s in slots for v in range(VARIANTS)]


def draw(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (id, text) evaluations of one pass for `seed`: one variant per
    slot, in a seeded order."""
    slots, make_id, make_text = _slots(workload)
    rng = random.Random(f"{workload}/seed/{seed}")
    picks = [(make_id(s, v), make_text(s, v))
             for s in slots for v in (rng.randrange(VARIANTS),)]
    rng.shuffle(picks)
    return picks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def normalize_transcript(text: str) -> list[str]:
    """Transcript lines with whitespace squeezed and `Time:` lines dropped,
    as the session-transcript acceptance criterion compares them."""
    out = []
    for line in text.split("\n"):
        line = " ".join(line.split())
        if line and not line.startswith("Time:"):
            out.append(line)
    return out

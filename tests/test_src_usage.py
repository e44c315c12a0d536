"""Every module-level function and class of the package is used by the
package itself or exported in `tensorcanon.__all__`; helpers that only
tests call belong under `tests/`.  Whatever of the package the benchmark
under `perfbench/` reads must exist, so a removal that would break it
fails here too."""

import ast
import importlib
import io
import json
import sys
from pathlib import Path

import tensorcanon

SRC = Path(tensorcanon.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the dense reference eliminator: independent of the engine by design,
# imported by the tests and by perfbench/record.py, never by the package
EXEMPT = {"oracle.py"}


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each module-level function or class, outside the
    exempt modules, named by no `Name`, `Attribute` or import outside its
    own definition and not in `tensorcanon.__all__`."""
    uses: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                uses.setdefault(name, []).append(id(node))
    found = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in tensorcanon.__all__):
                inside = {id(n) for n in ast.walk(node)}
                if all(u in inside for u in uses.get(node.name, [])):
                    found.append(f"{module[:-3]}.{node.name}")
    return found


def parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {name: ast.parse(text) for name, text in sources.items()}


def test_package_has_no_test_only_definitions():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(parse(sources)) == []


def test_the_scan_flags_an_unused_definition():
    # a use inside its own definition does not count; an import, under
    # any alias, does
    sources = {
        "a.py": ("class Used:\n    pass\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "def imported():\n    return Used()\n"),
        "b.py": ("from .a import imported as f\n\n"
                 "def unused():\n    return f()\n"),
        "oracle.py": "def member():\n    pass\n",
    }
    assert unreferenced(parse(sources)) == ["a.recursive", "b.unused"]


def package_reads(tree: ast.Module) -> set[str]:
    """Each dotted name that a file imports from `tensorcanon` or reads
    off a name it bound so, as `module.attribute...`: a module-level
    `from tensorcanon import galg` and a later `galg.add` give
    `tensorcanon.galg` and `tensorcanon.galg.add`.  Bindings are taken
    from the whole file, whatever the scope."""
    bound: dict[str, str] = {}
    reads: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "tensorcanon":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = name
                reads.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tensorcanon":
                    reads.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["tensorcanon"] = "tensorcanon"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                reads.add(".".join([bound[base.id]] + chain[::-1]))
    return reads


def missing(dotted: str) -> bool:
    """Does the dotted name of a module, or of an attribute read off one,
    fail to resolve?"""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], 2):
        if not hasattr(obj, name):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return True
        obj = getattr(obj, name)
    return False


def test_the_benchmark_reads_nothing_the_package_lacks():
    reads = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for dotted in package_reads(tree):
            reads.setdefault(dotted, path.name)
    # record.py's oracle check and worker.py's imports are among them
    assert {"tensorcanon.galg.add", "tensorcanon.galg.negate",
            "tensorcanon.perm"} <= reads.keys()
    assert sorted(f"{f}: {d}" for d, f in reads.items() if missing(d)) == []


def test_the_read_scan_resolves_chains_and_aliases():
    tree = ast.parse("from tensorcanon import galg as g\n"
                     "import tensorcanon.texpr\n"
                     "def f():\n"
                     "    from tensorcanon.texpr import Registry\n"
                     "    g.add(Registry.normalize, tensorcanon.texpr.x)\n"
                     "    g.y = 1\n")
    assert package_reads(tree) == {
        "tensorcanon.galg", "tensorcanon.galg.add", "tensorcanon.texpr",
        "tensorcanon.texpr.Registry", "tensorcanon.texpr.Registry.normalize",
        "tensorcanon.texpr.x"}
    assert not missing("tensorcanon.galg.add")
    assert missing("tensorcanon.galg.y")
    assert missing("tensorcanon.nomodule")


def test_record_reproduces_oracle_verdicts():
    # three contract entries of degree 5 or less, with one and two pairs,
    # checked as record.py checks them against the dense oracle
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        import record     # puts the checkout's src/ on the path, as CI does
        import workloads
    finally:
        sys.path[:] = saved
    from tensorcanon import cli
    expected = json.loads(workloads.EXPECTED.read_text())["contract"]
    session = cli.Session(out=io.StringIO(), err=io.StringIO())
    assert session.run_text(workloads.DECLARATIONS) == 0
    texts = dict(workloads.pool("contract"))
    for entry_id in ("ri*v1/1/0", "a3*s2/1/0", "a2*s2*v1/2/0"):
        verdict = record.oracle_verdict(session.registry, texts[entry_id])
        assert verdict == expected[entry_id]["oracle"] == "agrees", entry_id

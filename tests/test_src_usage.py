"""Every module-level function and class of the package is used by the
package itself or exported in `tensorcanon.__all__`; helpers that only
tests call belong under `tests/`."""

import ast
from pathlib import Path

import tensorcanon

SRC = Path(tensorcanon.__file__).resolve().parent
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

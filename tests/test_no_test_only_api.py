"""Every public function and class in src/affprimes has a caller outside the tests.

The roots are the CLI, the demos, the benchmark and the acceptance criteria;
a name is reached when a root, or the module-level code of a module, refers to
it directly or through reached definitions.  Oracles that only tests call live
in the test files.
"""

import ast
from pathlib import Path

import affprimes

SRC = Path(affprimes.__file__).resolve().parent
ROOT = SRC.parents[1]

# 'module.name' kept as paper-facing API without a caller outside the tests,
# each with a one-line reason.
ALLOWED_UNREACHED = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _aliases(tree, module, modules, exports):
    """Local name -> 'mod' (a module of the package) or 'mod.name' (a definition)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("affprimes"):
                continue
            base = node.module.removeprefix("affprimes").lstrip(".") if node.module else ""
            for a in node.names:
                local = a.asname or a.name
                if base:
                    out[local] = f"{base}.{a.name}"
                elif a.name in modules:
                    out[local] = a.name
                elif a.name in exports:
                    out[local] = exports[a.name]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("affprimes.") and a.asname:
                    out[a.asname] = a.name.removeprefix("affprimes.")
    if module:
        out.update({n.name: f"{module}.{n.name}" for n in tree.body if isinstance(n, _DEFS)})
    return out


def _references(nodes, aliases, modules, by_name):
    """Definitions ('mod.name') that the code in nodes refers to.

    A name or `module.attr` resolves through the imports and the module's own
    definitions; a string constant naming a definition (as the benchmark's
    tracer lists its spans) refers to every definition of that name.
    """
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and n.id in aliases and aliases[n.id] not in modules:
                out.add(aliases[n.id])
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and aliases.get(n.value.id) in modules:
                out.add(f"{aliases[n.value.id]}.{n.attr}")
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update(by_name.get(n.value.split(".")[0], ()))
    return out


def unreached_definitions(package, roots):
    """Sorted 'mod.name' of the module-level definitions in package that no root reaches.

    package maps module name -> source ('__init__' holds the exports); roots
    lists the sources of the code whose reach counts.
    """
    trees = {m: ast.parse(src) for m, src in package.items()}
    modules = set(trees) - {"__init__"}
    exports = _aliases(trees["__init__"], None, modules, {}) if "__init__" in trees else {}
    defs, edges, by_name = {}, {}, {}
    for m in sorted(modules):
        for n in trees[m].body:
            if isinstance(n, _DEFS):
                defs[f"{m}.{n.name}"] = n
                by_name.setdefault(n.name, set()).add(f"{m}.{n.name}")
    frontier = set()
    for m in sorted(modules):
        aliases = _aliases(trees[m], m, modules, exports)
        for name in (k for k in defs if k.split(".")[0] == m):
            edges[name] = _references([defs[name]], aliases, modules, by_name)
        top = [n for n in trees[m].body if not isinstance(n, _DEFS + (ast.Import, ast.ImportFrom))]
        frontier |= _references(top, aliases, modules, by_name)
    for src in roots:
        tree = ast.parse(src)
        frontier |= _references([tree], _aliases(tree, None, modules, exports), modules, by_name)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in defs and name not in reached:
            reached.add(name)
            frontier |= edges[name]
    return sorted(set(defs) - reached)


def test_unreached_check_flags_a_test_only_function():
    package = {
        "__init__": "from .a import used, Kept\n",
        "a": (
            "from . import b\n"
            "TABLE = b.table()\n"
            "def used():\n    return _helper()\n"
            "def _helper():\n    return b.deep()\n"
            "def orphan():\n    return b.lonely()\n"
            "class Kept:\n    def m(self):\n        return 1\n"
        ),
        "b": "def table():\n    return 1\ndef deep():\n    return 2\ndef lonely():\n    return 3\n",
    }
    roots = ["from affprimes import used\nused()\n", "SPANS = (('a', 'Kept.m'),)\n"]
    assert unreached_definitions(package, roots) == ["a.orphan", "b.lonely"]
    assert unreached_definitions(package, roots[:1]) == ["a.Kept", "a.orphan", "b.lonely"]


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    roots = [
        p.read_text()
        for pattern in ("src/affprimes/cli.py", "demos/*.py", "perfbench/*.py", "tests/test_acceptance.py")
        for p in sorted(ROOT.glob(pattern))
    ]
    public = [name for name in unreached_definitions(package, roots) if not name.split(".")[1].startswith("_")]
    assert public == sorted(ALLOWED_UNREACHED), f"public names that only tests reach: {public}"

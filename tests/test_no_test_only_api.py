"""Every public function, class, method and property in src/affprimes has a
caller outside the tests.

The roots are the CLI, the demos, the benchmark and the acceptance criteria;
a name is reached when a root, or the module-level code of a module, refers to
it directly or through reached definitions.  A method is referred to by any
attribute of its name, whatever the receiver, or by a string 'Class.method';
its body counts once it is reached, and a dunder method's body counts with its
class.  Oracles that only tests call live in the test files.
"""

import ast
from pathlib import Path

import affprimes

SRC = Path(affprimes.__file__).resolve().parent
ROOT = SRC.parents[1]

# 'module.name' or 'module.Class.method' kept as paper-facing API without a
# caller outside the tests, each with a one-line reason.
ALLOWED_UNREACHED = {}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _is_method(node):
    return isinstance(node, _FUNCS) and not (node.name.startswith("__") and node.name.endswith("__"))


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


def _references(nodes, aliases, modules, by_name, methods):
    """Definitions ('mod.name', 'mod.Class.method') that the code in nodes refers to.

    A name or `module.attr` resolves through the imports and the module's own
    definitions; any other attribute refers to every method of that name.  A
    string constant naming a definition, or 'Class.method' (as the benchmark's
    tracer lists its spans), refers to every definition of that name.
    """
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and n.id in aliases and aliases[n.id] not in modules:
                out.add(aliases[n.id])
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and aliases.get(n.value.id) in modules:
                out.add(f"{aliases[n.value.id]}.{n.attr}")
            elif isinstance(n, ast.Attribute):
                out.update(methods.get(n.attr, ()))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                head, _, attr = n.value.partition(".")
                for d in by_name.get(head, ()):
                    out |= {d, f"{d}.{attr}"}
    return out


def unreached_definitions(package, roots):
    """Sorted 'mod.name' of the module-level definitions, and 'mod.Class.method'
    of the methods and properties, in package that no root reaches.

    package maps module name -> source ('__init__' holds the exports); roots
    lists the sources of the code whose reach counts.
    """
    trees = {m: ast.parse(src) for m, src in package.items()}
    modules = set(trees) - {"__init__"}
    exports = _aliases(trees["__init__"], None, modules, {}) if "__init__" in trees else {}
    # definition -> the nodes whose code runs once it is reached: a class
    # without its methods (dunder methods stay with it), each method alone.
    defs, edges, by_name, methods = {}, {}, {}, {}
    for m in sorted(modules):
        for n in (n for n in trees[m].body if isinstance(n, _DEFS)):
            name = f"{m}.{n.name}"
            by_name.setdefault(n.name, set()).add(name)
            if not isinstance(n, ast.ClassDef):
                defs[name] = [n]
                continue
            defs[name] = n.decorator_list + n.bases + [s for s in n.body if not _is_method(s)]
            for f in filter(_is_method, n.body):
                defs[f"{name}.{f.name}"] = [f]
                methods.setdefault(f.name, set()).add(f"{name}.{f.name}")
    frontier = set()
    for m in sorted(modules):
        aliases = _aliases(trees[m], m, modules, exports)
        for name in (k for k in defs if k.split(".")[0] == m):
            edges[name] = _references(defs[name], aliases, modules, by_name, methods)
        top = [n for n in trees[m].body if not isinstance(n, _DEFS + (ast.Import, ast.ImportFrom))]
        frontier |= _references(top, aliases, modules, by_name, methods)
    for src in roots:
        tree = ast.parse(src)
        frontier |= _references([tree], _aliases(tree, None, modules, exports), modules, by_name, methods)
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
    assert unreached_definitions(package, roots[:1]) == ["a.Kept", "a.Kept.m", "a.orphan", "b.lonely"]


def test_unreached_check_covers_methods_and_properties():
    package = {
        "__init__": "from .a import G\n",
        "a": (
            "from . import b\n"
            "class G:\n"
            "    def __init__(self):\n        self.x = b.table()\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    @property\n    def spare(self):\n        return 2\n"
            "    def inverse(self):\n        return b.deep()\n"
            "    def commutator(self, other):\n        return self.inverse()\n"
        ),
        "b": "def table():\n    return 1\ndef deep():\n    return 2\n",
    }
    assert unreached_definitions(package, ["from affprimes import G\nG().size\n"]) == [
        "a.G.commutator", "a.G.inverse", "a.G.spare", "b.deep",
    ]
    assert unreached_definitions(package, ["from affprimes import G\nG().commutator(G())\n"]) == [
        "a.G.size", "a.G.spare",
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    roots = [
        p.read_text()
        for pattern in ("src/affprimes/cli.py", "demos/*.py", "perfbench/*.py", "tests/test_acceptance.py")
        for p in sorted(ROOT.glob(pattern))
    ]
    public = [
        name for name in unreached_definitions(package, roots)
        if not any(part.startswith("_") for part in name.split(".")[1:])
    ]
    assert public == sorted(ALLOWED_UNREACHED), f"public names that only tests reach: {public}"

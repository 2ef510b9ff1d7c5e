"""Every parameter of every function in src/affprimes is read in its body."""

import ast
from pathlib import Path

import affprimes

SRC = Path(affprimes.__file__).resolve().parent

# Kept in the signature because perfbench/workloads.py passes them; they go
# at the next change to the benchmark.
ALLOWED_UNREAD = {
    "gysieve.build_enveloping_sieve.tables",
    "gysieve.tau_moments.tables",
}


def unread_parameters(source, module):
    """'module.Qual.name.param' for each parameter (not self or cls) that its
    function's body never loads; a nested function reading it counts."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
                loaded = {
                    n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                out.extend(f"{qual}.{p}" for p in params if p not in ("self", "cls") and p not in loaded)
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module + ".")
    return out


def test_unread_parameter_check_flags_an_unread_parameter():
    src = "def f(a, b, *c, d=1, **e):\n    def g(x):\n        return a\n    return g(d)\n"
    assert unread_parameters(src, "m") == ["m.f.b", "m.f.c", "m.f.e", "m.f.g.x"]
    assert unread_parameters("class C:\n    def h(self, y):\n        return y\n", "m") == []


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        unread.update(unread_parameters(path.read_text(), path.stem))
    assert unread == ALLOWED_UNREAD

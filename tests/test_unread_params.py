"""Every parameter of every function in src/affprimes is read in its body, and
every dataclass field is read somewhere in src, demos, perfbench or tests."""

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

# 'module.Class.field' kept although no code reads it, each with a one-line reason.
ALLOWED_UNREAD_FIELDS = {}


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


def dataclass_fields(source, module):
    """'module.Class.field' for each annotated field of each @dataclass class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out.extend(
                f"{module}.{node.name}.{s.target.id}"
                for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            )
    return out


def loaded_attributes(sources):
    """Every attribute name that some source loads (obj.name read, not assigned)."""
    return {
        n.attr for src in sources for n in ast.walk(ast.parse(src))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_unread_field_check_flags_an_unread_field():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    used: int\n    spare: int = 0\n"
        "@dataclass\nclass B:\n    kept: int\n"
        "class C:\n    plain: int\n"
        "def f(a, b):\n    b.spare = a.used\n    return b.kept\n"
    )
    fields = dataclass_fields(src, "m")
    assert fields == ["m.A.used", "m.A.spare", "m.B.kept"]
    assert [f for f in fields if f.rsplit(".", 1)[1] not in loaded_attributes([src])] == ["m.A.spare"]


def test_every_dataclass_field_is_read():
    root = SRC.parents[1]
    sources = [
        p.read_text() for tree in ("src", "demos", "perfbench", "tests") for p in sorted((root / tree).rglob("*.py"))
    ]
    loaded = loaded_attributes(sources)
    fields = [f for p in sorted(SRC.glob("*.py")) for f in dataclass_fields(p.read_text(), p.stem)]
    unread = sorted(f for f in fields if f.rsplit(".", 1)[1] not in loaded)
    assert unread == sorted(ALLOWED_UNREAD_FIELDS), f"dataclass fields that nothing reads: {unread}"

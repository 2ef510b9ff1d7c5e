"""Every parameter of every function in src/affprimes is read in its body,
every dataclass field is read somewhere in src, demos, perfbench or tests, and
every dataclass field with a default is set by some constructor call in src,
demos or perfbench."""

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

# 'module.Class.field' with a default kept although no constructor call sets it, each with a one-line reason.
ALLOWED_UNSET_FIELDS = {}


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


def defaulted_fields(source, module):
    """{'module.Class.field': (Class, position)} for each field with a default
    (a value, or field(...) given default or default_factory) of each
    @dataclass class; position counts the class's fields in order."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        for k, s in enumerate(fields):
            v = s.value
            if isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "field":
                v = v if {kw.arg for kw in v.keywords} & {"default", "default_factory"} else None
            if v is not None:
                out[f"{module}.{node.name}.{s.target.id}"] = (node.name, k)
    return out


def set_fields(sources, defaults):
    """The keys of defaults that some call sets: Class(...) or x.Class(...), or
    cls(...) inside Class, with the field's position among its positional
    arguments or its name among its keywords (a *args or **kwargs sets all)."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                name = owner if name == "cls" else name
                keywords = {kw.arg for kw in child.keywords}
                spread = None in keywords or any(isinstance(a, ast.Starred) for a in child.args)
                out.update(key for key, (cls, k) in defaults.items() if cls == name and (
                    spread or k < len(child.args) or key.rsplit(".", 1)[1] in keywords))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for src in sources:
        visit(ast.parse(src), None)
    return out


def test_unset_field_check_flags_an_unset_field():
    src = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: int\n    p: int = 0\n    k: int = 1\n    u: int = 2\n"
        "    l: list = field(default_factory=list)\n    r: int = field(repr=False)\n"
        "    @classmethod\n    def make(cls):\n        return cls(1, l=[])\n"
        "def f():\n    return A(0, 1), m.A(x=0, k=3)\n"
    )
    defaults = defaulted_fields(src, "m")
    assert defaults == {"m.A.p": ("A", 1), "m.A.k": ("A", 2), "m.A.u": ("A", 3), "m.A.l": ("A", 4)}
    assert sorted(set(defaults) - set_fields([src], defaults)) == ["m.A.u"]
    assert set_fields(["A(*args)"], defaults) == set(defaults)


def test_every_defaulted_field_is_set():
    root = SRC.parents[1]
    sources = [p.read_text() for tree in ("src", "demos", "perfbench") for p in sorted((root / tree).rglob("*.py"))]
    defaults = {k: v for p in sorted(SRC.glob("*.py")) for k, v in defaulted_fields(p.read_text(), p.stem).items()}
    unset = sorted(set(defaults) - set_fields(sources, defaults))
    assert unset == sorted(ALLOWED_UNSET_FIELDS), f"dataclass fields with a default that no call sets: {unset}"

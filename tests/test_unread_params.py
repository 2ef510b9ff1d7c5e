"""Every parameter of every function in src/affprimes is read in its body,
every dataclass field is read somewhere in src, demos, perfbench or tests,
every dataclass field with a default is set by some constructor call in src,
demos or perfbench, and every parameter with a default is set by some call in
src, demos, perfbench or the acceptance criteria."""

import ast
import math
from pathlib import Path

import affprimes

SRC = Path(affprimes.__file__).resolve().parent
ROOT = SRC.parents[1]

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

# 'module.function.param' with a default kept although no call in src, demos,
# perfbench or the acceptance criteria sets it, each with a one-line reason.
ALLOWED_UNSET_PARAMS = {}


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
    """{'module.Class.field': (Class, position, default)} for each field with a
    default (a value, or field(...) given default or default_factory) of each
    @dataclass class; position counts the class's fields in order, and default
    is the literal's (type, value), or None for another expression."""
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
                given = {kw.arg: kw.value for kw in v.keywords}
                v = given.get("default", given.get("default_factory"))
            if v is not None:
                out[f"{module}.{node.name}.{s.target.id}"] = (node.name, k, _literal(v))
    return out


def _literal(node):
    """(type, value) of a literal expression, or None for any other expression."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value), value


def _callee(f):
    """The name a call's function expression ends in: f for f(...) or x.f(...)."""
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def set_arguments(sources, defaults):
    """The keys of defaults that some call sets.  defaults maps a key to
    (callable name, position, default): the position among the positional
    arguments (inf for keyword-only) and the default's literal, or None.  A
    call is name(...) or x.name(...), cls(...) inside class name, or
    partial(name, ...); it sets a key by passing its position or its name,
    unless it passes a literal equal to the default (a *args or **kwargs sets
    all)."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name, args = _callee(child.func), child.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                name = owner if name == "cls" else name
                passed = {kw.arg: kw.value for kw in child.keywords}
                spread = None in passed or any(isinstance(a, ast.Starred) for a in args)
                for key, (callee, k, default) in defaults.items():
                    if callee != name:
                        continue
                    value = args[k] if k < len(args) else passed.get(key.rsplit(".", 1)[1])
                    if spread or (value is not None and (default is None or _literal(value) != default)):
                        out.add(key)
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
    assert defaults == {
        "m.A.p": ("A", 1, (int, 0)), "m.A.k": ("A", 2, (int, 1)), "m.A.u": ("A", 3, (int, 2)), "m.A.l": ("A", 4, None),
    }
    assert sorted(set(defaults) - set_arguments([src], defaults)) == ["m.A.u"]
    assert set_arguments(["A(*args)"], defaults) == set(defaults)


def test_every_defaulted_field_is_set():
    root = SRC.parents[1]
    sources = [p.read_text() for tree in ("src", "demos", "perfbench") for p in sorted((root / tree).rglob("*.py"))]
    defaults = {k: v for p in sorted(SRC.glob("*.py")) for k, v in defaulted_fields(p.read_text(), p.stem).items()}
    unset = sorted(set(defaults) - set_arguments(sources, defaults))
    assert unset == sorted(ALLOWED_UNSET_FIELDS), f"dataclass fields with a default that no call sets: {unset}"


def defaulted_parameters(source, module):
    """{'module.Qual.param': (function name, position, default)} for each
    parameter with a default of each function, nested ones included.  position
    counts the positional parameters after a method's self or cls (inf for a
    keyword-only one); default is the literal's (type, value), or None."""
    out = {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = 1 if in_class and not static and positional else 0
                pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for p, d in pairs:
                    k = positional.index(p) - skip if p in positional else math.inf
                    out[f"{prefix}{child.name}.{p.arg}"] = (child.name, k, _literal(d))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), module + ".", False)
    return out


def test_unset_parameter_check_flags_an_unset_parameter():
    src = (
        "import functools\n"
        "def f(a, b=1, c=2.0, *, d=None, e=(1, 2)):\n    def g(x=0):\n        return x\n    return g()\n"
        "class K:\n    def m(self, y=3, z=4):\n        return y\n"
        "    @staticmethod\n    def s(v=5):\n        return v\n"
        "def h(q=6, r=7):\n    return q\n"
    )
    defaults = defaulted_parameters(src, "m")
    assert defaults == {
        "m.f.b": ("f", 1, (int, 1)), "m.f.c": ("f", 2, (float, 2.0)), "m.f.d": ("f", math.inf, (type(None), None)),
        "m.f.e": ("f", math.inf, (tuple, (1, 2))), "m.f.g.x": ("g", 0, (int, 0)),
        "m.K.m.y": ("m", 0, (int, 3)), "m.K.m.z": ("m", 1, (int, 4)), "m.K.s.v": ("s", 0, (int, 5)),
        "m.h.q": ("h", 0, (int, 6)), "m.h.r": ("h", 1, (int, 7)),
    }
    calls = [
        "f(0, 2)",                               # b by position
        "f(0, c=2, e=(1, 2))",                   # c set (int 2 is not float 2.0); e equals its default
        "K().m(3, z=n)",                         # y equals its default; z by keyword
        "functools.partial(g, 1)",               # x through partial
        "s(5)",                                  # equal to the default
        "h(**opts)",                             # a spread sets all
    ]
    assert sorted(set(defaults) - set_arguments(calls, defaults)) == ["m.K.m.y", "m.K.s.v", "m.f.d", "m.f.e"]
    assert set_arguments(["f(*xs)"], defaults) == {k for k, v in defaults.items() if v[0] == "f"}


def test_every_defaulted_parameter_is_set():
    sources = [
        p.read_text()
        for pattern in ("src/**/*.py", "demos/**/*.py", "perfbench/**/*.py", "tests/test_acceptance.py")
        for p in sorted(ROOT.glob(pattern))
    ]
    defaults = {
        k: v for p in sorted(SRC.glob("*.py")) for k, v in defaulted_parameters(p.read_text(), p.stem).items()
        if not k.startswith("cli.cmd_")
    }
    unset = sorted(set(defaults) - set_arguments(sources, defaults))
    assert unset == sorted(ALLOWED_UNSET_PARAMS), f"parameters with a default that no call sets: {unset}"

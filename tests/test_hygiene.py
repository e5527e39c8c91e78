"""Source hygiene checked with `ast`, in place of a linter: every import in
`src/holoww` and `tests` is used, no function imports from a module that its
file already imports from at the top, every top-level definition of
`src/holoww`, and every method or property of its classes, is named
somewhere in the program itself (not only in the tests or the benchmark),
and every defaulted parameter of `src/holoww` is passed by some call, and,
but for `PROGRAM_UNSET`, by some call in the program itself."""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "holoww"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# definitions that only the tests read, each waiting for the program reader
# that ROADMAP.md plans for it
PENDING = {
    "xsharp_norm", "hyp_x_norm", "velocity_masked_hyp_x_norm",  # item 6: X-sharp in every run
    "pos_leakage",  # item 8: the per-run health series
}
# defaulted parameters that no call in the program itself sets, each with why
PROGRAM_UNSET = {
    "main(argv)": "the argparse entry point: the console script passes no argv",
    "xsharp_norm(sigma)": "pending, like xsharp_norm itself",
}


def _imports(nodes):
    """(bound name, line) of every import statement among `nodes`."""
    out = []
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
    return out


def unused_imports(source):
    """Imported names that the module never reads (`__all__` entries count)."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in _imports(ast.walk(tree))
            if name not in used]


def _sources(nodes):
    """Module of every import statement among `nodes`, keyed by line."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            out[node.lineno] = "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            out[node.lineno] = node.names[0].name
    return out


def local_reimports(source):
    """Imports inside functions from a module the file imports at the top."""
    tree = ast.parse(source)
    top = _sources(tree.body)
    return [f"{mod} (line {line})" for line, mod in _sources(ast.walk(tree)).items()
            if line not in top and mod in top.values()]


def named(source):
    """Every name the code reads, imports or spells as a dotted string
    (`"paradiff.para"` names `para`); a definition does not name itself."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                out.update(node.value.split("."))
    return out


def unnamed_definitions(source, names):
    """Top-level functions and classes of `source` absent from `names`, then
    the methods and properties of its classes, as `Class.name` (dunder
    methods are called by the language)."""
    body = ast.parse(source).body
    out = [node.name for node in body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names]
    for cls in (node for node in body if isinstance(node, ast.ClassDef)):
        out += [f"{cls.name}.{f.name}" for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name not in names
                and not (f.name.startswith("__") and f.name.endswith("__"))]
    return out


def defaulted_parameters(source):
    """(function, parameter, call position or None) of every parameter with a
    default; a method's position does not count its `self` or `cls`."""
    tree = ast.parse(source)
    methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(node.name, arg.arg, i - (node in methods))
                    for i, arg in enumerate(positional[first:], first)]
            out += [(node.name, arg.arg, None)
                    for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unset_defaults(source, sources):
    """Defaulted parameters of `source` that no call in `sources` passes.

    A call passes a parameter by keyword or by position; a call with `*args`
    or `**kwargs` passes everything, a call through a subscript (or any
    other expression) passes its keywords to every function, and calls of
    `cls` or of a class name are calls of `__init__`.
    """
    keywords, positions = _call_table(tuple(sources))
    return [f"{name}({param})" for name, param, position in defaulted_parameters(source)
            if not {param, "*"} & (keywords.get(name, set()) | keywords.get(None, set()))
            and (position is None or positions.get(name, 0) <= position)]


@functools.cache
def _call_table(sources):
    """Keywords passed to, and most positionals of, each called name, over
    every call in `sources` (a tuple), built once per set of sources."""
    trees = [ast.parse(s) for s in sources]
    classes = {n.name for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    keywords, positions = {}, {}  # called name (None: any) -> keywords, max positionals
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        name = "__init__" if name == "cls" or name in classes else name
        passed = {k.arg or "*" for k in call.keywords}
        if any(isinstance(a, ast.Starred) for a in call.args):
            passed.add("*")
        keywords.setdefault(name, set()).update(passed)
        positions[name] = max(positions.get(name, 0), len(call.args))
    return keywords, positions


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_function_local_reimports(path):
    assert local_reimports(path.read_text()) == []


def test_every_top_level_definition_is_named():
    names = set()
    for path in [*MODULES, *TESTS, *(ROOT / "perfbench").rglob("*.py")]:
        names |= named(path.read_text())
    dead = {path.name: unnamed_definitions(path.read_text(), names) for path in MODULES}
    assert {name: defs for name, defs in dead.items() if defs} == {}


def test_no_definition_is_reached_only_from_tests():
    # a pending name that gains a program reader must leave PENDING
    names = set().union(*(named(path.read_text()) for path in MODULES))
    test_only = {d for path in MODULES for d in unnamed_definitions(path.read_text(), names)}
    assert test_only == PENDING


def test_every_default_parameter_is_set():
    sources = [p.read_text() for p in [*MODULES, *TESTS, *(ROOT / "perfbench").rglob("*.py")]]
    unset = {p.name: unset_defaults(p.read_text(), sources) for p in MODULES}
    assert {name: params for name, params in unset.items() if params} == {}


def test_program_sets_its_own_options():
    # an option that only the tests or the benchmark set is a test-only surface
    sources = [p.read_text() for p in MODULES]
    unset = {d for p in MODULES for d in unset_defaults(p.read_text(), sources)}
    assert unset == set(PROGRAM_UNSET)


def test_checkers_flag_what_they_should():
    source = ("import os\nfrom .grid import Field\n\n\ndef f():\n"
              "    from .grid import frac_deriv\n    return Field, frac_deriv\n")
    assert unused_imports(source) == ["os (line 1)"]
    assert local_reimports(source) == [".grid (line 6)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    source = "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\nclass C:\n    pass\n"
    assert unnamed_definitions(source, named(source)) == ["f", "C"]
    source = ("class C:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n    def unread(self):\n        pass\n\n"
              "    @property\n    def unread_property(self):\n        return 0\n\n\nC()\n")
    assert unnamed_definitions(source, named(source)) == ["C.unread", "C.unread_property"]
    assert named("x = 'mod.g'\ny = 'not a name'\n") == {"x", "y", "mod", "g"}
    source = ("def f(a, b=1, c=2, d=3):\n    pass\n\n\nclass C:\n"
              "    def __init__(self, x=0, y=1):\n        pass\n\n"
              "    def m(self, z=0):\n        pass\n\n\n"
              "f(0, 1, d=4)\nC(5)\nTABLE['k'](y=2)\nc.m(*args)\n")
    assert unset_defaults(source, [source]) == ["f(c)"]

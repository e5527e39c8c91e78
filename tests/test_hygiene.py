"""Source hygiene checked with `ast`, in place of a linter: every import in
`src/holoww` and `tests` is used, no function imports from a module that its
file already imports from at the top, every top-level definition of
`src/holoww`, and every method or property of its classes, is named
somewhere in the program itself (not only in the tests or the benchmark),
and every defaulted parameter of `src/holoww` is passed by some call, and,
but for `PROGRAM_UNSET`, by some call in the program itself, and not as one
and the same literal by every call in the program.  Every name that the
benchmark in `perfbench/` looks up in the program resolves, but for the
span names listed in `STALE_SPANS`."""

import ast
import functools
import importlib
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
    "xsharp_norm",  # item 6: X-sharp in every run
    "pos_leakage",  # item 7: the per-run health series
}
# what perfbench/workloads.py calls in the program, beside the names that
# perfbench/tracer.py wraps (read from its MODULES, CLASS_INITS and METHODS)
BENCH_CALLS = ("runner.RunConfig.parse", "runner.RunConfig.grid",
               "runner.RunConfig.initial_state", "runner.simulate",
               "dynamics.load_state", "suites.verify")
# span names that perfbench/run.py reads and the program no longer defines, each
# waiting for ROADMAP item 1 (the `[benchmark]` change); each adds 0 to its metric
STALE_SPANS = {
    "lp.highpass_symbol",  # item 1: SYMBOLS; a window the program dropped earlier
    "lp.band_low_symbol",  # item 1: SYMBOLS; now `below` of lp.band_symbol
    "lp.band_high_symbol",  # item 1: SYMBOLS; now `above` of lp.band_symbol
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
    """(function, parameter, call position or None, default) of every
    parameter with a default; a method's position does not count its `self`
    or `cls`."""
    tree = ast.parse(source)
    methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(node.name, arg.arg, i - (node in methods), d)
                    for i, (arg, d) in enumerate(zip(positional[first:], args.defaults), first)]
            out += [(node.name, arg.arg, None, d)
                    for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unset_defaults(source, sources):
    """Defaulted parameters of `source` that no call in `sources` passes.

    A call passes a parameter by keyword or by position; a named call with
    `*args` or `**kwargs` passes everything, a call through a subscript (or
    any other expression) passes the keywords it names to every function and
    nothing by `*args` or `**kwargs`, and calls of `cls` or of a class name
    are calls of `__init__`.
    """
    keywords, positions = {}, {}  # called name (None: any) -> keywords, max positionals
    for name, args, kwargs in _calls(tuple(sources)):
        keywords.setdefault(name, set()).update(k for k in kwargs if name is not None or k != "*")
        positions[name] = max(positions.get(name, 0), len(args))
    return [f"{name}({param})" for name, param, position, _ in defaulted_parameters(source)
            if not {param, "*"} & (keywords.get(name, set()) | keywords.get(None, set()))
            and (position is None or positions.get(name, 0) <= position)]


def _literal(node):
    """repr of the literal `node` spells, or None for any other expression."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def single_valued_defaults(source, sources):
    """Defaulted parameters of `source` that some call in `sources` passes and
    that every call passes as one and the same literal.  A call that leaves
    the parameter out passes its default; calls are matched as in
    `unset_defaults`, and one through an expression counts where it names
    the parameter."""
    calls = _calls(tuple(sources))
    out = []
    for name, param, position, default in defaulted_parameters(source):
        values, passed = set(), False
        for called, args, kwargs in calls:
            if called != name and (called is not None or param not in kwargs):
                continue
            if "*" in kwargs:
                node = None  # may pass anything
            elif param in kwargs:
                node = kwargs[param]
            elif position is not None and position < len(args):
                node = args[position]
            else:
                values.add(_literal(default))
                continue
            passed = True
            values.add(None if node is None else _literal(node))
        if passed and len(values) == 1 and None not in values:
            out.append(f"{name}({param})")
    return out


@functools.cache
def _calls(sources):
    """Every call in `sources` (a tuple), parsed once per set of sources, as
    (called name, positional arguments, keyword arguments by name, with "*"
    for `*args` or `**kwargs`).  Calls of `cls` or of a class name are calls
    of `__init__`; a call through any other expression has the name None."""
    trees = [ast.parse(s) for s in sources]
    classes = {n.name for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    out = []
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        name = "__init__" if name == "cls" or name in classes else name
        kwargs = {k.arg or "*": k.value for k in call.keywords}
        if any(isinstance(a, ast.Starred) for a in call.args):
            kwargs["*"] = None
        out.append((name, call.args, kwargs))
    return out


def tracer_names():
    """The dotted names `perfbench/tracer.py` looks up in `holoww`: its
    modules, then `module.Class` and `module.Class.method`."""
    wanted = ("MODULES", "CLASS_INITS", "METHODS")
    found = {t.id: ast.literal_eval(node.value)
             for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text()).body
             if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name) and t.id in wanted}
    assert set(found) == set(wanted)
    return [*found["MODULES"], *(".".join(n) for n in found["CLASS_INITS"] + found["METHODS"])]


def span_names():
    """The span names `perfbench/run.py` reads: its `SYMBOLS`, the values of
    its `SAMPLED`, and the literal arguments of `sp.count`, `sp.total` and
    `sp.under`."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    found = {t.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name) and t.id in ("SYMBOLS", "SAMPLED")}
    calls = [arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "sp"
             and node.func.attr in ("count", "total", "under")
             for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return [*found["SYMBOLS"], *found["SAMPLED"].values(), *calls]


def unresolved(names):
    """The dotted names `module.attr...` that do not resolve in `holoww`."""
    out = []
    for name in names:
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"holoww.{module}"))
        except (ImportError, AttributeError):
            out.append(name)
    return out


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


def test_no_program_option_has_one_value():
    # an option that every call in the program sets alike is a constant
    sources = [p.read_text() for p in MODULES]
    assert {d for p in MODULES for d in single_valued_defaults(p.read_text(), sources)} == set()


def test_benchmark_names_resolve():
    # the benchmark breaks on a name the program lost; tier-1 skips perfbench/tests
    assert unresolved([*tracer_names(), *BENCH_CALLS]) == []


def test_benchmark_span_names_resolve():
    # a span the program lost makes its per-layer metric read 0 without an
    # error; the stale ones must leave STALE_SPANS when perfbench drops them
    assert set(unresolved(span_names())) == STALE_SPANS


def test_checkers_flag_what_they_should():
    assert unresolved(["grid.GridSpec", "grid.GridSpec.nope", "nope"]) == [
        "grid.GridSpec.nope", "nope"]
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
              "f(0, 1, d=4)\nC(5)\nTABLE['k'](y=2)\nc.m(*args)\nTABLE['k'](*xs)\n")
    assert unset_defaults(source, [source]) == ["f(c)"]
    source = ("def f(a, b=1, c=2, d=3, e=4):\n    pass\n\n\n"
              "f(0, 5, c=x)\nf(1, 5, d=3)\nf(2, b=5, c=2)\n")
    assert single_valued_defaults(source, [source]) == ["f(b)", "f(d)"]

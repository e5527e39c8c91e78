"""Source hygiene checked with `ast`, in place of a linter: every import in
`src/holoww` and `tests` is used, no function imports from a module that its
file already imports from at the top, and every top-level definition of
`src/holoww` is named somewhere in the sources, the tests or the benchmark."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "holoww"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
    """Top-level functions and classes of `source` absent from `names`."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names]


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


def test_checkers_flag_what_they_should():
    source = ("import os\nfrom .grid import Field\n\n\ndef f():\n"
              "    from .grid import frac_deriv\n    return Field, frac_deriv\n")
    assert unused_imports(source) == ["os (line 1)"]
    assert local_reimports(source) == [".grid (line 6)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    source = "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\nclass C:\n    pass\n"
    assert unnamed_definitions(source, named(source)) == ["f", "C"]
    assert named("x = 'mod.g'\ny = 'not a name'\n") == {"x", "y", "mod", "g"}

"""Every function and method defined in symquiv is referenced by name
somewhere in the library, the tests or the benchmark: as a name, as an
attribute, or, in perfbench/tracing.py, as a string naming what the tracer
wraps.  Dunder methods are exempt (Python calls them)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "symquiv").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"


def _defined(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _referenced(source, strings=False):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _all_referenced():
    names = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            names |= _referenced(path.read_text(), strings=path == TRACING)
    return names


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"grassmann.py", "hmod.py", "pimod.py"}
    assert TRACING.exists()


def test_an_unreferenced_function_is_found():
    source = ("class A:\n    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n    def unused(self):\n        pass\n"
              "def wrapped():\n    pass\nTRACED = ('wrapped',)\n")
    for strings, expected in ((False, ["unused", "wrapped"]), (True, ["unused"])):
        referenced = _referenced(source, strings)
        assert sorted(name for name, _ in _defined(source) if name not in referenced) == expected


def test_every_function_is_referenced():
    referenced = _all_referenced()
    unreferenced = [f"{path.name}:{line} {name}" for path in SOURCES
                    for name, line in _defined(path.read_text()) if name not in referenced]
    assert unreferenced == []

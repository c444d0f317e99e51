"""symquiv has no runtime dependencies: every module of the package imports
only the standard library and symquiv itself."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "symquiv").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "grassmann.py", "hmod.py", "pimod.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_symquiv(path):
    foreign = [name for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"symquiv"}]
    assert foreign == []

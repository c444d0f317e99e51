"""Every parameter of every function in symquiv is read in its body;
`self` and `_`-prefixed names are exempt."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "symquiv").glob("*.py"))


def _unread_parameters(source):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for name in params:
            if name != "self" and not name.startswith("_") and name not in read:
                yield f"{getattr(node, 'name', '<lambda>')}:{node.lineno} {name}"


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "grassmann.py", "hmod.py", "pimod.py"}


def test_an_unread_parameter_is_found():
    source = "def f(self, field, a, _b, *args, **kw):\n    return lambda x: a + args[0]\n"
    assert list(_unread_parameters(source)) == ["f:1 field", "f:1 kw", "<lambda>:2 x"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert list(_unread_parameters(path.read_text())) == []

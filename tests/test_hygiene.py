"""Source hygiene of the curveext package, checked with the standard ast
module: every import is used, and every function reads each of its
parameters.  `self`, `cls` and names starting with `_` are exempt."""

import ast
import importlib.resources as importlib_resources
from pathlib import Path

import pytest

SRC = Path(importlib_resources.files("curveext"))
MODULES = sorted(SRC.glob("*.py"))
EXEMPT = {"self", "cls"}


def _loaded_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree):
    used = _loaded_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append(name)
    return out


def unused_parameters(tree):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        used = set().union(*(_loaded_names(stmt) for stmt in node.body))
        out += [f"{node.name}({p.arg})" for p in params
                if p.arg not in EXEMPT and not p.arg.startswith("_")
                and p.arg not in used]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_parameters(path):
    assert unused_parameters(ast.parse(path.read_text())) == []


def test_scan_catches_both_kinds():
    tree = ast.parse("import os\nfrom a import b as c\n"
                     "def f(x, y, *args, _z=1, **kw):\n    return x + kw['k']\n"
                     "class K:\n    def m(self, cls, v):\n        return 0\n")
    assert unused_imports(tree) == ["os", "c"]
    assert unused_parameters(tree) == ["f(y)", "f(args)", "m(v)"]

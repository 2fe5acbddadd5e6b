"""Source hygiene of the curveext package, checked with the standard ast
module: every import is used, every function reads each of its
parameters, every defaulted parameter of a public function is passed by
some call in the package, its tests or its benchmark (and, but for a few
kept for a stated reason, by one in the package or its benchmark: an
option only tests set is a knob no run turns), and every dataclass
field and public method or property is read there by name.  `self`, `cls`
and names starting with `_` are exempt.  The package's net code lines
stay within the baseline that ROADMAP.md tracks, and importing it leaves
scipy.integrate unloaded."""

import ast
import importlib.resources as importlib_resources
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(importlib_resources.files("curveext"))
MODULES = sorted(SRC.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
PROGRAM = MODULES + sorted((REPO / "bench").glob("*.py"))
CALLERS = PROGRAM + sorted((REPO / "tests").glob("*.py"))
EXEMPT = {"self", "cls"}
# net code lines of the package (non-blank, not starting with `#`,
# docstrings counted): the baseline the design work measures against
NET_LINES_BASELINE = 2799
# Kept settable although no caller sets them (none at present).
KEPT_DEFAULTS = set()
# Defaulted parameters that only tests set, and why each is kept.
TEST_SET_DEFAULTS = {
    "build_rule(nodes_per_wavelength)": "build_rule is build_rules for one "
    "piece, with its signature; the program sets all three on build_rules",
    "build_rule(grade_points)": "as build_rule(nodes_per_wavelength)",
    "class_distance(model)": "the distance to a monomial class, which the "
    "curve tests measure for finite-type normal forms",
    "main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "mollified_sup(candidates)": "tests pin the sup at chosen centres",
    "mollified_slope(candidates)": "criterion 5 pins the slope at chosen centres",
    "multilinear_l2(nodes_per_wavelength)": "a starved rule must fail the "
    "corner check, which the default rule never does",
}
# Kept although nothing reads them yet: the report values a run is to
# state (the terms of the multilinear L^q chain), which result files do
# not carry yet.
KEPT_MEMBERS = {"MultilinearLqResult.l2_plancherel", "MultilinearLqResult.mollified",
                "MultilinearLqResult.linf"}


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


def _passed(trees):
    """Callee name -> (keywords passed, most positional arguments passed);
    a `**` argument counts as every keyword, a `*` one as any position."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords, npos = out.get(name, (set(), 0))
            keywords |= {k.arg for k in node.keywords}
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = math.inf
            out[name] = (keywords, max(npos, len(node.args)))
    return out


def unset_defaults(defs, calls):
    """Defaulted parameters of the public functions and methods in `defs`
    that no call in `calls` passes, by keyword or by position.  Calls are
    matched to definitions by name alone."""
    passed = _passed(calls)
    out = []
    for tree in defs:
        scopes = [(tree, 0)] + [(c, 1) for c in ast.walk(tree)
                                if isinstance(c, ast.ClassDef)]
        for scope, bound in scopes:
            for node in scope.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_")):
                    continue
                shift = bound and not any(
                    getattr(dec, "id", None) == "staticmethod"
                    for dec in node.decorator_list)
                a = node.args
                pos = a.posonlyargs + a.args
                cands = [(i - shift, p) for i, p in enumerate(pos)
                         if i >= len(pos) - len(a.defaults)]
                cands += [(math.inf, p) for p, dflt
                          in zip(a.kwonlyargs, a.kw_defaults) if dflt is not None]
                keywords, npos = passed.get(node.name, (set(), 0))
                out += [f"{node.name}({p.arg})" for i, p in cands
                        if not p.arg.startswith("_")
                        and p.arg not in KEPT_DEFAULTS
                        and p.arg not in keywords and None not in keywords
                        and npos <= i]
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


def test_every_default_is_set_by_some_call():
    calls = [ast.parse(p.read_text()) for p in CALLERS]
    assert unset_defaults([ast.parse(p.read_text()) for p in MODULES],
                          calls) == []


def test_every_default_is_set_by_the_program():
    calls = [ast.parse(p.read_text()) for p in PROGRAM]
    assert sorted(unset_defaults([ast.parse(p.read_text()) for p in MODULES],
                                 calls)) == sorted(TEST_SET_DEFAULTS)


def test_default_scan_matches_by_keyword_position_and_star():
    defs = ast.parse(
        "def f(x, y=1, *, z=2, npw=3, _p=4):\n    pass\n"
        "def g(u=1, v=2):\n    pass\n"
        "def _h(w=1):\n    pass\n"
        "class K:\n"
        "    def m(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n"
        "    def s(c=1):\n        pass\n"
        "    def __init__(self, e=0):\n        pass\n")
    assert unset_defaults([defs], [ast.parse("")]) == [
        "f(y)", "f(z)", "f(npw)", "g(u)", "g(v)", "m(a)", "m(b)", "s(c)"]
    calls = ast.parse("f(0, 5)\nobj.f(z=3)\ng(**opts)\nK().m(1)\n"
                      "K.s(*args)\n")
    assert unset_defaults([defs], [calls]) == ["f(npw)", "m(b)"]


def _is_dataclass(cls):
    return any("dataclass" in (getattr(dec, "id", None),
                               getattr(getattr(dec, "func", None), "id", None))
               for dec in cls.decorator_list)


def members(tree):
    """(class, name) of each dataclass field and public method or property."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.AnnAssign) and _is_dataclass(cls)
                    and isinstance(node.target, ast.Name)):
                out.append((cls.name, node.target.id))
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")):
                out.append((cls.name, node.name))
    return out


class _Reads(ast.NodeVisitor):
    """Attribute reads as (class, name): through `self` they belong to the
    enclosing class, through any other receiver to every class (None)."""

    def __init__(self):
        self.reads, self.owner = set(), None

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            owner = self.owner if getattr(node.value, "id", None) == "self" else None
            self.reads.add((owner, node.attr))
        self.generic_visit(node)


def unread_members(defs, calls):
    """Members of the classes in `defs` that no attribute read in `calls`
    names; reads are matched to members by name alone, except that a read
    through `self` counts only for the class it is written in."""
    visitor = _Reads()
    for tree in calls:
        visitor.visit(tree)
    return [f"{cls}.{name}" for tree in defs for cls, name in members(tree)
            if not {(None, name), (cls, name)} & visitor.reads
            and f"{cls}.{name}" not in KEPT_MEMBERS]


def test_every_member_is_read():
    calls = [ast.parse(p.read_text()) for p in CALLERS]
    assert unread_members([ast.parse(p.read_text()) for p in MODULES],
                          calls) == []


def test_member_scan_matches_self_reads_to_their_class():
    defs = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n    y: int = 0\n    z: int = 0\n"
        "    def used(self):\n        return self.x\n"
        "    def unused(self):\n        return 0\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    def _private(self):\n        pass\n"
        "class B:\n"
        "    n: int\n"
        "    def m(self):\n        return self.z\n")
    calls = ast.parse("a.used()\nb.prop\n")
    assert unread_members([defs], [defs, calls]) == [
        "A.y", "A.z", "A.unused", "B.m"]
    assert unread_members([defs], [defs, calls, ast.parse("c.z\n")]) == [
        "A.y", "A.unused", "B.m"]


def net_lines(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("#"))


def test_net_code_lines_within_baseline():
    assert net_lines("x = 1\n\n    # note\n  y = 2  # tail\n") == 2
    total = sum(net_lines(p.read_text()) for p in MODULES)
    assert total <= NET_LINES_BASELINE, f"{total} net lines in src/curveext"


def test_package_import_leaves_out_scipy_integrate():
    # curves.ik_recursion imports it when called: loaded with the package,
    # it would add to the start-up of every run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, curveext.lab, curveext.decomposition; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

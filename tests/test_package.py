"""Package surface: each module's ``__all__`` lists its public names,
every public name has a caller, and the source keeps its tooling rules."""

import ast
import functools
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# public names kept without a caller in the package or the bench: the
# correctness claims on tolerance per unit time and on time reversal
# rest on them
KEPT_WITHOUT_CALLER = {"evolve_timedep", "reverse_schedule"}

MODULES = ("lattice", "spectral", "evolve", "protocols", "crab", "routing",
           "cli", "acceptance")


def _public_top_level(module):
    """Functions, classes and constants a module defines, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_names(name):
    module = importlib.import_module(f"clsnet.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == _public_top_level(module)


@functools.cache
def _references():
    """How often each name is read in ``src/clsnet`` and ``bench/``: as
    a loaded name, an attribute or a string (getattr-style patch
    targets), not counting definitions and ``__all__`` lists."""
    seen = Counter()
    files = sorted((ROOT / "src" / "clsnet").glob("*.py")) + \
        sorted((ROOT / "bench").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text())
        listed = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)
                  for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen[node.value] += 1
    return seen


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_caller(name):
    module = importlib.import_module(f"clsnet.{name}")
    seen = _references()
    unused = {n for n in module.__all__ if not seen[n]} - KEPT_WITHOUT_CALLER
    assert not unused


# parameters kept unread: bench/ passes them positionally
UNREAD_KEPT = {("extract_star", "H"), ("timeline_schedule", "graph")}


def _is_stub(fn):
    """Body is a docstring at most and a raise of NotImplementedError."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr) and
                                       isinstance(s.value, ast.Constant))]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and \
        "NotImplementedError" in ast.unparse(body[0])


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "clsnet").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        functions += [m for c in tree.body if isinstance(c, ast.ClassDef)
                      for m in c.body if isinstance(m, ast.FunctionDef)]
        for fn in functions:
            if _is_stub(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(fn.name, p) for p in params
                       if p not in read and p not in ("self", "cls")]
    assert set(unread) == UNREAD_KEPT, sorted(set(unread) ^ UNREAD_KEPT)


def _source_trees():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "clsnet").glob("*.py"))]


def test_no_assert_statements():
    # python -O strips them, so a check must raise on its own
    found = [(name, node.lineno) for name, tree in _source_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_runtime_imports_only_stdlib_and_numpy():
    # scipy and hypothesis stay test-only
    allowed = set(sys.stdlib_module_names) | {"numpy", "clsnet"}
    foreign = []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [(name, r) for r in roots if r not in allowed]
    assert not foreign

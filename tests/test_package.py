"""Package surface: each module's ``__all__`` lists its public names."""

import ast
import importlib
import inspect

import pytest

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

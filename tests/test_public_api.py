"""Every exported name resolves, so a deletion cannot leave a dangling
entry in ``__all__`` or in the package namespace behind."""

import ast
import importlib
from pathlib import Path

import pytest

import anisodnl

MODULES = ("model", "discretization", "solver", "analysis", "presets")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"anisodnl.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(anisodnl.__file__).read_text())
    imported = [(node.module, alias.asname or alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{n}" for mod, n in imported
               if not hasattr(anisodnl, n)]
    assert missing == []
    # a name dropped from its module's __all__ must leave the package too
    unexported = [
        f"{mod}.{n}" for mod, n in imported
        if n not in importlib.import_module(f"anisodnl.{mod}").__all__]
    assert unexported == []


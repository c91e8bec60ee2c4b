"""Every name a module of oadiag lists in __all__ must resolve in it, and
every name it imports must be used in it or listed in its __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oadiag

MODULES = ["oadiag"] + [f"oadiag.{info.name}" for info in pkgutil.iter_modules(oadiag.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - set(getattr(module, "__all__", [])) == set()

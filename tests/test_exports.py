"""Every name a module of oadiag lists in __all__ must resolve in it."""

import importlib
import pkgutil

import pytest

import oadiag

MODULES = ["oadiag"] + [f"oadiag.{info.name}" for info in pkgutil.iter_modules(oadiag.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []

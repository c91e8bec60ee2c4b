"""oadiag calls numpy's reductions as the ufunc methods that numpy's Python
wrappers call: np.maximum.reduce for np.max and ndarray.max, np.add.reduce
for np.sum and ndarray.sum, np.logical_and.reduce and np.logical_or.reduce
for all and any.  The same reduction with the same arguments gives the same
bits, without the wrappers' Python cost on every call of a hot loop.  So
none of the wrappers below appears anywhere in src/oadiag."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oadiag

MODULES = ["oadiag"] + [f"oadiag.{info.name}" for info in pkgutil.iter_modules(oadiag.__path__)]
# np.<name>(...) and <array>.<name>(...)
REDUCTIONS = {"max", "min", "sum", "any", "all"}
# np.<name>(...): Python-level helpers with a direct equivalent (np.asarray and
# a reshape, an elementwise == reduced, plain integer indexing)
HELPERS = {"atleast_1d", "array_equal", "take_along_axis"}


def wrapper_calls(source: str):
    """(line, call) of every reduction or helper wrapper called in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            on_numpy = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            if name in REDUCTIONS or (on_numpy and name in HELPERS):
                found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_wrapper_calls_are_found():
    source = "np.max(a)\na.sum(axis=1)\nnp.atleast_1d(b)\nnp.maximum.reduce(a)\nmax(a, b)\n"
    assert wrapper_calls(source) == [(1, "np.max"), (2, "a.sum"), (3, "np.atleast_1d")]


@pytest.mark.parametrize("name", MODULES)
def test_reductions_are_called_as_ufunc_methods(name):
    module = importlib.import_module(name)
    assert wrapper_calls(Path(module.__file__).read_text()) == []

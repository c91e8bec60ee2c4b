"""Reach or retire: every function and method defined in oadiag is called by
one of the six commands, or is named in KEPT with the reason it stays."""

import ast
import json
import os
import sys
from pathlib import Path

import pytest

import oadiag
from oadiag import cli

SRC = Path(oadiag.__file__).resolve().parent

# Defined in oadiag but called by no command, each kept for the reason given;
# exactly these are unreached, so a name leaves the list once a command calls it.
KEPT = {
    # the reference that test_pieces_are_the_rademacher_average ties the
    # averaging pieces to, with the independent evaluation it is checked by
    "rademacher.GeneralizedRademacher.__post_init__",
    "rademacher.GeneralizedRademacher.eval",
    "rademacher.GeneralizedRademacher.eval_recursive",
    "rademacher._as_fraction",
    # the dual form of a diagonal tensor, on its own (ROADMAP item 4)
    "diagonal.build_dual_form",
    # the checked pairing of a tensor with a polynomial; pi_lower_bound pairs
    # its scaled coefficient array through diagonal._pairing, which pair calls
    "diagonal.pair",
    # the averaging decomposition as one array of k^n pieces (the north star)
    "diagonal.averaging_decomposition",
    # wrapped by name by benchmark/layers.py
    "oapoly.MultilinearForm.apply",
    "oapoly.MultilinearForm.partial_gradient",
    "oapoly.MultilinearForm._checked_vectors",
    # called once, at import, to build _CORNERS
    "oapoly._face_corners",
    # public one-value forms of numerics._phases and numerics._phase_roots,
    # the loops the commands run over whole coefficient lists
    "numerics.phase",
    "numerics.phase_root",
}


def _defined_functions():
    """{(source file, first line of the code object): module.qualified name}
    for every def in the package, nested ones included."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def _commands(tmp):
    """Argument vectors running all six commands on small inputs, in both
    regimes (k < p and p <= k) where the command admits both, through
    --coeffs-file, --config, --out, --format csv, --tol and --timing, and
    once into the piece budget."""
    (tmp / "coeffs.json").write_text(json.dumps([1, "2-1i", "3i"]))
    (tmp / "sweep.json").write_text(json.dumps({"k": 3, "p": 2.0, "n": 2, "trials": 1}))
    return [
        ["verify-rademacher", "--k", "2", "--depth", "2", "--format", "csv"],
        ["pi-norm", "--k", "2", "--p", "4", "--coeffs", "1,-2"],
        ["pi-norm", "--k", "3", "--p", "2", "--coeffs-file", str(tmp / "coeffs.json")],
        ["pi-norm", "--k", "2", "--p", "4", "--coeffs", ",".join(["1"] * 25)],
        ["oa-norm", "--k", "2", "--p", "4", "--coeffs", "1,2", "--out", str(tmp / "oa.json")],
        ["oa-norm", "--k", "3", "--p", "2", "--coeffs=1,2-1i,3i"],
        ["additivity-test", "--k", "2", "--p", "4", "--n", "3", "--trials", "2",
         "--tol", "additivity_behavioral=1e-10"],
        ["additivity-test", "--k", "3", "--p", "2", "--n", "3", "--trials", "2"],
        ["zalduendo-check", "--k", "2", "--p", "3", "--n", "2", "--trials", "1", "--timing"],
        ["zalduendo-check", "--k", "3", "--p", "4", "--n", "3", "--trials", "1"],
        ["sweep", "--k", "2", "--n", "2", "--trials", "1"],
        ["sweep", "--config", str(tmp / "sweep.json")],
    ]


def test_every_function_is_reached_or_kept(tmp_path, monkeypatch, capsys):
    for name, module in list(sys.modules.items()):
        for value in vars(module).values() if name.startswith("oadiag.") else ():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached call would hide its function
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    monkeypatch.setattr(sys, "argv", ["oadiag", "verify-rademacher", "--k", "2", "--depth", "1"])
    codes = []
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in _commands(tmp_path):
            codes.append(cli.main(argv))
        with pytest.raises(SystemExit) as entry:
            cli.entry_point()
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    assert codes == [0] * 3 + [3] + [0] * 8 and entry.value.code == 0

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    defined = _defined_functions()
    unreached = {name for key, name in defined.items() if key not in reached}
    assert (unreached - KEPT, KEPT - unreached) == (set(), set())

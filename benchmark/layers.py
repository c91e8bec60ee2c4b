"""Outside-in tracing of the oadiag layers.

Each public function below is replaced, in every ``oadiag`` module namespace
that binds it, by a wrapper that counts its calls and, for timed functions,
records a span.  A span's self time is its duration minus the spans of the
wrapped functions it called.  Spans are aggregated in memory per function;
nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

MODULES = ("numerics", "rademacher", "diagonal", "oapoly", "experiments", "cli")

# (defining module, attribute or Class.method, metric stem, timed).
# Counted-only functions are called thousands of times per op; timing them
# would cost more than the work they do.
SPANS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("cli", "main", "cli.main", True),
    ("experiments", "results_to_json", "cli.serialize", True),
    ("experiments", "run_command", "experiments.run_command", True),
    ("diagonal", "averaging_decomposition", "diagonal.averaging_decomposition", True),
    ("diagonal", "dense_expansion", "diagonal.dense_expansion", True),
    ("diagonal", "pi_upper_bound", "diagonal.pi_upper_bound", True),
    ("diagonal", "pi_lower_bound", "diagonal.pi_lower_bound", True),
    ("oapoly", "norm_numeric", "oapoly.norm_numeric", True),
    ("oapoly", "is_orthogonally_additive", "oapoly.additivity", True),
    ("oapoly", "norm_witness", "oapoly.norm_witness", True),
    ("oapoly", "multilinear_norm_ascent", "oapoly.ascent", True),
    ("oapoly", "multilinear_norm_grid", "oapoly.grid", True),
    ("oapoly", "MultilinearForm.symmetrize", "oapoly.symmetrize", True),
    ("oapoly", "MultilinearForm.partial_gradient", "oapoly.partial_gradient", False),
    ("oapoly", "MultilinearForm.apply", "oapoly.form_apply", False),
    ("numerics", "ensure_finite", "numerics.ensure_finite", False),
    ("numerics", "lq_norm", "numerics.lq_norm", True),
    ("rademacher", "integrate_product", "rademacher.integrate_product", True),
)

# The self time of these spans is the layer's own time.
SELF_METRICS = {"cli.main": "cli.self", "experiments.run_command": "experiments.self"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self._children: List[List[float]] = []
        self._installed: List[Tuple[object, str, object]] = []

    def timed(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                self_s[name] += span - child[0]
                if stack:
                    stack[-1][0] += span
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every function of SPANS wherever an oadiag module binds it."""
        modules = [importlib.import_module("oadiag")]
        modules += [importlib.import_module(f"oadiag.{m}") for m in MODULES]
        for home, attr, name, timed in SPANS:
            owner = importlib.import_module(f"oadiag.{home}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = (self.timed if timed else self.counted)(name, original)
            for target in targets:
                if target.__dict__.get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._installed.append((target, attr, original))

    def uninstall(self) -> None:
        """Put back every function install() replaced."""
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    def metrics(self, ops: int) -> Dict[str, float]:
        """Per-op self milliseconds and call counts, named as in BENCHMARK.json."""
        out: Dict[str, float] = {}
        for _, _, name, timed in SPANS:
            stem = SELF_METRICS.get(name, name)
            if timed:
                out[f"{stem}_ms"] = self.self_s[name] * 1e3 / ops
            out[f"{name}_calls"] = self.calls[name] / ops
        return out

"""Seeded, reproducible verification runs behind the CLI.

Every command produces a list of result records, each carrying the
parameters needed to re-run that single case, the computed values, the
deviations against the relevant closed forms, and per-tolerance pass flags.
Identical configurations (including the seed) produce identical records;
wall-clock timings are only attached when explicitly requested so that
output files stay byte-reproducible.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagonal import (
    DiagonalTensor,
    factored_expansion,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
)
from .numerics import MAX_CASES, LpParams, Scalar, _power_of_two_below, check_budget
from .oapoly import (
    MultilinearForm,
    OrthAddPolynomial,
    _norms_numeric,
    diagonal_of_multilinear,
    extend_diagonal_functional,
    is_orthogonally_additive,
    multilinear_norm_ascent,
    multilinear_norm_grid,
    norm_closed_form,
    norm_numeric,
    norm_witness,
)
from .rademacher import integrate_product, integrate_product_bruteforce

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "DEFAULT_TOLERANCES",
    "run_command",
    "results_to_json",
    "results_to_csv",
    "format_scalar",
    "parse_scalar",
]

DEFAULT_TOLERANCES: Dict[str, float] = {
    "rademacher": 0.0,
    "reconstruction": 1e-12,
    "sandwich": 1e-10,
    "sandwich_l1": 1e-12,
    "isometry": 1e-6,
    "witness": 1e-12,
    "additivity_structural": 1e-12,
    "additivity_behavioral": 1e-10,
    "zalduendo": 1e-6,
    "grid_agreement": 1e-4,
}

SWEEP_DEFAULT_KS = (2, 3)
SWEEP_DEFAULT_NS = (2, 4, 8)
# Trials of one sweep group whose ascents run in one batch: the arrays stay
# a few kB whatever the trial count.
SWEEP_ASCENT_BATCH = 64


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


def format_scalar(z: Scalar) -> str:
    """re+imi literal with lossless float reprs."""
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_scalar(text: str) -> complex:
    """Parse a real or re+imi complex literal; NaN and Inf are rejected."""
    cleaned = text.strip().replace(" ", "")
    try:
        value = complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse coefficient {text!r}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"coefficient {text!r} is not finite")
    return value


@dataclass
class ExperimentConfig:
    command: str
    k: Optional[int] = None
    p: Optional[float] = None
    n: Optional[int] = None
    seed: int = 0
    trials: int = 50
    depth: int = 3
    coeffs: Optional[List[complex]] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    out: Optional[str] = None
    format: str = "json"
    workers: int = 1
    timing: bool = False
    inject_failure: bool = False
    restarts: int = 20
    iters: int = 500

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.restarts < 1 or self.iters < 1:
            raise ConfigError("restarts and iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if not 0 <= self.tolerances[name] <= sys.float_info.max:
                raise ConfigError(f"tolerance {name} must be finite and >= 0")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.p is not None and not 1 <= self.p <= sys.float_info.max:
            raise ConfigError("p must satisfy 1 <= p < inf")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        needs_params = {"pi-norm", "oa-norm", "additivity-test", "zalduendo-check"}
        if self.command in needs_params:
            if self.k is None or self.p is None:
                raise ConfigError(f"{self.command} requires --k and --p")
            LpParams(self.p, self.k)  # reuses the invariant checks
        if self.command == "verify-rademacher" and self.k is None:
            raise ConfigError("verify-rademacher requires --k")
        if self.command in ("pi-norm", "oa-norm") and not self.coeffs:
            raise ConfigError(f"{self.command} requires --coeffs or --coeffs-file")
        # the step functions and diagonal tensors these commands build need k >= 2
        if self.command in ("verify-rademacher", "pi-norm", "sweep") and self.k is not None \
                and self.k < 2:
            raise ConfigError(f"{self.command} requires k >= 2")
        if self.command == "zalduendo-check":
            if self.n is None:
                raise ConfigError("zalduendo-check requires --n")
            if self.n not in (2, 3) or self.k not in (2, 3):
                raise ConfigError("zalduendo-check supports n, k in {2, 3}")
            if not self.k < self.p:
                raise ConfigError("zalduendo-check requires k < p")
        if self.command == "additivity-test" and self.n is None and not self.coeffs:
            raise ConfigError("additivity-test requires --n or --coeffs")

    def coeff_literals(self) -> List[str]:
        """format_scalar of each coefficient, formed once while the
        coefficients stay the same objects: the config echo and the records
        of pi-norm, oa-norm and additivity-test --coeffs share the one list.
        Objects, not values, key it: -0.0 and 0.0 compare equal but format
        apart."""
        coeffs = tuple(self.coeffs)
        known, literals = self.__dict__.get("_literals", ((), None))
        if literals is None or len(known) != len(coeffs) \
                or not all(map(operator.is_, known, coeffs)):
            literals = [format_scalar(z) for z in coeffs]
            self._literals = (coeffs, literals)
        return literals

    def to_dict(self) -> Dict[str, object]:
        """Every field except the output path, with coefficients as literals."""
        doc = {name: getattr(self, name) for name in _ECHOED_FIELDS}
        if self.coeffs is not None:
            doc["coeffs"] = self.coeff_literals()
        doc["tolerances"] = dict(sorted(self.tolerances.items()))
        return doc


# The fields to_dict echoes, in declaration order.
_ECHOED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "out")


def _relative_deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


# One judged check: its deviations and their pass flags, each flag under the
# name of the tolerance that judges it.
Check = Tuple[Dict[str, float], Dict[str, bool]]
Case = Tuple[Dict[str, object], Dict[str, float], Sequence[Check]]
# command, case_index, parameters, values, deviations, passes, passed,
# wall_time_ms, and timings_ms under --timing where the case times its stages
Record = Dict[str, object]


class _Stages:
    """Wall time of the named stages of the running case, in ms, measured
    only when enabled: `with stages("name"): ...` times one stage."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.ms: Dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter() if self.enabled else None
        yield
        if start is not None:
            self.ms[name] = (time.perf_counter() - start) * 1e3


def _run_cases(cfg: ExperimentConfig, count: int,
               case: Callable[[int, _Stages], Case]) -> List[Record]:
    """One record per case index, in index order, as the dict that JSON
    and CSV write.  case(index, stages) returns (parameters, values, checks);
    the record carries the checks' deviations and pass flags in order, and
    passes when all its flags do.  Wall time is measured only under
    cfg.timing, so untimed output stays byte-reproducible; then the stages
    that case timed through `stages` go to timings_ms."""
    check_budget("case", count, "cases", MAX_CASES)
    stages = _Stages(cfg.timing)
    records = []
    for index in range(count):
        start = time.perf_counter() if cfg.timing else None
        stages.ms = {}
        parameters, values, checks = case(index, stages)
        wall_time_ms = None if start is None else (time.perf_counter() - start) * 1e3
        deviations = {name: dev for devs, _ in checks for name, dev in devs.items()}
        passes = {name: ok for _, oks in checks for name, ok in oks.items()}
        record = {"command": cfg.command, "case_index": index, "parameters": parameters,
                  "values": values, "deviations": deviations, "passes": passes,
                  "passed": all(passes.values()), "wall_time_ms": wall_time_ms}
        if stages.ms:
            record["timings_ms"] = stages.ms
        records.append(record)
    return records


def _unravel(index: int, shape: Sequence[int]) -> List[int]:
    """Mixed-radix digits of index, most significant first (itertools.product order)."""
    digits = []
    for size in reversed(shape):
        index, digit = divmod(index, size)
        digits.append(digit)
    return digits[::-1]


# ---------------------------------------------------------------------------
# One check per identity, shared by the commands and sweep
# ---------------------------------------------------------------------------

def _pi_sandwich(cfg: ExperimentConfig, u: DiagonalTensor) -> Tuple[float, float, float, Check]:
    """Closed form, decomposition upper bound and dual lower bound of ||u||_pi,
    and their sandwich check: the larger relative deviation of the bounds from
    the closed form, judged by `sandwich` (by `sandwich_l1`, the exact l_1
    lower bound's, when p <= k).  All three are positively homogeneous, so
    they are formed and judged for u / s, s the power of two at or below
    max|a|, and returned times s: exact in the normal range, and below it no
    modulus is rounded to the subnormal grid first.  A modulus or a norm
    beyond the float range is a configuration error, raised before the
    bounds that follow it are formed."""
    tol = cfg.tol("sandwich") if u.params.k_less_than_p else cfg.tol("sandwich_l1")
    beyond = "the projective norm of these coefficients exceeds the float range"
    top = float(np.maximum.reduce(np.abs(u.coeffs), axis=None, initial=0.0))
    if top == math.inf:
        raise ConfigError(beyond)
    s = _power_of_two_below(top)
    unit = DiagonalTensor(u.coeffs / s, u.params)
    scaled = []
    for norm in (pi_norm_closed_form, pi_upper_bound, pi_lower_bound):
        scaled.append(norm(unit))
        if not math.isfinite(scaled[-1] * s):
            raise ConfigError(beyond)
    closed, upper, lower = scaled
    sandwich = max(_relative_deviation(lower, closed), _relative_deviation(upper, closed))
    return closed * s, upper * s, lower * s, ({"sandwich": sandwich}, {"sandwich": sandwich <= tol})


def _oa_isometry(cfg: ExperimentConfig, poly: OrthAddPolynomial, ascent: Callable[[], float]
                 ) -> Tuple[float, float, float, Check]:
    """Closed form, ascent estimate and witness value of ||poly||, and their
    isometry check: the deviation of each estimate from the closed form,
    judged by the tolerance of its name; ascent() gives the estimate, after
    the closed form.  The zero polynomial has no witness; its value is 0.  A
    norm beyond the float range, or an estimate rounded past it, is a
    configuration error."""
    closed = norm_closed_form(poly)
    numeric = ascent() if math.isfinite(closed) else closed
    if not math.isfinite(numeric):
        raise ConfigError("the polynomial norm of these coefficients exceeds the float range")
    witness_value = norm_witness(poly)[1] if closed != 0.0 else 0.0
    deviations = {"isometry": _relative_deviation(numeric, closed),
                  "witness": _relative_deviation(witness_value, closed)}
    passes = {name: dev <= cfg.tol(name) for name, dev in deviations.items()}
    return closed, numeric, witness_value, (deviations, passes)


def _additivity(cfg: ExperimentConfig, c: np.ndarray, params: LpParams, seed: int) -> Check:
    """Structural and behavioral additivity of the diagonal extension of c,
    and whether the two verdicts agree.  A behavioral defect beyond the
    float range is a configuration error."""
    report = is_orthogonally_additive(
        extend_diagonal_functional(c, params),
        tol_structural=cfg.tol("additivity_structural"),
        tol_behavioral=cfg.tol("additivity_behavioral"),
        seed=seed,
    )
    if not math.isfinite(report.worst_behavioral_defect):
        raise ConfigError("the additivity defect of these coefficients exceeds the float range")
    return ({"additivity_offdiagonal": report.worst_offdiagonal_ratio,
             "additivity_behavioral": report.worst_behavioral_defect},
            {"additivity_structural": report.structural_ok,
             "additivity_behavioral": report.behavioral_ok,
             "additivity_agreement": report.checks_agree})


def _random_coeffs(rng: np.random.Generator, n: int, complex_values: bool) -> np.ndarray:
    c = rng.standard_normal(n)
    if complex_values:
        c = c + 1j * rng.standard_normal(n)
    return c.astype(complex)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_verify_rademacher(cfg: ExperimentConfig) -> List[Record]:
    """Exhaustive product-integral check over all level tuples up to depth."""
    k = cfg.k
    tol = cfg.tol("rademacher")

    def case(index: int, stages: _Stages) -> Case:
        levels = [1 + digit for digit in _unravel(index, (cfg.depth,) * k)]
        rule = integrate_product(levels, k)
        brute = integrate_product_bruteforce(levels, k)
        expected = 1 if len(set(levels)) == 1 else 0
        deviations = {
            "rule_vs_expected": float(abs(rule - expected)),
            "bruteforce_vs_rule": float(abs(brute - rule)),
        }
        return ({"k": k, "levels": levels},
                {"rule": float(rule), "bruteforce": float(brute), "expected": float(expected)},
                [(deviations, {name: dev <= tol for name, dev in deviations.items()})])

    return _run_cases(cfg, cfg.depth ** k, case)


def cmd_pi_norm(cfg: ExperimentConfig) -> List[Record]:
    """Closed form, decomposition upper bound and dual lower bound for one tensor."""

    def case(index: int, stages: _Stages) -> Case:
        u = DiagonalTensor(np.array(cfg.coeffs, dtype=complex), LpParams(cfg.p, cfg.k))
        with stages("pi_sandwich"):
            closed, upper, lower, sandwich = _pi_sandwich(cfg, u)
        return ({"k": cfg.k, "p": cfg.p, "coeffs": cfg.coeff_literals()},
                {"closed_form": closed, "upper_bound": upper, "lower_bound": lower},
                [sandwich])

    return _run_cases(cfg, 1, case)


def cmd_oa_norm(cfg: ExperimentConfig) -> List[Record]:
    """Closed form, witness value and ascent estimate for one polynomial."""

    def case(index: int, stages: _Stages) -> Case:
        poly = OrthAddPolynomial(np.array(cfg.coeffs, dtype=complex), LpParams(cfg.p, cfg.k))
        with stages("oa_isometry"):
            closed, numeric, witness_value, isometry = _oa_isometry(
                cfg, poly, lambda: norm_numeric(poly, cfg.restarts, cfg.iters, cfg.seed))
        return ({"k": cfg.k, "p": cfg.p, "seed": cfg.seed,
                 "restarts": cfg.restarts, "iters": cfg.iters,
                 "coeffs": cfg.coeff_literals(),
                 "witness_defined": closed != 0.0},
                {"closed_form": closed, "witness_value": witness_value,
                 "numeric_estimate": numeric},
                [isometry])

    return _run_cases(cfg, 1, case)


def cmd_additivity(cfg: ExperimentConfig) -> List[Record]:
    """Structural and behavioral additivity checks on diagonal extensions."""
    params = LpParams(cfg.p, cfg.k)

    def case(trial: int, stages: _Stages) -> Case:
        if cfg.coeffs is not None:
            c = np.array(cfg.coeffs, dtype=complex)
            literals = cfg.coeff_literals()
        else:
            rng = np.random.default_rng([cfg.seed, trial])
            c = _random_coeffs(rng, cfg.n, complex_values=trial % 2 == 1)
            literals = [format_scalar(z) for z in c]
        with stages("additivity"):
            additivity = _additivity(cfg, c, params, cfg.seed + trial)
        deviations = additivity[0]
        return ({"k": cfg.k, "p": cfg.p, "n": int(c.shape[0]), "seed": cfg.seed,
                 "trial": trial, "coeffs": literals},
                {"offdiagonal_ratio": deviations["additivity_offdiagonal"],
                 "behavioral_defect": deviations["additivity_behavioral"]},
                [additivity])

    return _run_cases(cfg, cfg.trials if cfg.coeffs is None else 1, case)


def cmd_zalduendo(cfg: ExperimentConfig) -> List[Record]:
    """Diagonal extraction bound against the sup norm of random forms, with
    the ascent estimate judged by the certified enclosure's upper bound.  The
    ascent's value is the enclosure's incumbent, so grid_estimate, the
    enclosure's lower bound, is at least ascent_estimate."""
    params = LpParams(cfg.p, cfg.k)

    def case(trial: int, stages: _Stages) -> Case:
        rng = np.random.default_rng([cfg.seed, trial])
        raw = rng.standard_normal((cfg.n,) * cfg.k)
        form = MultilinearForm(raw.astype(complex), params).symmetrize()
        with stages("ascent"):
            ascent = multilinear_norm_ascent(form, restarts=max(cfg.restarts, 12),
                                             iters=60, seed=cfg.seed + trial)
        with stages("enclosure"):
            lower, upper = multilinear_norm_grid(form, incumbent=ascent)
        _, diag_norm = diagonal_of_multilinear(form)
        agreement = _relative_deviation(ascent, upper)
        excess = max(diag_norm - lower, 0.0)
        return ({"k": cfg.k, "p": cfg.p, "n": cfg.n, "seed": cfg.seed, "trial": trial},
                {"ascent_estimate": ascent, "grid_estimate": lower, "sup_upper": upper,
                 "diagonal_norm": diag_norm,
                 "observed_ratio": diag_norm / lower if lower > 0 else 0.0},
                [({"oracle_agreement": agreement, "diagonal_excess": excess},
                  {"oracle_agreement": agreement <= cfg.tol("grid_agreement"),
                   "diagonal_bound": excess <= cfg.tol("zalduendo")})])

    return _run_cases(cfg, cfg.trials, case)


def cmd_sweep(cfg: ExperimentConfig) -> List[Record]:
    """Grid of seeded random instances running every invariant suite.

    Case indices run in order over k, then p, then n, then trial.  Cases
    run one after another; ``workers`` is accepted and echoed in the config
    but does not change how the sweep runs.

    The trials of one (k, p, n) group are consecutive indices.  Their
    norm_numeric ascents run together, up to SWEEP_ASCENT_BATCH trials in
    one _norms_numeric call, made in the oa_isometry stage of the batch's
    first case; each trial keeps its own starts, seed and certificate
    schedule, so every record is what a call per trial gives.  A batch out
    of budget raises its first failing trial's BudgetError, in the batch's
    first case, where a call per trial raises it in that trial's own case.
    Either way no record is written (exit 3), and the error is the same: a
    case's other budgets depend only on k and n, and the first case's
    reconstruction checks stricter ones than its additivity stage would.
    """
    ks = [cfg.k] if cfg.k is not None else list(SWEEP_DEFAULT_KS)
    ns = [cfg.n] if cfg.n is not None else list(SWEEP_DEFAULT_NS)
    shape = (len(ks), 1 if cfg.p is not None else 2, len(ns), cfg.trials)
    rec_tol = cfg.tol("reconstruction")
    # the coefficients of the running batch's cases, and their ascents'
    # results, by case index
    batch: Dict[int, np.ndarray] = {}
    ascents: Dict[int, float] = {}

    def case(index: int, stages: _Stages) -> Case:
        k_at, p_at, n_at, trial = _unravel(index, shape)
        k, n = ks[k_at], ns[n_at]
        p = float(cfg.p if cfg.p is not None else (k + 1.0, 2.0 * k)[p_at])
        params = LpParams(p, k)
        opens = trial % SWEEP_ASCENT_BATCH == 0
        if opens:
            batch.clear()
            for i in range(index, index + min(SWEEP_ASCENT_BATCH, cfg.trials - trial)):
                rng = np.random.default_rng([cfg.seed, i])
                batch[i] = _random_coeffs(rng, n, complex_values=(trial + i - index) % 2 == 1)
        a = batch[index]

        # rank-one reconstruction of the diagonal tensor
        u = DiagonalTensor(a, params)
        with stages("reconstruction"):
            tensor = factored_expansion(u)
            idx = np.arange(n)
            diag = tensor[tuple([idx] * k)].copy()
            tensor[tuple([idx] * k)] = 0.0
            moduli = np.abs(a)
            off_dev = (float(np.maximum.reduce(np.abs(tensor), axis=None))
                       / max(float(np.add.reduce(moduli, axis=None)), 1e-300))
            diag_dev = (float(np.maximum.reduce(np.abs(diag - a), axis=None))
                        / max(float(np.maximum.reduce(moduli, axis=None)), 1e-300))
        residues = {"reconstruction_offdiagonal": off_dev, "reconstruction_diagonal": diag_dev}
        reconstruction = (residues, {name: dev <= rec_tol for name, dev in residues.items()})

        with stages("pi_sandwich"):
            closed, upper, lower, sandwich = _pi_sandwich(cfg, u)
        # moderate optimizer budget; sweeps stay quick
        with stages("oa_isometry"):
            if opens:
                polys = [OrthAddPolynomial(c, params) for c in batch.values()]
                ascents.update(zip(batch, _norms_numeric(
                    polys, min(cfg.restarts, n + 4), min(cfg.iters, 250),
                    [cfg.seed + i for i in batch])))
            oa_closed, numeric, witness_value, isometry = _oa_isometry(
                cfg, OrthAddPolynomial(a, params), lambda: ascents.pop(index))
        with stages("additivity"):
            additivity = _additivity(cfg, a, params, cfg.seed + index)

        checks = [reconstruction, sandwich, isometry, additivity]
        if cfg.inject_failure and index == 0:
            # fixture for exercising the exit-code contract
            checks.append(({"injected_failure": 1.0}, {"injected_failure": False}))
        return ({"k": k, "p": p, "n": n, "trial": trial, "seed": cfg.seed,
                 "coeffs": [format_scalar(z) for z in a]},
                {"pi_closed_form": closed, "pi_upper_bound": upper, "pi_lower_bound": lower,
                 "oa_closed_form": oa_closed, "oa_numeric": numeric,
                 "oa_witness_value": witness_value},
                checks)

    return _run_cases(cfg, math.prod(shape), case)


COMMANDS: Dict[str, Callable[[ExperimentConfig], List[Record]]] = {
    "verify-rademacher": cmd_verify_rademacher,
    "pi-norm": cmd_pi_norm,
    "oa-norm": cmd_oa_norm,
    "additivity-test": cmd_additivity,
    "zalduendo-check": cmd_zalduendo,
    "sweep": cmd_sweep,
}


def run_command(cfg: ExperimentConfig) -> Tuple[List[Record], Dict[str, object]]:
    cfg.validate()
    records = COMMANDS[cfg.command](cfg)
    failures = sum(1 for r in records if not r["passed"])
    summary: Dict[str, object] = {
        "total": len(records),
        "failures": failures,
        "passed": failures == 0,
    }
    return records, summary


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_float(value: float) -> str:
    """The text json.dumps(value, allow_nan=False) gives a float."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# json.dumps's text for each of json's own scalar types, looked up by
# type(value): a subclass (np.float64, an IntEnum, a str subclass) misses.
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}
_JSON_SCALARS: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
    bool: _JSON_CONSTANTS.__getitem__, type(None): _JSON_CONSTANTS.__getitem__,
}


def _json_text(value: object, indent: str = "") -> str:
    """value written `indent` deep, with the bytes (or the exception type) of
    json.dumps(value, indent=2, allow_nan=False), by one rule: a list, a
    tuple or a dict with str keys recurses, an item of json's own exact
    scalar types is written through _JSON_SCALARS, and any other value goes
    whole to json.dumps, its lines moved `indent` deeper.  JSON text holds
    no raw newline inside a string, so that move is exact."""
    inner = indent + "  "
    try:
        if isinstance(value, (list, tuple)):
            pieces = [text(item) if (text := _JSON_SCALARS.get(type(item)))
                      else _json_text(item, inner) for item in value]
            brackets = "[]"
        elif isinstance(value, dict):
            # encode_basestring_ascii raises TypeError on a key that is not a str
            pieces = [encode_basestring_ascii(key) + ": "
                      + (text(item) if (text := _JSON_SCALARS.get(type(item)))
                         else _json_text(item, inner))
                      for key, item in value.items()]
            brackets = "{}"
        else:
            raise TypeError  # not a container: json.dumps writes it whole
    except TypeError:
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + indent)
    if not pieces:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(pieces) + f"\n{indent}{brackets[1]}"


def results_to_json(cfg: ExperimentConfig, records: Sequence[Record],
                    summary: Dict[str, object]) -> str:
    doc = {
        "config": cfg.to_dict(),
        "records": records,
        "summary": summary,
    }
    return _json_text(doc) + "\n"


def results_to_csv(cfg: ExperimentConfig, records: Sequence[Record],
                   summary: Dict[str, object]) -> str:
    import csv
    import io

    # one column per key that any record carries, in first-seen order
    groups = (("value", "values", repr), ("deviation", "deviations", repr), ("pass", "passes", str))
    columns = [(prefix, attr, key, fmt) for prefix, attr, fmt in groups
               for key in dict.fromkeys(k for record in records for k in record[attr])]
    stages = list(dict.fromkeys(name for record in records
                                for name in record.get("timings_ms", {})))
    header = (["command", "case_index", "parameters"]
              + [f"{prefix}_{key}" for prefix, _, key, _ in columns]
              + ["passed", "wall_time_ms"] + [f"timing_{name}_ms" for name in stages])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        row = [record["command"], record["case_index"],
               json.dumps(record["parameters"], sort_keys=True)]
        row += [fmt(record[attr][key]) if key in record[attr] else ""
                for _, attr, key, fmt in columns]
        row += [str(record["passed"]),
                "" if record["wall_time_ms"] is None else repr(record["wall_time_ms"])]
        row += [repr(record["timings_ms"][name]) if name in record.get("timings_ms", {}) else ""
                for name in stages]
        writer.writerow(row)
    return buffer.getvalue()

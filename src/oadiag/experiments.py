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
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagonal import (
    DiagonalTensor,
    factored_expansion,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
)
from .numerics import MAX_CASES, LpParams, Scalar, check_budget
from .oapoly import (
    AdditivityReport,
    MultilinearForm,
    OrthAddPolynomial,
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
    "ResultRecord",
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
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if not self.tolerances[name] >= 0:
                raise ConfigError(f"tolerance {name} must be >= 0")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.p is not None and not self.p >= 1:
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

    def to_dict(self) -> Dict[str, object]:
        """Every field except the output path, with coefficients as literals."""
        doc = asdict(self)
        del doc["out"]
        if self.coeffs is not None:
            doc["coeffs"] = [format_scalar(z) for z in self.coeffs]
        doc["tolerances"] = dict(sorted(self.tolerances.items()))
        return doc


@dataclass
class ResultRecord:
    command: str
    case_index: int
    parameters: Dict[str, object]
    values: Dict[str, float]
    deviations: Dict[str, float]
    passes: Dict[str, bool]
    passed: bool
    wall_time_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _relative_deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


Case = Tuple[Dict[str, object], Dict[str, float], Dict[str, float], Dict[str, bool]]


def _run_cases(cfg: ExperimentConfig, count: int,
               case: Callable[[int], Case]) -> List[ResultRecord]:
    """One record per case index, in index order.

    case(index) returns (parameters, values, deviations, passes); a record
    passes when all its pass flags do.  Wall time is measured only under
    cfg.timing, so untimed output stays byte-reproducible.
    """
    check_budget("case", count, "cases", MAX_CASES)
    records = []
    for index in range(count):
        start = time.perf_counter() if cfg.timing else None
        parameters, values, deviations, passes = case(index)
        wall_time_ms = None if start is None else (time.perf_counter() - start) * 1e3
        records.append(ResultRecord(cfg.command, index, parameters, values, deviations, passes,
                                    all(passes.values()), wall_time_ms))
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

def _pi_sandwich(cfg: ExperimentConfig, u: DiagonalTensor) -> Tuple[float, float, float, float]:
    """Closed form, decomposition upper bound and dual lower bound of ||u||_pi,
    and the tolerance of their sandwich (exact l_1 lower bound when p <= k).

    A norm beyond the float range is a configuration error: math.fsum raises
    OverflowError on an l_1 sum past it, and a scaled l_{p/k} norm reads inf.
    """
    tol = cfg.tol("sandwich") if u.params.k_less_than_p else cfg.tol("sandwich_l1")
    try:
        values = pi_norm_closed_form(u), pi_upper_bound(u), pi_lower_bound(u)
    except OverflowError:
        values = (math.inf,)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("the projective norm of these coefficients exceeds the float range")
    return (*values, tol)


def _oa_isometry(cfg: ExperimentConfig, poly: OrthAddPolynomial, restarts: int, iters: int,
                 seed: int) -> Tuple[float, float, float, Dict[str, float], Dict[str, bool]]:
    """Closed form, ascent estimate and witness value of ||poly||, with the
    deviation of each estimate from the closed form and its pass flag, keyed
    by tolerance name.  The zero polynomial has no witness; its value is 0.
    A norm beyond the float range is a configuration error."""
    closed = norm_closed_form(poly)
    if not math.isfinite(closed):
        raise ConfigError("the polynomial norm of these coefficients exceeds the float range")
    numeric = norm_numeric(poly, restarts=restarts, iters=iters, seed=seed)
    witness_value = norm_witness(poly)[1] if closed != 0.0 else 0.0
    deviations = {"isometry": _relative_deviation(numeric, closed),
                  "witness": _relative_deviation(witness_value, closed)}
    passes = {name: dev <= cfg.tol(name) for name, dev in deviations.items()}
    return closed, numeric, witness_value, deviations, passes


def _additivity(cfg: ExperimentConfig, c: np.ndarray, params: LpParams,
                seed: int) -> AdditivityReport:
    """Structural and behavioral additivity of the diagonal extension of c.
    A behavioral defect beyond the float range is a configuration error."""
    report = is_orthogonally_additive(
        extend_diagonal_functional(c, params),
        tol_structural=cfg.tol("additivity_structural"),
        tol_behavioral=cfg.tol("additivity_behavioral"),
        seed=seed,
    )
    if not math.isfinite(report.worst_behavioral_defect):
        raise ConfigError("the additivity defect of these coefficients exceeds the float range")
    return report


def _random_coeffs(rng: np.random.Generator, n: int, complex_values: bool) -> np.ndarray:
    c = rng.standard_normal(n)
    if complex_values:
        c = c + 1j * rng.standard_normal(n)
    return c.astype(complex)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_verify_rademacher(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Exhaustive product-integral check over all level tuples up to depth."""
    k = cfg.k
    tol = cfg.tol("rademacher")

    def case(index: int) -> Case:
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
                deviations,
                {name: dev <= tol for name, dev in deviations.items()})

    return _run_cases(cfg, cfg.depth ** k, case)


def cmd_pi_norm(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Closed form, decomposition upper bound and dual lower bound for one tensor."""

    def case(index: int) -> Case:
        u = DiagonalTensor(np.array(cfg.coeffs, dtype=complex), LpParams(cfg.p, cfg.k))
        closed, upper, lower, tol = _pi_sandwich(cfg, u)
        deviations = {
            "lower_vs_closed": _relative_deviation(lower, closed),
            "upper_vs_closed": _relative_deviation(upper, closed),
            "sandwich_violation": max(lower - closed, closed - upper, 0.0)
            / max(closed, 1e-300),
        }
        return ({"k": cfg.k, "p": cfg.p, "coeffs": [format_scalar(z) for z in cfg.coeffs]},
                {"closed_form": closed, "upper_bound": upper, "lower_bound": lower},
                deviations,
                {name: dev <= tol for name, dev in deviations.items()})

    return _run_cases(cfg, 1, case)


def cmd_oa_norm(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Closed form, witness value and ascent estimate for one polynomial."""

    def case(index: int) -> Case:
        poly = OrthAddPolynomial(np.array(cfg.coeffs, dtype=complex), LpParams(cfg.p, cfg.k))
        closed, numeric, witness_value, dev, ok = _oa_isometry(
            cfg, poly, cfg.restarts, cfg.iters, cfg.seed)
        return ({"k": cfg.k, "p": cfg.p, "seed": cfg.seed,
                 "restarts": cfg.restarts, "iters": cfg.iters,
                 "coeffs": [format_scalar(z) for z in cfg.coeffs],
                 "witness_defined": closed != 0.0},
                {"closed_form": closed, "witness_value": witness_value,
                 "numeric_estimate": numeric},
                {"witness_vs_closed": dev["witness"], "numeric_vs_closed": dev["isometry"]},
                {"witness_vs_closed": ok["witness"], "numeric_vs_closed": ok["isometry"]})

    return _run_cases(cfg, 1, case)


def cmd_additivity(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Structural and behavioral additivity checks on diagonal extensions."""
    params = LpParams(cfg.p, cfg.k)

    def case(trial: int) -> Case:
        if cfg.coeffs is not None:
            c = np.array(cfg.coeffs, dtype=complex)
        else:
            rng = np.random.default_rng([cfg.seed, trial])
            c = _random_coeffs(rng, cfg.n, complex_values=trial % 2 == 1)
        report = _additivity(cfg, c, params, cfg.seed + trial)
        values = {"offdiagonal_ratio": report.worst_offdiagonal_ratio,
                  "behavioral_defect": report.worst_behavioral_defect}
        return ({"k": cfg.k, "p": cfg.p, "n": int(c.shape[0]), "seed": cfg.seed,
                 "trial": trial, "coeffs": [format_scalar(z) for z in c]},
                values,
                dict(values),
                {"structural": report.structural_ok, "behavioral": report.behavioral_ok,
                 "checks_agree": report.checks_agree})

    return _run_cases(cfg, cfg.trials if cfg.coeffs is None else 1, case)


def cmd_zalduendo(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Diagonal extraction bound against the sup norm of random forms, with
    the ascent estimate judged by the certified enclosure's upper bound."""
    params = LpParams(cfg.p, cfg.k)

    def case(trial: int) -> Case:
        rng = np.random.default_rng([cfg.seed, trial])
        raw = rng.standard_normal((cfg.n,) * cfg.k)
        form = MultilinearForm(raw.astype(complex), params).symmetrize()
        ascent = multilinear_norm_ascent(form, restarts=max(cfg.restarts, 12),
                                         iters=60, seed=cfg.seed + trial)
        lower, upper = multilinear_norm_grid(form)
        _, diag_norm = diagonal_of_multilinear(form)
        agreement = _relative_deviation(ascent, upper)
        estimate = max(ascent, lower)
        excess = max(diag_norm - estimate, 0.0)
        return ({"k": cfg.k, "p": cfg.p, "n": cfg.n, "seed": cfg.seed, "trial": trial},
                {"ascent_estimate": ascent, "grid_estimate": lower, "sup_upper": upper,
                 "diagonal_norm": diag_norm,
                 "observed_ratio": diag_norm / estimate if estimate > 0 else 0.0},
                {"oracle_agreement": agreement, "diagonal_excess": excess},
                {"oracle_agreement": agreement <= cfg.tol("grid_agreement"),
                 "diagonal_bound": excess <= cfg.tol("zalduendo")})

    return _run_cases(cfg, cfg.trials, case)


def cmd_sweep(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Grid of seeded random instances running every invariant suite.

    Case indices run in order over k, then p, then n, then trial.  Cases
    run one after another; ``workers`` is accepted and echoed in the config
    but does not change how the sweep runs.
    """
    ks = [cfg.k] if cfg.k is not None else list(SWEEP_DEFAULT_KS)
    ns = [cfg.n] if cfg.n is not None else list(SWEEP_DEFAULT_NS)
    shape = (len(ks), 1 if cfg.p is not None else 2, len(ns), cfg.trials)
    rec_tol = cfg.tol("reconstruction")

    def case(index: int) -> Case:
        k_at, p_at, n_at, trial = _unravel(index, shape)
        k, n = ks[k_at], ns[n_at]
        p = float(cfg.p if cfg.p is not None else (k + 1.0, 2.0 * k)[p_at])
        params = LpParams(p, k)
        rng = np.random.default_rng([cfg.seed, index])
        a = _random_coeffs(rng, n, complex_values=trial % 2 == 1)

        # rank-one reconstruction of the diagonal tensor
        u = DiagonalTensor(a, params)
        tensor = factored_expansion(u)
        idx = np.arange(n)
        diag = tensor[tuple([idx] * k)].copy()
        tensor[tuple([idx] * k)] = 0.0
        off_dev = float(np.max(np.abs(tensor))) / max(float(np.sum(np.abs(a))), 1e-300)
        diag_dev = float(np.max(np.abs(diag - a))) / max(float(np.max(np.abs(a))), 1e-300)

        closed, upper, lower, sandwich_tol = _pi_sandwich(cfg, u)
        sandwich = max(_relative_deviation(lower, closed), _relative_deviation(upper, closed))
        # moderate optimizer budget; sweeps stay quick
        oa_closed, numeric, witness_value, iso_dev, iso_ok = _oa_isometry(
            cfg, OrthAddPolynomial(a, params), min(cfg.restarts, n + 4),
            min(cfg.iters, 250), cfg.seed + index)
        report = _additivity(cfg, a, params, cfg.seed + index)

        deviations = {
            "reconstruction_offdiagonal": off_dev,
            "reconstruction_diagonal": diag_dev,
            "sandwich": sandwich,
            **iso_dev,
            "additivity_offdiagonal": report.worst_offdiagonal_ratio,
            "additivity_behavioral": report.worst_behavioral_defect,
        }
        passes = {
            "reconstruction_offdiagonal": off_dev <= rec_tol,
            "reconstruction_diagonal": diag_dev <= rec_tol,
            "sandwich": sandwich <= sandwich_tol,
            **iso_ok,
            "additivity_structural": report.structural_ok,
            "additivity_behavioral": report.behavioral_ok,
            "additivity_agreement": report.checks_agree,
        }
        if cfg.inject_failure and index == 0:
            # fixture for exercising the exit-code contract
            deviations["injected_failure"] = 1.0
            passes["injected_failure"] = False
        return ({"k": k, "p": p, "n": n, "trial": trial, "seed": cfg.seed,
                 "coeffs": [format_scalar(z) for z in a]},
                {"pi_closed_form": closed, "pi_upper_bound": upper, "pi_lower_bound": lower,
                 "oa_closed_form": oa_closed, "oa_numeric": numeric,
                 "oa_witness_value": witness_value},
                deviations,
                passes)

    return _run_cases(cfg, math.prod(shape), case)


COMMANDS: Dict[str, Callable[[ExperimentConfig], List[ResultRecord]]] = {
    "verify-rademacher": cmd_verify_rademacher,
    "pi-norm": cmd_pi_norm,
    "oa-norm": cmd_oa_norm,
    "additivity-test": cmd_additivity,
    "zalduendo-check": cmd_zalduendo,
    "sweep": cmd_sweep,
}


def run_command(cfg: ExperimentConfig) -> Tuple[List[ResultRecord], Dict[str, object]]:
    cfg.validate()
    records = COMMANDS[cfg.command](cfg)
    failures = sum(1 for r in records if not r.passed)
    summary: Dict[str, object] = {
        "total": len(records),
        "failures": failures,
        "passed": failures == 0,
    }
    return records, summary


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def results_to_json(cfg: ExperimentConfig, records: Sequence[ResultRecord],
                    summary: Dict[str, object]) -> str:
    doc = {
        "config": cfg.to_dict(),
        "records": [r.to_dict() for r in records],
        "summary": summary,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def results_to_csv(cfg: ExperimentConfig, records: Sequence[ResultRecord],
                   summary: Dict[str, object]) -> str:
    import csv
    import io

    # one column per key that any record carries, in first-seen order
    groups = (("value", "values", repr), ("deviation", "deviations", repr), ("pass", "passes", str))
    columns = [(prefix, attr, key, fmt) for prefix, attr, fmt in groups
               for key in dict.fromkeys(k for record in records for k in getattr(record, attr))]
    header = (["command", "case_index", "parameters"]
              + [f"{prefix}_{key}" for prefix, _, key, _ in columns]
              + ["passed", "wall_time_ms"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        row = [record.command, record.case_index,
               json.dumps(record.parameters, sort_keys=True)]
        row += [fmt(getattr(record, attr)[key]) if key in getattr(record, attr) else ""
                for _, attr, key, fmt in columns]
        row += [str(record.passed),
                "" if record.wall_time_ms is None else repr(record.wall_time_ms)]
        writer.writerow(row)
    return buffer.getvalue()

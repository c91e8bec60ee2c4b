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
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagonal import (
    DiagonalTensor,
    averaging_decomposition,
    dense_expansion,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
)
from .numerics import BudgetError, LpParams, Scalar
from .oapoly import (
    OrthAddPolynomial,
    diagonal_of_multilinear,
    evaluate,
    extend_diagonal_functional,
    is_orthogonally_additive,
    multilinear_norm_ascent,
    multilinear_norm_grid,
    norm_closed_form,
    norm_numeric,
    norm_witness,
)
from .oapoly import MultilinearForm
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
# Cap on the records one command may produce.
MAX_CASES = 20000


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
        if name in self.tolerances:
            return self.tolerances[name]
        return DEFAULT_TOLERANCES[name]

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
        if self.command == "verify-rademacher":
            if self.k is None:
                raise ConfigError("verify-rademacher requires --k")
            if self.k < 2:
                raise ConfigError("verify-rademacher requires k >= 2")
        if self.command in ("pi-norm", "oa-norm") and not self.coeffs:
            raise ConfigError(f"{self.command} requires --coeffs or --coeffs-file")
        if self.command == "pi-norm" and self.k is not None and self.k < 2:
            raise ConfigError("pi-norm requires k >= 2")
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
        return {
            "command": self.command,
            "k": self.k,
            "p": self.p,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "depth": self.depth,
            "coeffs": None if self.coeffs is None else [format_scalar(z) for z in self.coeffs],
            "tolerances": {name: self.tolerances[name] for name in sorted(self.tolerances)},
            "format": self.format,
            "workers": self.workers,
            "timing": self.timing,
            "inject_failure": self.inject_failure,
            "restarts": self.restarts,
            "iters": self.iters,
        }


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
        return {
            "command": self.command,
            "case_index": self.case_index,
            "parameters": self.parameters,
            "values": self.values,
            "deviations": self.deviations,
            "passes": self.passes,
            "passed": self.passed,
            "wall_time_ms": self.wall_time_ms,
        }


def _relative_deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _finish_record(record: ResultRecord) -> ResultRecord:
    record.passed = all(record.passes.values())
    return record


def _timed(cfg: ExperimentConfig, builder: Callable[[], ResultRecord]) -> ResultRecord:
    if not cfg.timing:
        return builder()
    start = time.perf_counter()
    record = builder()
    record.wall_time_ms = (time.perf_counter() - start) * 1e3
    return record


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_verify_rademacher(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Exhaustive product-integral check over all level tuples up to depth."""
    k = cfg.k
    tuple_count = cfg.depth ** k
    if tuple_count > MAX_CASES:
        raise BudgetError(f"{tuple_count} level tuples exceed the sweep cap")
    records = []
    index = 0
    levels_range = range(1, cfg.depth + 1)
    for levels in itertools.product(levels_range, repeat=k):
        def build(levels=levels, index=index) -> ResultRecord:
            rule = integrate_product(levels, k)
            brute = integrate_product_bruteforce(levels, k)
            expected = 1 if len(set(levels)) == 1 else 0
            deviations = {
                "rule_vs_expected": float(abs(rule - expected)),
                "bruteforce_vs_rule": float(abs(brute - rule)),
            }
            tol = cfg.tol("rademacher")
            passes = {name: dev <= tol for name, dev in deviations.items()}
            return _finish_record(ResultRecord(
                command=cfg.command,
                case_index=index,
                parameters={"k": k, "levels": list(levels)},
                values={"rule": float(rule), "bruteforce": float(brute),
                        "expected": float(expected)},
                deviations=deviations,
                passes=passes,
                passed=True,
            ))

        records.append(_timed(cfg, build))
        index += 1
    return records


def cmd_pi_norm(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Closed form, decomposition upper bound and dual lower bound for one tensor."""
    params = LpParams(cfg.p, cfg.k)

    def build() -> ResultRecord:
        u = DiagonalTensor(np.array(cfg.coeffs, dtype=complex), params)
        closed = pi_norm_closed_form(u)
        upper = pi_upper_bound(u)
        lower = pi_lower_bound(u)
        tol = cfg.tol("sandwich") if params.k_less_than_p else cfg.tol("sandwich_l1")
        deviations = {
            "lower_vs_closed": _relative_deviation(lower, closed),
            "upper_vs_closed": _relative_deviation(upper, closed),
            "sandwich_violation": max(lower - closed, closed - upper, 0.0)
            / max(closed, 1e-300),
        }
        passes = {name: dev <= tol for name, dev in deviations.items()}
        return _finish_record(ResultRecord(
            command=cfg.command,
            case_index=0,
            parameters={"k": cfg.k, "p": cfg.p,
                        "coeffs": [format_scalar(z) for z in cfg.coeffs]},
            values={"closed_form": closed, "upper_bound": upper, "lower_bound": lower},
            deviations=deviations,
            passes=passes,
            passed=True,
        ))

    return [_timed(cfg, build)]


def cmd_oa_norm(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Closed form, witness value and ascent estimate for one polynomial."""
    params = LpParams(cfg.p, cfg.k)

    def build() -> ResultRecord:
        poly = OrthAddPolynomial(np.array(cfg.coeffs, dtype=complex), params)
        closed = norm_closed_form(poly)
        numeric = norm_numeric(poly, restarts=cfg.restarts, iters=cfg.iters, seed=cfg.seed)
        parameters: Dict[str, object] = {
            "k": cfg.k, "p": cfg.p, "seed": cfg.seed,
            "restarts": cfg.restarts, "iters": cfg.iters,
            "coeffs": [format_scalar(z) for z in cfg.coeffs],
        }
        if closed == 0.0:
            parameters["witness_defined"] = False
            witness_value = 0.0
        else:
            parameters["witness_defined"] = True
            _, witness_value = norm_witness(poly)
        deviations = {
            "witness_vs_closed": _relative_deviation(witness_value, closed),
            "numeric_vs_closed": _relative_deviation(numeric, closed),
        }
        passes = {
            "witness_vs_closed": deviations["witness_vs_closed"] <= cfg.tol("witness"),
            "numeric_vs_closed": deviations["numeric_vs_closed"] <= cfg.tol("isometry"),
        }
        return _finish_record(ResultRecord(
            command=cfg.command,
            case_index=0,
            parameters=parameters,
            values={"closed_form": closed, "witness_value": witness_value,
                    "numeric_estimate": numeric},
            deviations=deviations,
            passes=passes,
            passed=True,
        ))

    return [_timed(cfg, build)]


def _random_coeffs(rng: np.random.Generator, n: int, complex_values: bool) -> np.ndarray:
    c = rng.standard_normal(n)
    if complex_values:
        c = c + 1j * rng.standard_normal(n)
    return c.astype(complex)


def cmd_additivity(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Structural and behavioral additivity checks on diagonal extensions."""
    k = cfg.k
    params = LpParams(cfg.p, k)
    records = []
    for trial in range(cfg.trials if cfg.coeffs is None else 1):
        def build(trial=trial) -> ResultRecord:
            if cfg.coeffs is not None:
                c = np.array(cfg.coeffs, dtype=complex)
            else:
                rng = np.random.default_rng([cfg.seed, trial])
                c = _random_coeffs(rng, cfg.n, complex_values=trial % 2 == 1)
            form = extend_diagonal_functional(c, params)
            report = is_orthogonally_additive(
                form,
                tol_structural=cfg.tol("additivity_structural"),
                tol_behavioral=cfg.tol("additivity_behavioral"),
                seed=cfg.seed + trial,
            )
            deviations = {
                "offdiagonal_ratio": report.worst_offdiagonal_ratio,
                "behavioral_defect": report.worst_behavioral_defect,
            }
            passes = {
                "structural": report.structural_ok,
                "behavioral": report.behavioral_ok,
                "checks_agree": report.checks_agree,
            }
            return _finish_record(ResultRecord(
                command=cfg.command,
                case_index=trial,
                parameters={"k": k, "p": cfg.p, "n": int(c.shape[0]),
                            "seed": cfg.seed, "trial": trial,
                            "coeffs": [format_scalar(z) for z in c]},
                values={"offdiagonal_ratio": report.worst_offdiagonal_ratio,
                        "behavioral_defect": report.worst_behavioral_defect},
                deviations=deviations,
                passes=passes,
                passed=True,
            ))

        records.append(_timed(cfg, build))
    return records


def cmd_zalduendo(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Diagonal extraction bound against the estimated sup norm of random forms."""
    params = LpParams(cfg.p, cfg.k)
    records = []
    for trial in range(cfg.trials):
        def build(trial=trial) -> ResultRecord:
            rng = np.random.default_rng([cfg.seed, trial])
            raw = rng.standard_normal((cfg.n,) * cfg.k)
            form = MultilinearForm(raw.astype(complex), params).symmetrize()
            ascent = multilinear_norm_ascent(form, restarts=max(cfg.restarts, 12),
                                             iters=60, seed=cfg.seed + trial)
            grid = multilinear_norm_grid(form)
            _, diag_norm = diagonal_of_multilinear(form)
            agreement = _relative_deviation(ascent, grid)
            estimate = max(ascent, grid)
            excess = max(diag_norm - estimate, 0.0)
            deviations = {
                "oracle_agreement": agreement,
                "diagonal_excess": excess,
            }
            passes = {
                "oracle_agreement": agreement <= cfg.tol("grid_agreement"),
                "diagonal_bound": excess <= cfg.tol("zalduendo"),
            }
            return _finish_record(ResultRecord(
                command=cfg.command,
                case_index=trial,
                parameters={"k": cfg.k, "p": cfg.p, "n": cfg.n,
                            "seed": cfg.seed, "trial": trial},
                values={"ascent_estimate": ascent, "grid_estimate": grid,
                        "diagonal_norm": diag_norm,
                        "observed_ratio": diag_norm / estimate if estimate > 0 else 0.0},
                deviations=deviations,
                passes=passes,
                passed=True,
            ))

        records.append(_timed(cfg, build))
    return records


def _sweep_cases(cfg: ExperimentConfig) -> List[Tuple[int, float, int, int]]:
    ks = [cfg.k] if cfg.k is not None else list(SWEEP_DEFAULT_KS)
    ns = [cfg.n] if cfg.n is not None else list(SWEEP_DEFAULT_NS)
    cases = []
    for k in ks:
        ps = [cfg.p] if cfg.p is not None else [k + 1.0, 2.0 * k]
        for p in ps:
            for n in ns:
                for trial in range(cfg.trials):
                    cases.append((k, float(p), n, trial))
    return cases


def _sweep_case_record(cfg: ExperimentConfig, index: int,
                       case: Tuple[int, float, int, int]) -> ResultRecord:
    k, p, n, trial = case
    params = LpParams(p, k)
    rng = np.random.default_rng([cfg.seed, index])
    a = _random_coeffs(rng, n, complex_values=trial % 2 == 1)

    values: Dict[str, float] = {}
    deviations: Dict[str, float] = {}
    passes: Dict[str, bool] = {}

    # rank-one reconstruction of the diagonal tensor
    u = DiagonalTensor(a, params)
    tensor = dense_expansion(averaging_decomposition(u))
    idx = np.arange(n)
    diag = tensor[tuple([idx] * k)].copy()
    tensor[tuple([idx] * k)] = 0.0
    scale = float(np.sum(np.abs(a)))
    off_dev = float(np.max(np.abs(tensor))) / max(scale, 1e-300)
    diag_dev = float(np.max(np.abs(diag - a))) / max(float(np.max(np.abs(a))), 1e-300)
    deviations["reconstruction_offdiagonal"] = off_dev
    deviations["reconstruction_diagonal"] = diag_dev
    passes["reconstruction_offdiagonal"] = off_dev <= cfg.tol("reconstruction")
    passes["reconstruction_diagonal"] = diag_dev <= cfg.tol("reconstruction")

    # projective-norm sandwich
    closed = pi_norm_closed_form(u)
    upper = pi_upper_bound(u)
    lower = pi_lower_bound(u)
    values.update({"pi_closed_form": closed, "pi_upper_bound": upper,
                   "pi_lower_bound": lower})
    sandwich_tol = cfg.tol("sandwich") if params.k_less_than_p else cfg.tol("sandwich_l1")
    sandwich_dev = max(_relative_deviation(lower, closed), _relative_deviation(upper, closed))
    deviations["sandwich"] = sandwich_dev
    passes["sandwich"] = sandwich_dev <= sandwich_tol

    # polynomial norm isometry (moderate optimizer budget; sweeps stay quick)
    poly = OrthAddPolynomial(a, params)
    oa_closed = norm_closed_form(poly)
    numeric = norm_numeric(poly, restarts=min(cfg.restarts, n + 4), iters=min(cfg.iters, 250),
                           seed=cfg.seed + index)
    _, witness_value = norm_witness(poly)
    values.update({"oa_closed_form": oa_closed, "oa_numeric": numeric,
                   "oa_witness_value": witness_value})
    deviations["isometry"] = _relative_deviation(numeric, oa_closed)
    deviations["witness"] = _relative_deviation(witness_value, oa_closed)
    passes["isometry"] = deviations["isometry"] <= cfg.tol("isometry")
    passes["witness"] = deviations["witness"] <= cfg.tol("witness")

    # orthogonal additivity of the diagonal extension
    report = is_orthogonally_additive(
        extend_diagonal_functional(a, params),
        tol_structural=cfg.tol("additivity_structural"),
        tol_behavioral=cfg.tol("additivity_behavioral"),
        seed=cfg.seed + index,
    )
    deviations["additivity_offdiagonal"] = report.worst_offdiagonal_ratio
    deviations["additivity_behavioral"] = report.worst_behavioral_defect
    passes["additivity_structural"] = report.structural_ok
    passes["additivity_behavioral"] = report.behavioral_ok
    passes["additivity_agreement"] = report.checks_agree

    if cfg.inject_failure and index == 0:
        # fixture for exercising the exit-code contract
        deviations["injected_failure"] = 1.0
        passes["injected_failure"] = False

    return _finish_record(ResultRecord(
        command=cfg.command,
        case_index=index,
        parameters={"k": k, "p": p, "n": n, "trial": trial, "seed": cfg.seed,
                    "coeffs": [format_scalar(z) for z in a]},
        values=values,
        deviations=deviations,
        passes=passes,
        passed=True,
    ))


def cmd_sweep(cfg: ExperimentConfig) -> List[ResultRecord]:
    """Grid of seeded random instances running every invariant suite.

    Cases run one after another in index order; ``workers`` is accepted and
    echoed in the config but does not change how the sweep runs.
    """
    cases = _sweep_cases(cfg)
    if len(cases) > MAX_CASES:
        raise BudgetError(f"{len(cases)} sweep cases exceed the cap")
    return [_timed(cfg, lambda: _sweep_case_record(cfg, index, case))
            for index, case in enumerate(cases)]


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
    return json.dumps(doc, indent=2) + "\n"


def results_to_csv(cfg: ExperimentConfig, records: Sequence[ResultRecord],
                   summary: Dict[str, object]) -> str:
    import csv
    import io

    value_keys: List[str] = []
    deviation_keys: List[str] = []
    pass_keys: List[str] = []
    for record in records:
        for key in record.values:
            if key not in value_keys:
                value_keys.append(key)
        for key in record.deviations:
            if key not in deviation_keys:
                deviation_keys.append(key)
        for key in record.passes:
            if key not in pass_keys:
                pass_keys.append(key)

    header = (["command", "case_index", "parameters"]
              + [f"value_{k}" for k in value_keys]
              + [f"deviation_{k}" for k in deviation_keys]
              + [f"pass_{k}" for k in pass_keys]
              + ["passed", "wall_time_ms"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        row = [record.command, record.case_index,
               json.dumps(record.parameters, sort_keys=True)]
        row += [repr(record.values[k]) if k in record.values else "" for k in value_keys]
        row += [repr(record.deviations[k]) if k in record.deviations else ""
                for k in deviation_keys]
        row += [str(record.passes[k]) if k in record.passes else "" for k in pass_keys]
        row += [str(record.passed),
                "" if record.wall_time_ms is None else repr(record.wall_time_ms)]
        writer.writerow(row)
    return buffer.getvalue()

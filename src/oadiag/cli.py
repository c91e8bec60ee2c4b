"""Command-line experiment runner.

Subcommands: verify-rademacher, pi-norm, oa-norm, additivity-test,
zalduendo-check, sweep.  Output is a JSON document (config echo, record
list, summary) or its flat CSV projection; identical configurations produce
byte-identical files when timing is off.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 invalid
configuration, 3 a resource budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .experiments import (
    ConfigError,
    ExperimentConfig,
    parse_scalar,
    results_to_csv,
    results_to_json,
    run_command,
)
from .numerics import BudgetError

OUT_DIR_ENV = "OADIAG_OUT_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_BUDGET = 3

_COMMON_FLAGS = (
    ("--k", dict(type=int, help="homogeneity degree k")),
    ("--p", dict(type=float, help="sequence-space exponent p")),
    ("--n", dict(type=int, help="dimension / coefficient count")),
    ("--seed", dict(type=int, help="base random seed (default 0)")),
    ("--trials", dict(type=int, help="number of seeded trials")),
    ("--restarts", dict(type=int, help="optimizer restarts")),
    ("--iters", dict(type=int, help="optimizer iterations")),
    ("--coeffs", dict(type=str, help="comma-separated reals or re+imi literals")),
    ("--coeffs-file", dict(type=str, help="JSON file with a coefficient array")),
    ("--tol", dict(action="append", metavar="NAME=VALUE", help="tolerance override")),
    ("--out", dict(type=str, help="output path (default: stdout)")),
    ("--format", dict(choices=["json", "csv"], help="output format (default json)")),
    ("--workers", dict(type=int, help="accepted for compatibility; sweeps run sequentially")),
    ("--config", dict(type=str, help="JSON config file; explicit flags win")),
    ("--timing", dict(action="store_true", default=None,
                      help="attach wall times (breaks byte-identical output)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oadiag", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("verify-rademacher", [("--depth", dict(type=int, help="max level (default 3)"))]),
        ("pi-norm", []),
        ("oa-norm", []),
        ("additivity-test", []),
        ("zalduendo-check", []),
        ("sweep", [("--inject-failure", dict(action="store_true", default=None,
                                             help="force one failing record (exit-code fixture)"))]),
    ):
        cmd = sub.add_parser(name)
        for flag, kwargs in _COMMON_FLAGS:
            cmd.add_argument(flag, **kwargs)
        for flag, kwargs in extra:
            cmd.add_argument(flag, **kwargs)
    return parser


def _parse_coeff_list(text: str) -> List[complex]:
    items = [item for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError("empty coefficient list")
    return [parse_scalar(item) for item in items]


def _load_coeffs_file(path: str) -> List[complex]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read coefficient file {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError(f"coefficient file {path} must hold a JSON array")
    return [parse_scalar(str(item)) for item in data]


def _parse_tolerances(items: Optional[List[str]]) -> dict:
    tolerances = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"tolerance override must be NAME=VALUE, got {item!r}")
        try:
            tolerances[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return tolerances


_CONFIG_FILE_KEYS = {
    "k", "p", "n", "seed", "trials", "depth", "coeffs", "tolerances",
    "format", "workers", "timing", "inject_failure", "restarts", "iters", "out",
}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in _CONFIG_FILE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = value
    if "coeffs" in settings and settings["coeffs"] is not None:
        settings["coeffs"] = [parse_scalar(str(item)) for item in settings["coeffs"]]

    # explicit flags win over the config file
    if args.coeffs is not None:
        settings["coeffs"] = _parse_coeff_list(args.coeffs)
    if args.coeffs_file is not None:
        settings["coeffs"] = _load_coeffs_file(args.coeffs_file)
    flag_tolerances = _parse_tolerances(args.tol)
    if flag_tolerances:
        merged = dict(settings.get("tolerances") or {})
        merged.update(flag_tolerances)
        settings["tolerances"] = merged
    for name in ("k", "p", "n", "seed", "trials", "restarts", "iters",
                 "out", "format", "workers", "timing"):
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    if getattr(args, "depth", None) is not None:
        settings["depth"] = args.depth
    if getattr(args, "inject_failure", None) is not None:
        settings["inject_failure"] = args.inject_failure

    settings.setdefault("tolerances", {})
    try:
        return ExperimentConfig(command=args.command, **settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_out_path(out: str) -> Path:
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        records, summary = run_command(cfg)
        text = (results_to_json(cfg, records, summary) if cfg.format == "json"
                else results_to_csv(cfg, records, summary))
        if cfg.out:
            path = _resolve_out_path(cfg.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if not summary["passed"]:
        print(f"{summary['failures']} of {summary['total']} checks failed",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

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
import functools
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Union, get_args, get_origin, get_type_hints

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
    ("--restarts", dict(type=int, help="optimizer starts (oa-norm / sweep also take "
                                       "every basis vector, past this count)")),
    ("--iters", dict(type=int, help="oa-norm / sweep ascent step cap at p <= k "
                                    "(k < p stops on a certificate)")),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The oadiag parser, built on the first call and shared by every later
    one: parse_args keeps no state in it (each call fills a fresh namespace),
    and help text is wrapped to the terminal width when it is printed.  Its
    ``commands`` attribute maps each subcommand to that subcommand's parser."""
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
    parser.commands = sub.choices
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


_CONFIG_FILE_TYPES = {name: hint for name, hint in get_type_hints(ExperimentConfig).items()
                      if name != "command"}


def _check_config_value(key: str, value: object) -> None:
    """Raise ConfigError unless a config-file value has the JSON type its field
    declares: null only for optional fields, no booleans for numbers, integers
    also for floats, and numbers as tolerance values."""
    hint = _CONFIG_FILE_TYPES[key]
    kinds = [get_origin(t) or t for t in (get_args(hint) if get_origin(hint) is Union else (hint,))]
    if float in kinds:
        kinds.append(int)  # JSON may write 4.0 as 4
    members = value.values() if isinstance(value, dict) else ()
    if (not isinstance(value, tuple(kinds)) or (isinstance(value, bool) and bool not in kinds)
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in members)):
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")


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
            if key not in _CONFIG_FILE_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            _check_config_value(key, value)
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
    # coeffs and tolerances are merged above; flags a subcommand lacks read as None
    for name in _CONFIG_FILE_TYPES.keys() - {"coeffs", "tolerances"}:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value with a leading minus, such as -3,4, for an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--coeffs":
            argv[i - 1:i + 1] = [f"--coeffs={argv[i]}"]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, an unknown command or an option before the command
        args = parser.parse_args(argv)
    else:
        # what the top parser does, without its pass over the arguments: the
        # command's parser reads the rest, and the top parser reports leftovers
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        cfg = build_config(args)
        records, summary = run_command(cfg)
        text = (results_to_json(cfg, records, summary) if cfg.format == "json"
                else results_to_csv(cfg, records, summary))
        if cfg.out:
            path = _resolve_out_path(cfg.out)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file {path}: {exc}") from exc
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # the unwritten bytes stay in the buffer, and the flush at
                # interpreter exit would fail on them again and exit 120
                try:
                    fd = sys.stdout.fileno()
                    null = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(null, fd)
                    os.close(null)
                except (AttributeError, OSError, ValueError):  # no descriptor to flush at exit
                    pass
                raise ConfigError(f"cannot write to standard output: {exc}") from exc
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

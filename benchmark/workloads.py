"""Seeded inputs of the three benchmark workloads.

An op is one or more argument vectors for ``oadiag.cli.main``; a round is the
fixed list of ops that every run repeats whole, so each run holds the same
mix.  Inputs come from Python's own ``random`` module, seeded by the workload
seed, so they do not depend on the program or on numpy's generators.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List

# Rounds generated up front; longer runs cycle through them again.
POOL_ROUNDS = 128

SWEEP_K, SWEEP_N, SWEEP_TRIALS = 3, 8, 2
ZALDUENDO_K, ZALDUENDO_N = 3, 3
ZALDUENDO_POOL = Path(__file__).with_name("zalduendo_inputs.json")
# k^n = 2^19 = 524,288 pieces: the largest n within the 10^6 piece budget.
DUALITY_K, DUALITY_N = 2, 19

# Seconds one round took at commit 87570f2 on 2 cores.  The traced run sizes
# its fixed number of rounds from these, so its call counts repeat exactly.
NOMINAL_ROUND_S = {"sweep": 0.75, "zalduendo": 0.95, "duality": 1.3}


def format_coeff(z: complex) -> str:
    """Lossless re+imi literal, as the CLI's --coeffs flag reads it."""
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(10 ** 6)


def _sweep_round(rng: random.Random) -> List[Dict]:
    # One op per regime: p <= k (l_1 / l_inf) and k < p (l_{p/k} / l_{p/(p-k)}).
    ops = []
    for low, high in ((1.25, float(SWEEP_K)), (SWEEP_K + 0.5, 8.0)):
        p = round(rng.uniform(low, high), 3)
        argv = ["sweep", "--k", str(SWEEP_K), "--n", str(SWEEP_N), "--p", repr(p),
                "--trials", str(SWEEP_TRIALS), "--seed", str(_cli_seed(rng))]
        ops.append({"k": SWEEP_K, "p": p, "n": SWEEP_N, "trials": SWEEP_TRIALS,
                    "argvs": [argv]})
    return ops


def zalduendo_op(p: float, seed: int) -> Dict:
    argv = ["zalduendo-check", "--k", str(ZALDUENDO_K), "--n", str(ZALDUENDO_N),
            "--p", repr(p), "--trials", "1", "--seed", str(seed)]
    return {"k": ZALDUENDO_K, "p": p, "n": ZALDUENDO_N, "seed": seed, "argvs": [argv]}


def _zalduendo_rounds(rng: random.Random, count: int) -> List[List[Dict]]:
    # Pairs from the screened pool (see screen_zalduendo.py), walked in seeded
    # order, so every run of about a pool's length holds nearly the same forms.
    pool = json.loads(ZALDUENDO_POOL.read_text())["inputs"]
    ops: List[Dict] = []
    while len(ops) < 2 * count:
        order = list(pool)
        rng.shuffle(order)
        ops += [zalduendo_op(p, seed) for p, seed in order]
    return [ops[i:i + 2] for i in range(0, 2 * count, 2)]


def _duality_round(rng: random.Random) -> List[Dict]:
    # One real and one complex coefficient vector, each checked on both sides
    # of the isometry: pi-norm (tensor side) and oa-norm (polynomial side).
    ops = []
    for complex_values in (False, True):
        p = round(rng.uniform(DUALITY_K + 0.5, 8.0), 3)
        coeffs = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0) if complex_values else 0.0)
                  for _ in range(DUALITY_N)]
        flag = "--coeffs=" + ",".join(format_coeff(z) for z in coeffs)
        seed = str(_cli_seed(rng))
        common = ["--k", str(DUALITY_K), "--p", repr(p), flag, "--seed", seed]
        ops.append({"k": DUALITY_K, "p": p, "n": DUALITY_N, "coeffs": coeffs,
                    "argvs": [["pi-norm"] + common, ["oa-norm"] + common]})
    return ops


def _each(build: Callable[[random.Random], List[Dict]]):
    return lambda rng, count: [build(rng) for _ in range(count)]


ROUNDS = {"sweep": _each(_sweep_round), "zalduendo": _zalduendo_rounds,
          "duality": _each(_duality_round)}


def make_rounds(workload: str, seed: int, count: int = POOL_ROUNDS) -> List[List[Dict]]:
    """``count`` rounds of ops for ``workload``; the same seed gives the same rounds."""
    return ROUNDS[workload](random.Random(f"{workload}:{seed}"), count)

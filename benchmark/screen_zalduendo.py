"""Rebuild zalduendo_inputs.json, the input pool of the zalduendo workload.

    python3 benchmark/screen_zalduendo.py

``zalduendo-check`` cross-checks two heuristic sup-norm oracles, the ascent
and the zooming grid, and on about one random form in a hundred they differ
by more than the 1e-4 agreement tolerance, so the command exits 1 on some
seeds and not others.  A benchmark run must not fail by the luck of its seed,
so the workload draws from this fixed pool of candidate (p, seed) pairs that
pass every check at the commit that screened them.  Rejected pairs are kept
in the file with their reason, as reproducers of that fault.
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH)]

import worker  # noqa: E402  (sets the thread pools before numpy)
import oadiag.cli  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from run import commit  # noqa: E402

POOL_SIZE = 64


def main() -> int:
    rng = random.Random("zalduendo-pool")
    inputs, rejected = [], []
    while len(inputs) < POOL_SIZE:
        p = round(rng.uniform(workloads.ZALDUENDO_K + 0.5, 8.0), 3)
        op = workloads.zalduendo_op(p, rng.randrange(10 ** 6))
        tally = worker.Tally()
        tally.run_round(verify.check_zalduendo, oadiag.cli, [op])
        if tally.problems:
            rejected.append({"p": op["p"], "seed": op["seed"],
                             "problems": tally.problems[0]["problems"]})
        else:
            inputs.append([op["p"], op["seed"]])
    doc = {"commit": commit(), "inputs": inputs, "rejected": rejected}
    (BENCH / "zalduendo_inputs.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(inputs)} pairs kept, {len(rejected)} rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

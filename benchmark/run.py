"""oadiag benchmark entry point.

    python3 benchmark/run.py --workload sweep|zalduendo|duality --seed N \\
        --seconds T --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes of
benchmark/worker.py.  With --trace 0 it prints the end-to-end metrics, each
time scaled by the reference kernel of reference.py; with --trace 1 a traced
run prints the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the line before it holds the
provenance block and the unscaled wall-clock figures.  A copy of both, with
the raw samples, is written under benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import scale  # noqa: E402
from workloads import NOMINAL_ROUND_S, ROUNDS  # noqa: E402

SETUPS = 7          # set-up samples per run; setup_s is their median
TIMEOUT_S = 170.0   # the whole run, all worker processes included


class WorkerError(RuntimeError):
    pass


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(deadline: float, *args: str):
    """Start a worker, time it to its ``ready`` line, wait for it and parse its last line.

    Returns (set-up seconds, the worker's result dict).
    """
    # Byte-code is cached, whoever calls, and only inside the checkout.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(BENCH / "out" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} did not finish in time")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {args} failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed no result")
    return setup_s, json.loads(lines[-1])


def timed_run(workload: str, seed: int, seconds: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_only():
        setup_s, ready = run_worker(deadline, *common, "--setup-only")
        return setup_s, ready["setup_ref_ms"]

    # Half the set-up samples before the timed loop and half after it, so
    # they straddle the machine's slow and fast phases the way the loop does.
    setups = [setup_only() for _ in range(SETUPS // 2)]
    setup_s, result = run_worker(deadline, *common, "--seconds", str(seconds))
    setups += [(setup_s, result["setup_ref_ms"])] + [setup_only() for _ in range(SETUPS // 2)]
    # Each op is scaled by the reference kernel timed right after it.
    op_ref_ms = [scale(op, ref) for op, ref in zip(result["op_ms"], result["ref_ms"])]
    metrics = {
        "records_per_ref_s": (result["records"] / (sum(op_ref_ms) / 1e3), "1/ref_s"),
        "op_ref_ms_p50": (statistics.median(op_ref_ms), "ref_ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(scale(s, ref) for s, ref in setups), "s"),
    }
    result["setup_samples"] = [{"setup_s": s, "ref_ms": ref} for s, ref in setups]
    result["wall"] = {
        "records_per_s": result["records"] / result["elapsed_s"],
        "op_ms_p50": statistics.median(result["op_ms"]),
        "ref_ms_p50": statistics.median(result["ref_ms"]),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    return result, [result], metrics


def traced_run(workload: str, seed: int, seconds: int, deadline: float):
    # A fixed number of rounds, so the call counts repeat exactly; each round
    # runs once untraced and once traced, which takes about ``seconds``.
    rounds = max(1, round(seconds / 2 / NOMINAL_ROUND_S[workload]))
    _, result = run_worker(deadline, "--workload", workload, "--seed", str(seed),
                           "--rounds", str(rounds), "--trace")
    plain, traced = result["untraced"], result["traced"]
    plain_rps = plain["records"] / plain["elapsed_s"]
    traced_rps = traced["records"] / traced["elapsed_s"]
    metrics = {name: (value, "ms" if name.endswith("_ms") else "count")
               for name, value in result["layers"].items()}
    metrics["trace.records_per_s"] = (traced_rps, "1/s")
    metrics["trace.untraced_records_per_s"] = (plain_rps, "1/s")
    # Median over rounds of the paired time ratio: robust to a noisy neighbour.
    ratios = [t / p for t, p in zip(traced["round_s"], plain["round_s"])]
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return result, [plain, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oadiag" / "cli.py").is_file():
        print(f"error: no oadiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    run = traced_run if args.trace else timed_run
    try:
        raw, tallies, metrics = run(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for tally in tallies:
        for problem in tally["problems"]:
            print(f"failed op: {json.dumps(problem)}", file=sys.stderr)
    summary = {
        "correct": all(t["wrong"] == 0 for t in tallies),
        "attempted": sum(t["ops"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    prov = dict(raw.pop("provenance"), commit=commit(), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": prov, "result": summary,
                                    "raw": raw}, indent=1) + "\n")
    print(json.dumps({"provenance": prov, "wall": raw.get("wall")}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

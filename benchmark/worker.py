"""One workload process: set up, run ops in a closed loop, report the raw figures.

Started by run.py.  It prints ``ready`` once oadiag is imported and the
seeded inputs exist, times the reference kernel (reference.py) to scale that
set-up, then runs whole rounds of ops, one after another, each an in-process
call of ``oadiag.cli.main`` followed by one reference kernel, and ends with
one JSON line.
"""

import os

# Hold numpy's BLAS and OpenMP pools at one thread; this must precede numpy.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REFS = 5      # reference kernels timed right after set-up


def run_op(main, op):
    """Run every invocation of ``op``; returns (seconds, output texts, error or None)."""
    texts = []
    start = perf_counter()
    error = None
    try:
        for argv in op["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 0:
                error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
                break
            texts.append(out.getvalue())
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # an op that raises is counted as failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, texts, error


class Tally:
    """Figures of the ops one closed-loop client ran."""

    def __init__(self) -> None:
        self.op_ms, self.ref_ms, self.records, self.failed, self.wrong = [], [], 0, 0, 0
        self.seconds, self.round_s, self.problems = 0.0, [], []

    def run_round(self, check, cli, ops) -> None:
        """Run, time the reference kernel after, and check each op.

        An op fails on a non-zero exit, a raise or a failed check.

        ``cli.main`` is looked up per op, so a tracer installed between rounds is used.
        """
        start = perf_counter()
        for op in ops:
            seconds, texts, error = run_op(cli.main, op)
            self.op_ms.append(seconds * 1e3)
            self.ref_ms.append(reference.time_ms())
            docs, problems = [], [error] if error else []
            if not error:
                try:
                    docs = [json.loads(t) for t in texts]
                    problems = check(op, docs)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.wrong += error is None
                self.problems.append({"argvs": op["argvs"], "problems": problems})
            else:
                self.records += sum(len(d["records"]) for d in docs)
        self.round_s.append(perf_counter() - start)
        self.seconds += self.round_s[-1]

    def as_dict(self) -> dict:
        return {"ops": len(self.op_ms), "failed": self.failed, "wrong": self.wrong,
                "records": self.records, "elapsed_s": self.seconds, "op_ms": self.op_ms,
                "ref_ms": self.ref_ms,
                "round_s": self.round_s, "problems": self.problems[:5]}


def provenance(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1, help="round count of a traced run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import oadiag.cli

    import verify
    import workloads
    rounds = workloads.make_rounds(args.workload, args.seed)
    print("ready", flush=True)
    setup = {"setup_ref_ms": reference.median_ms(SETUP_REFS)}
    if args.setup_only:
        print(json.dumps(setup), flush=True)
        return 0

    check = verify.CHECKS[args.workload]
    result = {"provenance": provenance(np), **setup}
    if args.trace:
        # Each round runs untraced and traced in turn, the first of the two
        # alternating, so the overhead is a paired comparison in one process.
        import layers
        tracer = layers.Tracer()
        plain, traced = Tally(), Tally()
        for r in range(args.rounds):
            for tally in ((plain, traced) if r % 2 == 0 else (traced, plain)):
                if tally is traced:
                    tracer.install()
                try:
                    tally.run_round(check, oadiag.cli, rounds[r % len(rounds)])
                finally:
                    if tally is traced:
                        tracer.uninstall()
        result.update(untraced=plain.as_dict(), traced=traced.as_dict(),
                      layers=tracer.metrics(len(traced.op_ms)))
    else:
        tally, done = Tally(), 0
        while tally.seconds < args.seconds:
            tally.run_round(check, oadiag.cli, rounds[done % len(rounds)])
            done += 1
        result.update(tally.as_dict())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

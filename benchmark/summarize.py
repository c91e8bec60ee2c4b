"""Median and quartiles of each metric over saved runs.

    python3 benchmark/summarize.py [benchmark/out/*.json ...]

Groups the result files run.py writes under benchmark/out/ by workload and
trace mode, and prints for every metric, and for the unscaled wall-clock
figures (``wall.*``), its median, first and third quartiles, and the
quartile spread as a share of the median.
"""

import glob
import json
import statistics
import sys
from collections import defaultdict


def main() -> int:
    paths = sys.argv[1:] or sorted(glob.glob("benchmark/out/*.json"))
    groups = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        prov, result = doc["provenance"], doc["result"]
        key = (prov["workload"], prov["trace"])
        groups[key]["failed/attempted"].append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            groups[key][name].append(metric["value"])
        for name, value in (doc["raw"].get("wall") or {}).items():
            groups[key]["wall." + name].append(value)
    for (workload, trace), metrics in sorted(groups.items()):
        runs = len(metrics["failed/attempted"])
        print(f"{workload} (trace {trace}, {runs} runs)")
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            print(f"  {name:40s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

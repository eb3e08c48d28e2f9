#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD [FIRST_SEED] [RUNS]

Runs `perfbench/run.py --workload WORKLOAD --seed s --seconds
<run_seconds> --trace 0` for RUNS consecutive seeds (default 10, from
FIRST_SEED, default 1) and prints, per end-to-end metric, the median
and the distance between the first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread
below a third of the bound is steady.
"""

import json
import statistics
import subprocess
import sys


def main(argv):
    workload = argv[0]
    first = int(argv[1]) if len(argv) > 1 else 1
    runs = int(argv[2]) if len(argv) > 2 else 10
    spec = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stdout[-2000:] + out.stderr[-2000:]))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
              flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "steady" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        print("%-18s median %12.4f  spread %.4f  bound %.2f  %s" % (m["name"], med, spread, m["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

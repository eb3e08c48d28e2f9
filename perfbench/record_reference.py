#!/usr/bin/env python3
"""Record the reference selections the selection workloads check against.

    python3 perfbench/record_reference.py [--tiny]

Run from the repository root after building (python3 perfbench/run.py
builds). Runs each selection workload once per member of its input
family and writes the selected indices into perfbench/reference.json.
Re-record only when a change is meant to alter selections, and say so
in the change.
"""

import json
import os
import subprocess
import sys

BDIR = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BENCH = os.path.join(BDIR, "default", "perfbench", "bench.exe")
OUT = os.path.join(BDIR, "perfbench-out")
REF = "perfbench/reference.json"
FAMILY_SIZE = 3  # the workload seed picks member seed mod 3


def main(argv):
    tiny = argv == ["--tiny"]
    ref = json.load(open(REF)) if os.path.exists(REF) else {}
    for workload in ["select_exact", "select_stream"]:
        for seed in range(FAMILY_SIZE):
            cmd = [BENCH, "--workload", workload, "--seed", str(seed), "--seconds", "0.001",
                   "--trace", "0", "--out", OUT] + (["--tiny"] if tiny else [])
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
            with open(os.path.join(OUT, "%s-seed%d-trace0.json" % (workload, seed))) as f:
                notes = json.load(f)["notes"]
            ref.setdefault(workload, {})[notes["input"]] = notes["selected"]
            print(workload, notes["input"], len(notes["selected"]), "selected")
    with open(REF, "w") as f:
        f.write("{\n" + ",\n".join(
            '  "%s": {\n%s\n  }' % (w, ",\n".join('    "%s": %s' % (k, json.dumps(v)) for k, v in sorted(ref[w].items())))
            for w in sorted(ref)) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])

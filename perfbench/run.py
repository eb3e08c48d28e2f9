#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout. Builds bin/pathsel.exe and
perfbench/bench.exe with dune into the build directory named by
CARGO_TARGET_DIR (default .bench_build), then runs one workload. The
last line of standard output is the benchmark's JSON result; the exit
code is 0 only when every correctness check passed.

    python3 perfbench/run.py --self-test

runs the benchmark's unit tests and all three workloads at tiny size.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT_FILES = ["dune-project", "BENCHMARK.json", "bin/pathsel.ml", "lib", "perfbench/bench.ml"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(d) or ".." in d.split(os.sep):
        d = ".bench_build"
    return d


def kill_group(proc):
    """SIGKILL proc's process group, reap proc, and wait (up to 10 s)
    until no other member of the group is left."""
    deadline = time.time() + 10
    sig = signal.SIGKILL
    while True:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        proc.wait()
        if time.time() > deadline:
            break
        sig = 0
        time.sleep(0.05)
    proc.wait()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; no member outlives the call."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)), 3)
    finally:
        kill_group(proc)


def build(bdir, targets):
    cmd = ["dune", "build", "--root", ".", "--build-dir", bdir, "--profile", "release",
           "--cache", "disabled"] + targets
    code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code, code)


def declared_metrics():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def main(argv):
    for f in ROOT_FILES:
        if not os.path.exists(f):
            fail("%s not found: run from the root of a full source checkout" % f)
    bdir = build_dir()
    bench = os.path.join(bdir, "default", "perfbench", "bench.exe")
    pathsel = os.path.join(bdir, "default", "bin", "pathsel.exe")
    if argv == ["--self-test"]:
        build(bdir, ["./bin/pathsel.exe", "./perfbench/bench.exe", "@perfbench/runtest", "@perfbench/tiny"])
        print("perfbench self-test: ok")
        return 0
    e2e, layers, workloads = declared_metrics()
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 >= len(argv) or argv[i + 1] not in workloads:
            fail("--workload must be one of " + ", ".join(workloads))
    build(bdir, ["./bin/pathsel.exe", "./perfbench/bench.exe"])
    out = subprocess.Popen([bench] + argv + ["--pathsel", pathsel, "--out", os.path.join(bdir, "perfbench-out")],
                           stdout=subprocess.PIPE, start_new_session=True, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, kill_group, [out])
    timer.start()
    lines = []
    try:
        for line in out.stdout:
            sys.stdout.write(line)
            lines.append(line)
        code = out.wait()
    finally:
        timer.cancel()
        kill_group(out)
    if code != 0:
        return code
    # the result must name exactly the metrics BENCHMARK.json declares
    result = json.loads(lines[-1])
    want = layers if "--trace" in argv and argv[argv.index("--trace") + 1] == "1" else e2e
    if sorted(result["metrics"]) != sorted(want):
        fail("result metrics %s differ from BENCHMARK.json %s" % (sorted(result["metrics"]), sorted(want)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

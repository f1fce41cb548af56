#!/usr/bin/env python3
"""Build and run one workload of the kvscale benchmark.

    python3 perfbench/run.py --workload coarse --seed 1 --seconds 20 --trace 0

Run from the root of a kvscale checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when unset; later
calls only rebuild what changed. The run itself is perfbench's kvbench
binary; this script stamps the environment, checks that the metrics it
printed are exactly the ones BENCHMARK.json declares for the mode, and
prints the result object as its last line. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coarse", "fine", "ingest_read")
BUILD_TIMEOUT_S = 840


def run_timeout(seconds):
    """kvbench's limit: its window, twice over, plus set-up and priming."""
    return 110 + 2 * seconds


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    sources = os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(sources):
        fail("kvscale sources (src/) not found next to perfbench/")
    tree = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "kvbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(tree, "kvbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in metrics]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    print("env: git_sha=%s" % git_sha(), flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    timeout = run_timeout(args.seconds)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("kvbench did not finish within %d s" % timeout)
    lines = done.stdout.splitlines()
    if not lines:
        fail("kvbench printed nothing (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("kvbench's last line is not JSON (exit %d)" % done.returncode)

    declared = declared_metrics(bool(args.trace))
    if declared is not None:
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        if sorted(printed) != sorted(declared):
            fail("printed metrics %s differ from BENCHMARK.json's %s" %
                 (sorted(printed), sorted(declared)))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured once and rebuilt incrementally. The last stdout line is the
benchmark's JSON result; its metric names and units are checked against
BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1). Exit code
0 when a result was printed; non-zero, without a result, when the build or
the run failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
NOISY_WARNING = "exhausted max_attempts_per_bin="


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    command = ["cmake", "--build", build_dir, "--target", "perfbench",
               "perfbench_tests", "-j", BUILD_JOBS]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build_dir = os.path.abspath(build_dir)
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", build_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    # The sweeps print one undersampled-bin warning per bin and round; they
    # are expected (high-utilization bins rarely fill) and folded to a count.
    noisy = 0
    for line in proc.stderr.splitlines():
        if NOISY_WARNING in line:
            noisy += 1
        else:
            print(line, file=sys.stderr)
    if noisy:
        print("(%d undersampled-bin warnings)" % noisy, file=sys.stderr)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    expected = expected_metrics(args.trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(expected) - set(got)),
                                sorted(set(got.items()) - set(expected.items()))))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: repeats perfbench runs over seeds and reports spreads.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000]
        [--workloads sweep_lean,serve_closed] [--save batch.json]
        [--compare earlier_batch.json]

For each workload, runs `perfbench/run.py --trace 0` once per seed
(seed-base, seed-base + 1, ...) and, per end-to-end metric, prints the median
and the quartile spread (Q3 - Q1 of statistics.quantiles(values, n=4)) as a
share of the median, beside the metric's bound from BENCHMARK.json, and the
operations attempted and failed over the workload's runs. A spread
above the bound fails; one above a third of the bound is flagged. With
--compare, also checks that no median is worse than the earlier batch's by
more than the bound. Exit code 1 when a run fails or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    ok = True
    batch = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for i in range(args.runs):
            result = run_once(spec, workload, args.seed_base + i)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect" %
                      (workload, args.seed_base + i))
                ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        batch[workload] = values
        print("== %s (%d runs, %d of %d operations failed)" % (
            workload, len(values["setup_s"]), failed, attempted))
        for name, series in values.items():
            if len(series) < 2:
                continue
            share, med = spread(series)
            bound = bounds[name]["bound"]
            verdict = "ok"
            if share > bound:
                verdict, ok = "TOO NOISY", False
            elif share > bound / 3:
                verdict = "above bound/3"
            line = "  %-15s median %14.6g  spread %6.3f  bound %.3f  %s" % (
                name, med, share, bound, verdict)
            if workload in earlier and len(earlier[workload].get(name, [])) > 1:
                before = statistics.median(earlier[workload][name])
                lower = bounds[name]["better"] == "lower"
                worse = (med - before) / before if lower else (before - med) / before
                line += "  worse than earlier by %+.3f" % worse
                if worse > bound:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(batch, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeats the benchmark over seeds and reports each metric's spread.

    python3 perfbench/collect.py [--runs 10] [--first-seed 1]
                                 [--workload NAME ...] [--traced 1]
                                 [--baseline perfbench/baseline.json]

For every workload: --runs untraced runs of run.py, each with another
--seed, then --traced traced runs. For each end_to_end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json. With --baseline it also writes those
figures, the per-layer medians of the traced runs and the host provenance
to that file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s%s" % (" ".join(cmd), proc.stdout,
                                           proc.stderr[-2000:]))
    provenance = json.loads(lines[0].split("provenance ", 1)[1])
    return json.loads(lines[-1]), provenance


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--baseline")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = {"workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            result, provenance = run(workload, args.first_seed + i,
                                     spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print("%s seed %d: %s" % (workload, args.first_seed + i, " ".join(
                "%s=%.4g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                                  "q3": q3, "spread": (q3 - q1) / med,
                                  "runs": len(v)}
            print("  %-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.4f"
                  "  (a third of the bound: %.4f)" % (
                      m["name"], med, q1, q3, (q3 - q1) / med,
                      m["bound"] / 3), flush=True)
        layers = {}
        for i in range(args.traced):
            result, _ = run(workload, args.first_seed + i,
                            spec["run_seconds"], 1)
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        baseline["workloads"][workload] = {
            "scale": provenance.pop("scale"),
            "world_seed": provenance.pop("world_seed"),
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "end_to_end": summary,
            "per_layer_median": {k: statistics.median(v)
                                 for k, v in layers.items()},
            "traced_runs": args.traced,
        }
        provenance.pop("seed")
        baseline["provenance"] = provenance
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end pipeline benchmark for govdns.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--world-seed N] [--scale X]
                             [--expect-digest HEX] [--pin]

Builds perfbench/ (the repository's libraries plus the benchmark binary) into
.bench_build/ of the checkout, runs one workload in one process, checks its
outputs, prints a table of every metric with its unit and sample count, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json
(medians over the run's passes); with --trace 1 they are its per_layer
metrics, from a separate traced run. The exit code is 0 only when every
correctness check passed.

Correctness: every pass of the run must produce the same output digest (the
report JSON, or the mined datasets of the sweep), the digest must equal the
one pinned in perfbench/digests.json for the workload, scale and world seed
(or --expect-digest), and the binary's own checks must pass: the report's
funnel and quarantine counts against the measured dataset, resume and
journal byte-identity, worker-count invariance of mining. --pin records
the run's digest in perfbench/digests.json instead of checking it; use it
only when a change is meant to alter the output bytes, and say so.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "govdns_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no govdns sources at src/ next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def digest_key(raw):
    return "%s@%g" % (raw["workload"], raw["scale"]), str(raw["world_seed"])


def load_pins():
    with open(DIGESTS) as f:
        return json.load(f)


def pin_digest(raw):
    pins = load_pins()
    key, world_seed = digest_key(raw)
    pins.setdefault(key, {})[world_seed] = raw["digest"]
    with open(DIGESTS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--world-seed", type=int, default=2022)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="override the workload's world scale (smoke tests)")
    ap.add_argument("--expect-digest",
                    help="digest to require instead of the pinned one")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's digest as the pinned one")
    ap.add_argument("--report-out",
                    help="write the first pass's report JSON here")
    args = ap.parse_args()

    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    if not build():
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--world-seed", str(args.world_seed), "--work-dir", work_dir]
    if args.scale > 0:
        cmd += ["--scale", repr(args.scale)]
    if args.report_out:
        cmd += ["--report-out", args.report_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: benchmark printed nothing (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])
    prov = dict(raw["provenance"], git_revision=git_revision(),
                scale=raw["scale"], world_seed=raw["world_seed"],
                seed=raw["seed"])
    if prov["sanitized"]:
        log("perfbench: refusing to report from a sanitizer build")
        return 1

    checks = list(raw["checks"])
    key, world_seed = digest_key(raw)
    expected = args.expect_digest or load_pins().get(key, {}).get(world_seed)
    if args.pin:
        expected = None
    if expected is not None:
        checks.append({"name": "digest_matches_pin",
                       "ok": raw["digest"] == expected,
                       "detail": "digest %s, pinned %s" % (raw["digest"],
                                                            expected)})
    correct = proc.returncode == 0 and all(c["ok"] for c in checks)
    if args.pin and correct:
        pin_digest(raw)

    samples = raw["samples"]
    rows = []  # (name, unit, median, q1, q3, n)
    if args.trace == 0:
        for name in ("setup_s", "pipeline_s", "cpu_s", "resume_s"):
            if samples.get(name):
                v = samples[name]
                rows.append((name, "s", statistics.median(v)) + quartiles(v)
                            + (len(v),))
        rss = raw["peak_rss_mb"]
        rows.append(("peak_rss_mb", "MB", rss, rss, rss, 1))
        metric_specs = spec["end_to_end"]
    else:
        # Every per-layer metric on every workload: a layer the workload does
        # not run reads 0. A name the binary measured must be declared.
        metric_specs = spec["per_layer"]
        declared = {m["name"] for m in metric_specs}
        unknown = sorted(set(raw["layers"]) - declared)
        if unknown:
            log("perfbench: undeclared per-layer metrics: %s" % unknown)
            return 1
        for m in metric_specs:
            value = raw["layers"].get(m["name"], 0.0)
            rows.append((m["name"], m["unit"], value, value, value,
                         raw["traced_passes"]))
    values = {r[0]: r[2] for r in rows}

    attempted = max(int(raw["operations"]), 1)
    failed = int(raw["failed"]) if correct else attempted

    print("workload %s  input_domains %d  provenance %s" % (
        args.workload, raw["input_domains"], json.dumps(prov, sort_keys=True)))
    print("%-30s %-6s %14s %14s %14s %4s" % ("metric", "unit", "median", "q1",
                                             "q3", "n"))
    units = {m["name"]: m["unit"] for m in metric_specs}
    for name, unit, med, q1, q3, n in rows:
        print("%-30s %-6s %14.6g %14.6g %14.6g %4d" % (
            name, units.get(name, unit), med, q1, q3, n))
    print("failed_frac %.6g (failed %d of %d attempted; an operation is a "
          "%s)" % (failed / attempted, failed, attempted, raw["operation"]))
    for c in checks:
        print("check %-30s %s%s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                    "" if c["ok"] else "  " + c["detail"]))

    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            log("perfbench: metric %s was not measured" % m["name"])
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

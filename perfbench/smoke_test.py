#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny worlds (about a minute).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json end to end at scale 0.02, untraced and
traced, and checks that:
  * each run is correct, exits 0 and prints every end_to_end (untraced) or
    per_layer (traced) metric with the unit BENCHMARK.json gives it;
  * the pinned digest is checked on the development and held-out worlds;
  * the traced sub-phase splits add up: mining sub-phases plus
    mining.unattributed_s give mining.s, analyzers plus
    report.unattributed_s give report.s;
  * a corrupted digest makes the run incorrect and the command exit non-zero.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
WORLD_SEEDS = ("2022", "1009")

failures = []


def expect(ok, what):
    print("%s %s" % ("ok    " if ok else "FAILED", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        for world_seed in WORLD_SEEDS:
            expect(world_seed in pins.get("%s@%s" % (name, SCALE), {}),
                   "%s: digest pinned for world %s" % (name, world_seed))
            code, result, out = run(name, 0, "--world-seed", world_seed)
            expect(code == 0 and result is not None and result["correct"],
                   "%s world %s: untraced run correct" % (name, world_seed))
            expect("check digest_matches_pin" in out,
                   "%s world %s: pinned digest checked" % (name, world_seed))
        for trace, metric_specs in ((0, spec["end_to_end"]),
                                    (1, spec["per_layer"])):
            code, result, _ = run(name, trace)
            if result is None:
                expect(False, "%s trace %d: printed a result" % (name, trace))
                continue
            expect(code == 0 and result["correct"],
                   "%s trace %d: correct" % (name, trace))
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   "%s trace %d: attempted %d, failed %d" % (
                       name, trace, result["attempted"], result["failed"]))
            metrics = result["metrics"]
            missing = [m["name"] for m in metric_specs
                       if m["name"] not in metrics
                       or metrics[m["name"]]["unit"] != m["unit"]]
            expect(not missing, "%s trace %d: every metric printed with its "
                   "unit %s" % (name, trace, missing or ""))
            if trace == 1 and not missing:
                v = {k: m["value"] for k, m in metrics.items()}
                mining = sum(v[k] for k in (
                    "mining.freeze_s", "mining.shard_s",
                    "mining.fold.intern_s", "mining.fold_s",
                    "mining.unattributed_s"))
                expect(abs(mining - v["mining.s"]) < 1e-6,
                       "%s: mining sub-phases sum to mining.s" % name)
                report = v["report.unattributed_s"] + sum(
                    x for k, x in v.items() if k.startswith("analyze."))
                expect(abs(report - v["report.s"]) < 1e-6,
                       "%s: analyzers sum to report.s" % name)

        code, result, _ = run(name, 0, "--expect-digest", "0" * 16)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"],
               "%s: a corrupted digest is caught" % name)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

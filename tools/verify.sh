#!/usr/bin/env bash
# Tier-1 verification, twice: a normal release build and an ASan+UBSan
# build. The sanitized pass exists because the chaos model deliberately
# feeds the wire-format parsers corrupted datagrams; memory bugs there must
# fail CI, not just crash probabilistically.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
# Hard wall-clock cap on every ctest invocation: the degradation model
# (DESIGN.md §6g) exists precisely because hangs happen, and the harness
# that tests it must not itself hang CI when a regression wedges a worker.
CTEST_TIMEOUT=${CTEST_TIMEOUT:-900}

echo "==> tier-1: release build + ctest"
cmake --preset release >/dev/null
cmake --build --preset release -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset release -j "${JOBS}"

echo "==> smoke: govdns_study observability exports parse"
# The release binary must produce valid JSON from --json/--metrics/--trace
# on a small world, and the metrics document must carry the measurement
# counters — a cheap end-to-end check that the obs layer is actually wired.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "${SMOKE_DIR}"' EXIT
./build/tools/govdns_study --scale 0.01 --no-report \
  --json "${SMOKE_DIR}/report.json" \
  --metrics "${SMOKE_DIR}/metrics.json" \
  --trace "${SMOKE_DIR}/trace.json" 2>/dev/null
python3 - "${SMOKE_DIR}" <<'EOF'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
report = json.loads((d / "report.json").read_text())
assert "resilience" in report and "profile" in report, sorted(report)
assert any(p["name"] == "measurement" for p in report["profile"])
metrics = json.loads((d / "metrics.json").read_text())
counters = {c["name"] for c in metrics["counters"]}
assert "measure.queries" in counters, sorted(counters)
assert "mining.domains" in counters, sorted(counters)
trace = json.loads((d / "trace.json").read_text())
assert trace["folded_domains"] >= len(trace["domains"])
print("smoke: report/metrics/trace exports parse OK")
EOF

echo "==> smoke: shared cut cache does not churn"
# A shared negative is judged on the clock that stamped it (DESIGN.md §6c),
# so a run computes each zone cut about once: publishes stay close to the
# cache's final size, and the per-stripe negative bound never has to evict.
# Scale 0.05 is the smallest that separates churn (ratio ~2.1) from none
# (~1.1); at 0.01 both sit near 1.1.
./build/tools/govdns_study --scale 0.05 --no-report \
  --metrics "${SMOKE_DIR}/churn_metrics.json" 2>/dev/null
python3 - "${SMOKE_DIR}/churn_metrics.json" <<'EOF'
import json, sys
gauges = {g["name"]: g["value"]
          for g in json.loads(open(sys.argv[1]).read())["gauges"]}
size, publishes = gauges["cutcache.size"], gauges["cutcache.publishes"]
evictions = gauges["cutcache.negative_evictions"]
assert size > 0, gauges
assert publishes <= 1.5 * size, (publishes, size)
assert evictions == 0, evictions
print(f"smoke: cut cache publishes/size {publishes / size:.2f} <= 1.5, "
      f"0 negative evictions OK")
EOF

echo "==> smoke: bench_parallel_mine (identity + fold scaling, both sweeps)"
# The mining pool is only allowed to change wall-clock time, never bytes —
# at every worker count, on every snapshot substrate, at world scale and at
# the 10x GOVDNS_MINE_SCALE sweep. The parallel-fold refactor must also
# actually scale: >=3.5x at 4 workers, measured when the host has the cores
# to show it, otherwise via the Amdahl projection from the profiled
# 1-worker phase decomposition (DESIGN.md §6j).
GOVDNS_SCALE=0.05 GOVDNS_MINE_SCALE=0.5 \
  GOVDNS_MINING_JSON="${SMOKE_DIR}/BENCH_mining.json" \
  ./build/bench/bench_parallel_mine --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_mining.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())

def check(sweep, tag):
    points = {p["workers"]: p for p in sweep["sweep"]}
    assert {1, 2, 4, 8} <= set(points), (tag, sorted(points))
    assert all(p["identical_to_serial"] for p in sweep["sweep"]), (tag, sweep)
    subs = sweep["substrates"]
    assert {(s["substrate"], s["workers"]) for s in subs} == \
        {("frozen", 1), ("frozen", 4), ("mapped", 1), ("mapped", 4)}, (tag, subs)
    assert all(s["identical_to_serial"] for s in subs), (tag, subs)
    p4 = points[4]
    speedup = p4["speedup_vs_serial"] if doc["cores"] >= 4 \
        else p4["projected_speedup"]
    kind = "measured" if doc["cores"] >= 4 else "projected"
    assert speedup >= 3.5, (tag, kind, speedup)
    print(f"smoke: mining sweep {tag}: identity OK, "
          f"{kind} 4-worker speedup {speedup:.2f}x >= 3.5x")

check(doc, f"scale={doc['scale']}")
big = doc.get("mine_scale_sweep")
assert big is not None, sorted(doc)
check(big, f"scale={big['scale']}")
EOF

echo "==> smoke: checkpoint kill/resume (byte-identical report)"
# Kill the study at several journal write points via --ckpt-kill-after,
# resume, and require the exported report to match an uninterrupted
# checkpointed baseline byte for byte (DESIGN.md §6f). The kill run must
# exit with the dedicated kill-point code (42) so a crash-for-another-reason
# can never masquerade as a successful fault injection.
CKPT_DIR="${SMOKE_DIR}/ckpt"
./build/tools/govdns_study --scale 0.01 --no-report \
  --checkpoint-dir "${CKPT_DIR}/base" \
  --json "${SMOKE_DIR}/ckpt_base.json" 2>"${SMOKE_DIR}/ckpt_base.err"
WRITES=$(python3 -c '
import json, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"\[ckpt\] stats (\{.*\})", text)
assert m, text
print(json.loads(m.group(1))["commits"])' "${SMOKE_DIR}/ckpt_base.err")
echo "smoke: baseline checkpointed run journals ${WRITES} writes"
for K in 1 $((WRITES / 2)) "${WRITES}"; do
  DIR="${CKPT_DIR}/kill_${K}"
  set +e
  ./build/tools/govdns_study --scale 0.01 --no-report \
    --checkpoint-dir "${DIR}" --ckpt-kill-after "${K}" \
    --json "${SMOKE_DIR}/ckpt_killed.json" 2>/dev/null
  STATUS=$?
  set -e
  if [ "${STATUS}" -ne 42 ]; then
    echo "smoke: kill at write ${K} exited ${STATUS}, expected 42" >&2
    exit 1
  fi
  ./build/tools/govdns_study --scale 0.01 --no-report \
    --checkpoint-dir "${DIR}" --resume \
    --json "${SMOKE_DIR}/ckpt_resumed.json" 2>/dev/null
  cmp "${SMOKE_DIR}/ckpt_base.json" "${SMOKE_DIR}/ckpt_resumed.json"
  echo "smoke: kill at write ${K} -> resume -> report byte-identical OK"
done

echo "==> smoke: multi-vantage supervision (kill a vantage, identical merge)"
# Three supervised multi-vantage runs on the same seed: uninterrupted, one
# shard crashed at a journal write point (the supervisor restarts it from
# its own journal), and one shard SIGKILLed mid-run on the wall clock. All
# three merged cross-vantage disagreement reports must be byte-identical
# (DESIGN.md §6k) — fault recovery may cost time, never bytes.
VANT_DIR="${SMOKE_DIR}/vantage"
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/base" \
  --json "${SMOKE_DIR}/vant_base.json" 2>/dev/null
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/crash" \
  --vantage-kill-after v1-far:3 \
  --json "${SMOKE_DIR}/vant_crash.json" 2>/dev/null
cmp "${SMOKE_DIR}/vant_base.json" "${SMOKE_DIR}/vant_crash.json"
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/sigkill" \
  --vantage-sigkill v0-base:150 \
  --json "${SMOKE_DIR}/vant_sigkill.json" 2>/dev/null
cmp "${SMOKE_DIR}/vant_base.json" "${SMOKE_DIR}/vant_sigkill.json"
python3 - "${SMOKE_DIR}/vant_base.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["vantages"], sorted(doc)
assert not doc["lost"], doc["lost"]
compared = doc["disagreement"]["countries_compared"]
assert compared > 0, doc["disagreement"]
print(f"smoke: vantage crash/SIGKILL -> restart -> merge byte-identical OK "
      f"({compared} countries compared)")
EOF

echo "==> smoke: snapshot file round-trip (mapped mining == frozen mining)"
# Write the world's PDNS database as a GVSN snapshot, then rerun the same
# study mining the mmapped file instead of freezing the database; the two
# exported reports must be byte-identical (DESIGN.md §6i).
SNAP="${SMOKE_DIR}/pdns.gvsn"
./build/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SNAP}" \
  --json "${SMOKE_DIR}/snap_base.json" 2>/dev/null
./build/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SNAP}" \
  --json "${SMOKE_DIR}/snap_mapped.json" 2>"${SMOKE_DIR}/snap_mapped.err"
cmp "${SMOKE_DIR}/snap_base.json" "${SMOKE_DIR}/snap_mapped.json"
grep -q "mapped ${SNAP}" "${SMOKE_DIR}/snap_mapped.err"
echo "smoke: mapped-snapshot report byte-identical OK"

echo "==> smoke: bench_snapshot_io (mapped open beats re-freezing)"
# The zero-copy resume path must actually be faster than re-freezing the
# database, and mining either snapshot substrate (frozen, mapped) at 1 or 4
# workers must reproduce the database-mined dataset exactly.
GOVDNS_SCALE=0.05 GOVDNS_SNAPSHOT_JSON="${SMOKE_DIR}/BENCH_snapshot.json" \
  ./build/bench/bench_snapshot_io --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_snapshot.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["mapped_vs_freeze_speedup"] > 1.0, doc
assert all(doc["mining_identity"].values()), doc
print(f"smoke: bench_snapshot_io speedup "
      f"{doc['mapped_vs_freeze_speedup']:.1f}x, mining identity OK")
EOF

echo "==> smoke: bench_query_engine (async engine >=10x sync loop)"
# The async engine exists to lift the real-socket path off the
# thread-per-query ceiling (DESIGN.md §6h). Run the bench artifact against
# the loopback echo server and assert the best window beats the 4-worker
# synchronous loop by at least 10x.
GOVDNS_NETIO_JSON="${SMOKE_DIR}/BENCH_netio.json" \
  ./build/bench/bench_query_engine --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_netio.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["max_ratio"] >= 10.0, doc
windows = {p["window"] for p in doc["sweep"]}
assert {64, 256, 1024} <= windows, sorted(windows)
print(f"smoke: bench_query_engine max_ratio {doc['max_ratio']:.1f}x OK")
EOF

echo "==> tier-1: asan/ubsan build + ctest"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset asan -j "${JOBS}"

echo "==> smoke: snapshot round-trip + mmap load under asan/ubsan"
# The mapped reader reinterprets file bytes in place; any bounds slip must
# trip the sanitizers here, not corrupt a real resume.
./build-asan/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SMOKE_DIR}/asan.gvsn" \
  --json "${SMOKE_DIR}/asan_base.json" 2>/dev/null
./build-asan/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SMOKE_DIR}/asan.gvsn" \
  --json "${SMOKE_DIR}/asan_mapped.json" 2>/dev/null
cmp "${SMOKE_DIR}/asan_base.json" "${SMOKE_DIR}/asan_mapped.json"
echo "smoke: asan snapshot round-trip OK"

echo "==> tier-1: ubsan-only build + ctest (hard-fail on UB)"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset ubsan -j "${JOBS}"

echo "==> smoke: snapshot round-trip + mmap load under ubsan"
./build-ubsan/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SMOKE_DIR}/ubsan.gvsn" \
  --json "${SMOKE_DIR}/ubsan_base.json" 2>/dev/null
./build-ubsan/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SMOKE_DIR}/ubsan.gvsn" \
  --json "${SMOKE_DIR}/ubsan_mapped.json" 2>/dev/null
cmp "${SMOKE_DIR}/ubsan_base.json" "${SMOKE_DIR}/ubsan_mapped.json"
echo "smoke: ubsan snapshot round-trip OK"

echo "==> tier-1: tsan build + concurrency suites"
# The sharded measurement and mining pools (shared cut cache, SimNetwork
# striping, frozen PDNS snapshot, per-worker merges) must be race-free, not
# just correct-when-lucky. Run the suites that exercise the parallel paths
# under ThreadSanitizer; the binaries are invoked directly so gtest filters
# stay simple and reliable. ckpt_test carries the cut-cache suites (the
# striped stats under concurrent publishers), parallel_measure_test the
# shared-negative and depth-guard pool tests.
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}" --target \
  simnet_test resolver_test measure_test parallel_measure_test \
  chaos_resilience_test pdns_test mining_test parallel_mine_test \
  mining_fold_test ckpt_test ckpt_resume_test degradation_test \
  quarantine_test netio_test snapshot_file_test
for t in simnet_test resolver_test measure_test parallel_measure_test \
         chaos_resilience_test pdns_test mining_test parallel_mine_test \
         mining_fold_test ckpt_test ckpt_resume_test degradation_test \
         quarantine_test netio_test snapshot_file_test; do
  echo "==> tsan: ${t}"
  timeout "${CTEST_TIMEOUT}" "./build-tsan/tests/${t}"
done

echo "==> verify OK (release + smoke + asan + ubsan + tsan)"

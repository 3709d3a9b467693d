// Snapshot I/O bench: re-freeze vs zero-copy mapped resume (DESIGN.md §6i).
//
// Freezes the shared BenchEnv world's PDNS database, writes the image as a
// GVSN snapshot file, and measures the operator's two ways to get a mining
// substrate back side by side:
//
//   * freeze — PdnsDatabase::Freeze(), which lowers the whole database into
//     a fresh in-memory image (O(entries)); and
//   * mapped — PdnsSnapshot::Open, which mmaps the file and validates
//     only the container CRCs and bounds (O(1) in world size).
//
// The artifact's headline number is mapped_vs_freeze_speedup. On the way
// the bench verifies the correctness contract: mining the frozen and the
// mapped snapshot, at 1 and at 4 workers, produces a MinedDataset
// byte-identical to mining the source database. Lands in
// BENCH_snapshot.json (path overridable via GOVDNS_SNAPSHOT_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/mining.h"
#include "pdns/db.h"
#include "pdns/snapshot_io.h"
#include "util/json.h"
#include "util/status.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;
namespace pdns = govdns::pdns;

constexpr uint64_t kBenchFingerprint = 0x60bd5bebcd5eedULL;

// One shared on-disk snapshot for every measurement below.
struct SnapshotFixture {
  std::string dir;
  std::string path;
  pdns::PdnsSnapshot frozen;  // the Freeze() source of truth
  double write_seconds = 0.0;
  uint64_t file_bytes = 0;

  static SnapshotFixture& Get() {
    static SnapshotFixture* fixture = [] {
      auto* f = new SnapshotFixture();
      auto& env = BenchEnv::Get();
      f->dir = (std::filesystem::temp_directory_path() /
                "govdns_bench_snapshot")
                   .string();
      std::filesystem::create_directories(f->dir);
      f->path = f->dir + "/pdns.gvsn";
      std::fprintf(stderr, "[bench] freezing PDNS database ...\n");
      f->frozen = env.world().pdns_db().Freeze();
      const auto start = std::chrono::steady_clock::now();
      auto status = pdns::WritePdnsSnapshotFile(f->frozen, kBenchFingerprint,
                                                f->dir, f->path);
      const auto stop = std::chrono::steady_clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "[bench] snapshot write failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      f->write_seconds = std::chrono::duration<double>(stop - start).count();
      f->file_bytes = std::filesystem::file_size(f->path);
      return f;
    }();
    return *fixture;
  }
};

double TimeSeconds(int reps, const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / reps;
}

void BM_Freeze(benchmark::State& state) {
  auto& env = BenchEnv::Get();
  for (auto _ : state) {
    auto snap = env.world().pdns_db().Freeze();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_Freeze)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_MappedOpen(benchmark::State& state) {
  auto& f = SnapshotFixture::Get();
  for (auto _ : state) {
    auto snap = pdns::PdnsSnapshot::Open(f.path, kBenchFingerprint);
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_MappedOpen)->Unit(benchmark::kMillisecond)->Iterations(1);

void PrintArtifact() {
  auto& env = BenchEnv::Get();
  auto& f = SnapshotFixture::Get();
  const auto& inputs = env.study().inputs();
  const auto& seeds = env.seeds();

  // --- Substrate timing. Mapped opens are microseconds; average over many.
  const double freeze_seconds = TimeSeconds(3, [&] {
    auto snap = env.world().pdns_db().Freeze();
    benchmark::DoNotOptimize(snap);
  });
  bool mapped_for_real = false;
  const double mapped_seconds = TimeSeconds(100, [&] {
    auto snap = pdns::PdnsSnapshot::Open(f.path, kBenchFingerprint);
    if (!snap.ok()) std::abort();
    mapped_for_real = snap->mapped();
    benchmark::DoNotOptimize(snap);
  });
  const double speedup =
      mapped_seconds > 0.0 ? freeze_seconds / mapped_seconds : 0.0;

  // --- Identity: every snapshot substrate, at 1 and 4 workers, must mine
  // the same bytes as the source database.
  govdns::core::PdnsMiner db_miner(inputs.pdns, inputs.mining);
  const auto baseline = db_miner.Mine(seeds);

  auto mine_with = [&](const auto& snapshot, int workers) {
    govdns::core::MinerOptions opts;
    opts.workers = workers;
    govdns::core::PdnsMiner miner(inputs.mining, opts);
    return miner.MineSnapshot(snapshot, seeds);
  };
  auto mapped = pdns::PdnsSnapshot::Open(f.path, kBenchFingerprint);
  if (!mapped.ok()) std::abort();
  const bool frozen_w1 = mine_with(f.frozen, 1) == baseline;
  const bool frozen_w4 = mine_with(f.frozen, 4) == baseline;
  const bool mapped_w1 = mine_with(*mapped, 1) == baseline;
  const bool mapped_w4 = mine_with(*mapped, 4) == baseline;

  govdns::util::TextTable table({"Path", "Seconds", "Speedup"});
  char freeze_s[32], mapped_s[32], speedup_s[32];
  std::snprintf(freeze_s, sizeof freeze_s, "%.6f", freeze_seconds);
  std::snprintf(mapped_s, sizeof mapped_s, "%.6f", mapped_seconds);
  std::snprintf(speedup_s, sizeof speedup_s, "%.1fx", speedup);
  table.AddRow({"freeze", freeze_s, "1.0x"});
  table.AddRow({"mapped", mapped_s, speedup_s});

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("scale", env.scale());
  w.Kv("names", int64_t(f.frozen.name_count()));
  w.Kv("entries", int64_t(f.frozen.entry_count()));
  w.Kv("file_bytes", int64_t(f.file_bytes));
  w.Kv("write_seconds", f.write_seconds);
  w.Kv("freeze_seconds", freeze_seconds);
  w.Kv("mapped_open_seconds", mapped_seconds);
  w.Kv("mapped_vs_freeze_speedup", speedup);
  w.Kv("mapped_for_real", mapped_for_real);
  w.Key("mining_identity").BeginObject()
      .Kv("frozen_w1", frozen_w1)
      .Kv("frozen_w4", frozen_w4)
      .Kv("mapped_w1", mapped_w1)
      .Kv("mapped_w4", mapped_w4)
      .EndObject();
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\nSnapshot resume cost — re-freeze vs mmap (zero-copy)\n");
  std::printf("(%zu names, %zu entries, %.1f MiB on disk; mapped open\n",
              f.frozen.name_count(), f.frozen.entry_count(),
              double(f.file_bytes) / (1024.0 * 1024.0));
  std::printf(" validates container CRCs only — O(1) in world size)\n");
  table.Print(std::cout);
  std::printf("mining identity (vs source db): frozen w1=%s w4=%s, "
              "mapped w1=%s w4=%s\n",
              frozen_w1 ? "yes" : "NO", frozen_w4 ? "yes" : "NO",
              mapped_w1 ? "yes" : "NO", mapped_w4 ? "yes" : "NO");
  std::fprintf(stderr, "[bench] snapshot %s\n", json.c_str());

  govdns::bench::WriteArtifactJson("GOVDNS_SNAPSHOT_JSON",
                                   "BENCH_snapshot.json", json);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)

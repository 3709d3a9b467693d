// govdns_perfbench — runs one benchmark workload of the govdns pipeline in a
// single process and prints its raw samples as one JSON line on stdout.
//
//   govdns_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--world-seed N] [--scale X] [--work-dir DIR]
//                    [--report-out PATH]
//
// Workloads (perfbench/README.md says why each was chosen):
//   study-s0.3              full study: selection -> mining -> measurement
//                           -> BuildReport -> ExportReportJson.
//   mine-sweep-s0.5         freeze -> GVSN write -> mapped open -> selection
//                           -> MineSnapshot under the ablation sweep
//                           stability_days {1,7,30} x statistic {mode,mean}.
//   journaled-hostile-s0.2  hostile-chaos world, full study journaled into
//                           a StudyCheckpoint, then an in-process resume.
//
// --world-seed picks the world (default 2022, the development world); the
// world's cost class varies several-fold from one world seed to another, so
// it is held fixed across runs. --seed seeds only the benchmark's own
// sampling: which exchanges the wire-codec sample keeps, and the shuffles
// the name-sort timing sorts.
//
// A pass builds a fresh world (one setup_s sample) and runs the pipeline on
// it (one pipeline_s sample). Passes repeat until --seconds have elapsed, and
// at least the workload's min_passes times. Every pass must reproduce the
// first pass's output digest. With --trace 1 the passes run behind a timing
// transport decorator and the per-layer metrics are emitted. Only public
// entry points of the library are called; every timing is taken from outside.
// perfbench/run.py builds this binary, turns the samples into medians and
// checks the digest against the pinned ones.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/journal.h"
#include "core/export.h"
#include "core/mining.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "dns/message.h"
#include "dns/transport.h"
#include "pdns/snapshot_io.h"
#include "util/json.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"
#include "worldgen/world.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace govdns;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// User plus system CPU of the whole process (every thread), in seconds.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return true;
#else
  return false;
#endif
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x65735546: return "fuse";
    case 0x6A656A63: return "virtiofs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

// FNV-1a over a canonical byte rendering of an output.
class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Dataset(const core::MinedDataset& d) {
    U64(d.domains.size());
    for (const core::MinedDomain& m : d.domains) {
      Str(m.name.CanonicalKey());
      U64(static_cast<uint64_t>(m.country));
      U64(static_cast<uint64_t>(m.seed_index));
      U64((m.disposable ? 1u : 0u) | (m.in_active_window ? 2u : 0u));
      for (const core::YearState& y : m.years) {
        U64(static_cast<uint64_t>(y.mode_ns_count));
        U64(y.ns_ids.size());
        Bytes(y.ns_ids.data(), y.ns_ids.size() * sizeof(int32_t));
      }
    }
    U64(d.ns_names.size());
    for (const std::string& ns : d.ns_names) Str(ns);
    const core::MiningStats& s = d.stats;
    for (int64_t v : {s.seeds, s.entries_scanned, s.entries_unstable, s.domains,
                      s.domains_disposable, s.domains_in_active_window}) {
      U64(static_cast<uint64_t>(v));
    }
  }
  uint64_t value() const { return h_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

enum class Kind { kStudy, kMineSweep, kJournaled };

struct Workload {
  const char* name;
  Kind kind;
  double scale;
  // Untraced passes per run at least; their medians are the end-to-end
  // values. Sized so that one run takes about 20-50 s on 4 cores; the short
  // journaled passes get more of them, since a burst of load from elsewhere
  // on the host skews a median only when it covers half of the run.
  size_t min_passes;
};

constexpr Workload kWorkloads[] = {
    {"study-s0.3", Kind::kStudy, 0.3, 3},
    {"mine-sweep-s0.5", Kind::kMineSweep, 0.5, 3},
    {"journaled-hostile-s0.2", Kind::kJournaled, 0.2, 10},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  uint64_t world_seed = 2022;
  double seconds = 10.0;
  bool trace = false;
  double scale = 0.0;  // 0: the workload's own scale
  std::string work_dir = ".bench_run";
  std::string report_out;
};

// A named correctness check and its outcome.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    for (Check& c : checks_) {
      if (c.name == name) {
        // Keep the first failure's detail for a repeated check.
        if (c.ok && !ok) c = Check{name, false, detail};
        return;
      }
    }
    checks_.push_back(Check{name, ok, ok ? std::string() : detail});
  }
  bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }
  const std::vector<Check>& list() const { return checks_; }

 private:
  std::vector<Check> checks_;
};

// Thread-safe timing decorator over the study's transport. Forwards every
// virtual (chaos contexts and the logical clock included), counts exchanges,
// sums the wall time spent inside the wrapped transport, and keeps a fixed
// sample of query and reply bytes for the wire-codec timings: the exchanges
// whose query bytes hash into one bucket of kSampleStride, up to kSampleCap.
class TimedTransport : public dns::QueryTransport {
 public:
  TimedTransport(dns::QueryTransport* inner, uint64_t sample_seed)
      : inner_(inner), sample_bucket_(sample_seed % kSampleStride) {}

  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    const Clock::time_point start = Clock::now();
    util::StatusOr<std::vector<uint8_t>> reply =
        inner_->Exchange(server, wire_query);
    Account(start, wire_query, reply, /*stream=*/false);
    return reply;
  }

  util::StatusOr<std::vector<uint8_t>> ExchangeStream(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    const Clock::time_point start = Clock::now();
    util::StatusOr<std::vector<uint8_t>> reply =
        inner_->ExchangeStream(server, wire_query);
    Account(start, wire_query, reply, /*stream=*/true);
    return reply;
  }

  uint64_t now_ms() const override { return inner_->now_ms(); }
  void Delay(uint32_t ms) override { inner_->Delay(ms); }
  void PushChaosContext(uint64_t tag) override {
    inner_->PushChaosContext(tag);
  }
  void PopChaosContext() override { inner_->PopChaosContext(); }

  uint64_t exchanges() const { return exchanges_.load(); }
  uint64_t stream_exchanges() const { return stream_exchanges_.load(); }
  double self_s() const { return static_cast<double>(self_ns_.load()) / 1e9; }

  // Moves the sampled (query, reply) bytes out; call after the run.
  std::vector<std::vector<uint8_t>> TakeQueries() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(queries_);
  }
  std::vector<std::vector<uint8_t>> TakeReplies() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(replies_);
  }

 private:
  static constexpr size_t kSampleCap = 4096;
  static constexpr uint64_t kSampleStride = 32;

  void Account(Clock::time_point start, const std::vector<uint8_t>& query,
               const util::StatusOr<std::vector<uint8_t>>& reply,
               bool stream) {
    self_ns_.fetch_add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    exchanges_.fetch_add(1);
    if (stream) stream_exchanges_.fetch_add(1);
    if (!reply.ok() || sample_full_.load(std::memory_order_relaxed)) return;
    Digest d;
    // Skip the 2-byte message id, which is random per exchange.
    if (query.size() > 2) d.Bytes(query.data() + 2, query.size() - 2);
    if (d.value() % kSampleStride != sample_bucket_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (queries_.size() >= kSampleCap) {
      sample_full_.store(true, std::memory_order_relaxed);
      return;
    }
    queries_.push_back(query);
    replies_.push_back(*reply);
  }

  dns::QueryTransport* inner_;
  const uint64_t sample_bucket_;
  std::atomic<uint64_t> exchanges_{0};
  std::atomic<uint64_t> stream_exchanges_{0};
  std::atomic<uint64_t> self_ns_{0};
  std::atomic<bool> sample_full_{false};
  std::mutex mu_;  // guards queries_, replies_
  std::vector<std::vector<uint8_t>> queries_;
  std::vector<std::vector<uint8_t>> replies_;
};

// The world plus the study inputs bound to it.
struct Bound {
  std::unique_ptr<worldgen::World> world;
  std::unique_ptr<worldgen::PolicyLookupAdapter> policy;
  core::StudyInputs inputs;
  uint64_t fingerprint = 0;
};

worldgen::WorldConfig MakeWorldConfig(const Workload& w, const Args& args) {
  worldgen::WorldConfig config;
  config.seed = args.world_seed;
  config.scale = args.scale > 0.0 ? args.scale : w.scale;
  if (w.kind == Kind::kJournaled) config.chaos = simnet::ChaosProfile::Hostile();
  return config;
}

// The world identity the journal and snapshot files carry, mixed exactly
// like govdns_study does.
uint64_t WorldFingerprint(const worldgen::WorldConfig& config) {
  uint64_t fp = config.seed;
  fp = ckpt::MixFingerprint(fp,
                            static_cast<uint64_t>(config.scale * 1000000.0));
  fp = ckpt::MixFingerprint(fp, static_cast<uint64_t>(config.first_year));
  fp = ckpt::MixFingerprint(fp, static_cast<uint64_t>(config.last_year));
  return fp;
}

// Builds the world and binds the study inputs; *build_s receives the
// BuildWorld share of the returned wall time.
std::unique_ptr<Bound> Setup(const worldgen::WorldConfig& config,
                             double* build_s) {
  auto bound = std::make_unique<Bound>();
  const Clock::time_point start = Clock::now();
  bound->world = worldgen::BuildWorld(config);
  *build_s = SecondsSince(start);
  bound->policy = std::make_unique<worldgen::PolicyLookupAdapter>(
      &bound->world->registry_policy());
  bound->inputs = worldgen::MakeStudyInputs(*bound->world, bound->policy.get());
  bound->fingerprint = WorldFingerprint(config);
  return bound;
}

std::vector<std::string> Top10() {
  std::vector<std::string> out;
  for (const char* code : worldgen::Top10CountryCodes()) out.emplace_back(code);
  return out;
}

double SumPhases(const std::vector<obs::PhaseRecord>& records,
                 std::string_view name) {
  double ms = 0.0;
  for (const obs::PhaseRecord& r : records) {
    if (r.name == name) ms += r.wall_ms;
  }
  return ms / 1000.0;
}

using Layers = std::map<std::string, double>;

// The top-level mining sub-phases as the miner's profiler records them; they
// and mining.unattributed_s add up to mining.s.
constexpr const char* kMiningPhases[] = {"mining.freeze", "mining.shard",
                                         "mining.fold.intern", "mining.fold"};

// Mining sub-phase times, plus the nested "mining.fold.intern.merge" (part
// of "mining.fold.intern", so not one of kMiningPhases).
void AddMiningPhases(const std::vector<obs::PhaseRecord>& records,
                     double mining_s, Layers* layers) {
  for (const char* phase : kMiningPhases) {
    (*layers)[std::string(phase) + "_s"] = SumPhases(records, phase);
  }
  (*layers)["mining.fold.intern.merge_s"] =
      SumPhases(records, "mining.fold.intern.merge");
  (*layers)["mining.s"] = mining_s;
}

// Outcome of one pipeline pass.
struct Pass {
  double pipeline_s = 0.0;
  double cpu_s = 0.0;
  double resume_s = 0.0;  // journaled workload only
  std::string digest;
  std::string report_json;  // study workloads only
  int64_t operations = 0;   // measured domains, or mining passes
  int64_t failed = 0;       // degraded or quarantined domains
  int64_t input_domains = 0;
  Layers layers;            // traced passes only
};

class Bench {
 public:
  Bench(const Workload& workload, const Args& args)
      : w_(workload), args_(args) {}

  int Run();

 private:
  Pass StudyPass(bool traced, bool journal);
  Pass MineSweepPass(bool traced);
  Pass RunPass(bool traced, bool journal) {
    return w_.kind == Kind::kMineSweep ? MineSweepPass(traced)
                                       : StudyPass(traced, journal);
  }
  // Checks the report's funnel and quarantine counts against the dataset
  // they summarize, recounted here from the raw results.
  void CheckReportAgainstDataset(const core::Study& study,
                                 const core::StudyReport& report);
  // Traced-run extras measured after the passes.
  void CodecAndNameTimings(Layers* layers);
  void SerialMiningSpeedup(double nproc_mining_s, Layers* layers);
  std::string FreshDir(const std::string& name);

  const Workload& w_;
  Args args_;
  std::unique_ptr<Bound> bound_;
  Checks checks_;
  // Traced-run state for the post-pass timings.
  std::vector<std::vector<uint8_t>> sample_queries_;
  std::vector<std::vector<uint8_t>> sample_replies_;
  std::vector<dns::Name> sample_names_;
  std::vector<core::SeedDomain> seeds_;
  std::string default_mining_digest_;
  std::optional<pdns::MappedPdnsSnapshot> mapped_;
};

std::string Bench::FreshDir(const std::string& name) {
  const std::string dir = args_.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void Bench::CheckReportAgainstDataset(const core::Study& study,
                                      const core::StudyReport& report) {
  const core::ActiveDataset& active = study.active();
  int64_t responded = 0, has_records = 0, authoritative = 0;
  std::map<core::QuarantineReason, int64_t> reasons;
  for (const core::MeasurementResult& r : active.results) {
    responded += r.parent_responded;
    has_records += r.parent_has_records;
    authoritative += r.child_any_authoritative;
    ++reasons[r.quarantine_reason];
  }
  const int64_t measured = static_cast<int64_t>(active.results.size());
  const int64_t queried = static_cast<int64_t>(
      core::PdnsMiner::ActiveQueryList(study.mined()).size());
  const auto& f = report.funnel;
  checks_.Expect("funnel_matches_dataset",
                 f.queried == measured && f.queried == queried &&
                     f.parent_responded == responded &&
                     f.parent_has_records == has_records &&
                     f.child_authoritative == authoritative,
                 "report funnel disagrees with the measured dataset");
  const auto& q = report.quarantine;
  using R = core::QuarantineReason;
  checks_.Expect(
      "quarantine_matches_dataset",
      q.total_domains == measured &&
          q.quarantined == measured - reasons[R::kNone] &&
          q.hang == reasons[R::kHang] && q.blackhole == reasons[R::kBlackhole] &&
          q.budget_exceeded == reasons[R::kBudgetExceeded] &&
          q.watchdog_cancelled == reasons[R::kWatchdogCancelled] &&
          q.vantage_lost == reasons[R::kVantageLost],
      "report quarantine counts disagree with the measured dataset");
}

Pass Bench::StudyPass(bool traced, bool journal) {
  Pass pass;
  simnet::SimNetwork& network = bound_->world->network();
  TimedTransport timed(bound_->inputs.transport, args_.seed);
  core::StudyInputs inputs = bound_->inputs;
  if (traced) inputs.transport = &timed;
  std::unique_ptr<core::StudyCheckpoint> ckpt;
  std::string journal_dir;
  if (journal) {
    journal_dir = FreshDir("journal");
    ckpt = std::make_unique<core::StudyCheckpoint>(journal_dir,
                                                   bound_->fingerprint);
  }

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  core::Study study(std::move(inputs));
  if (ckpt != nullptr) study.AttachCheckpoint(ckpt.get());

  Clock::time_point t = Clock::now();
  study.RunSelection();
  const double selection_s = SecondsSince(t);

  t = Clock::now();
  double cpu = ProcessCpuSeconds();
  study.RunMining();
  const double mining_s = SecondsSince(t);
  const double mining_cpu_s = ProcessCpuSeconds() - cpu;

  const simnet::NetworkStats net0 = network.stats();
  t = Clock::now();
  cpu = ProcessCpuSeconds();
  study.RunActiveMeasurement();
  const double measure_s = SecondsSince(t);
  const double measure_cpu_s = ProcessCpuSeconds() - cpu;
  const simnet::NetworkStats net1 = network.stats();

  t = Clock::now();
  const core::StudyReport report = core::BuildReport(study, Top10());
  const double report_s = SecondsSince(t);

  t = Clock::now();
  pass.report_json = core::ExportReportJson(report);
  const double export_s = SecondsSince(t);
  if (ckpt != nullptr) ckpt->SaveReportJson(pass.report_json);
  pass.pipeline_s = SecondsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu0;

  Digest digest;
  digest.Str(pass.report_json);
  pass.digest = digest.Hex();
  pass.operations = static_cast<int64_t>(study.active().results.size());
  pass.input_domains = pass.operations;
  int64_t degraded = 0, quarantined = 0;
  for (const core::MeasurementResult& r : study.active().results) {
    degraded += r.degraded;
    quarantined += r.quarantine_reason != core::QuarantineReason::kNone;
    pass.failed +=
        r.degraded || r.quarantine_reason != core::QuarantineReason::kNone;
  }
  CheckReportAgainstDataset(study, report);

  if (ckpt != nullptr) {
    // Resume: a second study over the finished journal must restore every
    // phase and rebuild the identical report.
    const Clock::time_point resume_start = Clock::now();
    core::StudyCheckpointOptions options;
    options.resume = true;
    core::StudyCheckpoint resumed_ckpt(journal_dir, bound_->fingerprint,
                                       options);
    core::Study resumed(bound_->inputs);
    resumed.AttachCheckpoint(&resumed_ckpt);
    resumed.RunSelection();
    resumed.RunMining();
    resumed.RunActiveMeasurement();
    const std::string resumed_json =
        core::ExportReportJson(core::BuildReport(resumed, Top10()));
    pass.resume_s = SecondsSince(resume_start);
    checks_.Expect("resume_byte_identical", resumed_json == pass.report_json,
                   "resumed report differs from the journaled report");
    checks_.Expect("resume_restored_from_journal",
                   resumed_ckpt.stats().results_loaded == pass.operations,
                   "resume re-measured domains instead of loading them");
    if (traced) {
      const ckpt::JournalStats& js = ckpt->journal_stats();
      pass.layers["ckpt.commits"] = static_cast<double>(js.commits);
      pass.layers["ckpt.bytes_written"] = static_cast<double>(js.bytes_written);
      pass.layers["ckpt.loads_ok"] =
          static_cast<double>(resumed_ckpt.journal_stats().loads_ok);
      pass.layers["ckpt.resume_s"] = pass.resume_s;
    }
  }

  if (!traced) return pass;
  Layers& l = pass.layers;
  l["selection.s"] = selection_s;
  l["selection.seeds"] = static_cast<double>(study.seeds().size());
  AddMiningPhases(study.profiler().records(), mining_s, &l);
  l["mining.cpu_s"] = mining_cpu_s;
  l["mining.domains"] = static_cast<double>(study.mined().domains.size());
  l["mining.ns_names"] = static_cast<double>(study.mined().ns_names.size());

  const core::ResolverCounters& counters = study.measurement_counters();
  const core::CutCacheStats& cache = study.measurement_cache_stats();
  const double cache_hits =
      static_cast<double>(cache.hits + cache.negative_hits);
  const double cache_lookups = cache_hits + static_cast<double>(cache.misses);
  l["measure.s"] = measure_s;
  l["measure.cpu_s"] = measure_cpu_s;
  l["measure.cpu_per_wall"] = measure_cpu_s / measure_s;
  l["measure.domains"] = static_cast<double>(pass.operations);
  l["measure.queries"] = static_cast<double>(counters.queries);
  l["measure.retries"] = static_cast<double>(counters.retries);
  l["measure.timeouts"] = static_cast<double>(counters.timeouts);
  l["measure.truncated"] = static_cast<double>(counters.truncated);
  l["measure.degraded"] = static_cast<double>(degraded);
  l["measure.quarantined"] = static_cast<double>(quarantined);
  l["measure.failed_frac"] =
      static_cast<double>(pass.failed) /
      static_cast<double>(std::max<int64_t>(pass.operations, 1));
  l["cut_cache.hits"] = cache_hits;
  l["cut_cache.lookups"] = cache_lookups;
  l["cut_cache.hit_ratio"] = cache_lookups > 0 ? cache_hits / cache_lookups : 0;
  l["cut_cache.infra_queries"] = static_cast<double>(cache.infra.queries);
  l["cut_cache.negative_publishes"] =
      static_cast<double>(cache.negative_publishes);

  l["transport.exchanges"] = static_cast<double>(timed.exchanges());
  l["transport.stream_exchanges"] =
      static_cast<double>(timed.stream_exchanges());
  l["transport.self_s"] = timed.self_s();
  l["transport.share"] = timed.self_s() / measure_cpu_s;
  const double net_exchanges =
      static_cast<double>(net1.exchanges - net0.exchanges);
  l["simnet.delivered_ratio"] =
      net_exchanges > 0
          ? static_cast<double>(net1.delivered - net0.delivered) / net_exchanges
          : 0.0;

  for (const obs::PhaseRecord& r : report.profile) {
    if (r.name.rfind("analyze.", 0) == 0) l[r.name + "_s"] = r.wall_ms / 1000.0;
  }
  l["report.s"] = report_s;
  l["export.json_s"] = export_s;
  l["export.json_bytes"] = static_cast<double>(pass.report_json.size());

  sample_queries_ = timed.TakeQueries();
  sample_replies_ = timed.TakeReplies();
  sample_names_.clear();
  for (const core::MinedDomain& d : study.mined().domains) {
    sample_names_.push_back(d.name);
  }
  seeds_ = study.seeds();
  Digest mined;
  mined.Dataset(study.mined());
  default_mining_digest_ = mined.Hex();
  return pass;
}

Pass Bench::MineSweepPass(bool traced) {
  Pass pass;
  mapped_.reset();
  const std::string dir = FreshDir("snapshot");
  const std::string path = dir + "/pdns.gvsn";
  obs::PhaseProfiler profiler;
  Layers& l = pass.layers;

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  {
    Clock::time_point t = Clock::now();
    const pdns::PdnsSnapshot frozen = bound_->world->pdns_db().Freeze();
    l["pdns.freeze_s"] = SecondsSince(t);
    t = Clock::now();
    // The benchmark's only GVSN write.
    const util::Status status =
        pdns::WritePdnsSnapshotFile(frozen, bound_->fingerprint, dir, path);
    l["pdns.snapshot_write_s"] = SecondsSince(t);
    checks_.Expect("snapshot_write", status.ok(), status.ToString());
    if (!status.ok()) return pass;
  }
  Clock::time_point t = Clock::now();
  auto opened = pdns::MappedPdnsSnapshot::Open(path, bound_->fingerprint);
  l["pdns.snapshot_open_s"] = SecondsSince(t);
  checks_.Expect("snapshot_open", opened.ok(), opened.status().ToString());
  if (!opened.ok()) return pass;
  mapped_ = *std::move(opened);
  l["pdns.snapshot_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));

  core::StudyInputs inputs = bound_->inputs;
  inputs.pdns_snapshot = &*mapped_;
  core::Study study(std::move(inputs));
  t = Clock::now();
  seeds_ = study.RunSelection();
  l["selection.s"] = SecondsSince(t);
  l["selection.seeds"] = static_cast<double>(seeds_.size());

  // The ablation benches' own configs: bench_ablation_stability_filter and
  // bench_ablation_nsdaily_stat.
  Digest digest;
  double mining_s = 0.0;
  // Digesting the outputs is the benchmark's own work: timed apart and left
  // out of pipeline_s, cpu_s and mining.cpu_s (it runs on one thread).
  double digest_s = 0.0;
  const double mining_cpu0 = ProcessCpuSeconds();
  for (int days : {1, 7, 30}) {
    for (core::YearlyStatistic stat :
         {core::YearlyStatistic::kMode, core::YearlyStatistic::kMean}) {
      core::MiningConfig config = bound_->inputs.mining;
      config.stability_days = days;
      config.statistic = stat;
      core::MinerOptions options;
      if (traced) options.profiler = &profiler;
      core::PdnsMiner miner(config, options);
      t = Clock::now();
      const core::MinedDataset dataset = miner.MineSnapshot(*mapped_, seeds_);
      const double s = SecondsSince(t);
      mining_s += s;
      ++pass.operations;

      t = Clock::now();
      digest.Dataset(dataset);
      checks_.Expect("mined_nonempty", !dataset.domains.empty(),
                     "a sweep config mined no domains");
      if (config == bound_->inputs.mining) {
        pass.input_domains = static_cast<int64_t>(dataset.domains.size());
        if (traced) {
          Digest one;
          one.Dataset(dataset);
          default_mining_digest_ = one.Hex();
          l["mining.default_s"] = s;
          l["mining.domains"] = static_cast<double>(dataset.domains.size());
          l["mining.ns_names"] = static_cast<double>(dataset.ns_names.size());
          sample_names_.clear();
          for (const core::MinedDomain& d : dataset.domains) {
            sample_names_.push_back(d.name);
          }
        }
      }
      digest_s += SecondsSince(t);
    }
  }
  const double mining_cpu_s = ProcessCpuSeconds() - mining_cpu0 - digest_s;
  pass.pipeline_s = SecondsSince(start) - digest_s;
  pass.cpu_s = ProcessCpuSeconds() - cpu0 - digest_s;
  pass.digest = digest.Hex();
  if (traced) {
    AddMiningPhases(profiler.records(), mining_s, &l);
    l["mining.cpu_s"] = mining_cpu_s;
  } else {
    l.clear();
  }
  return pass;
}

void Bench::CodecAndNameTimings(Layers* layers) {
  // Wire codec over the transport's fixed sample: decode every reply and
  // query, then re-encode the decoded messages; repeated for a stable mean.
  std::vector<dns::Message> decoded;
  constexpr int kRounds = 20;
  size_t decodes = 0;
  Clock::time_point t = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const auto* sample : {&sample_queries_, &sample_replies_}) {
      for (const std::vector<uint8_t>& wire : *sample) {
        auto msg = dns::Message::Decode(wire);
        if (!msg.ok()) continue;
        ++decodes;
        if (round == 0) decoded.push_back(*std::move(msg));
      }
    }
  }
  const double decode_s = SecondsSince(t);
  size_t encoded_bytes = 0;
  t = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const dns::Message& m : decoded) encoded_bytes += m.Encode().size();
  }
  const double encode_s = SecondsSince(t);
  (*layers)["dns.wire.sample_messages"] = static_cast<double>(decoded.size());
  (*layers)["dns.wire.decode_ns"] =
      decodes > 0 ? decode_s * 1e9 / static_cast<double>(decodes) : 0.0;
  (*layers)["dns.wire.encode_ns"] =
      decoded.empty() ? 0.0
                      : encode_s * 1e9 / static_cast<double>(kRounds *
                                                             decoded.size());
  checks_.Expect("wire_sample_encodes",
                 decoded.empty() || encoded_bytes > 0,
                 "decoded sample re-encoded to nothing");

  // Name ordering over the mined owner names, in a seeded shuffle.
  std::vector<dns::Name> names = sample_names_;
  std::mt19937_64 rng(args_.seed);
  constexpr int kSorts = 5;
  double sort_s = 0.0;
  for (int i = 0; i < kSorts; ++i) {
    std::shuffle(names.begin(), names.end(), rng);
    t = Clock::now();
    std::sort(names.begin(), names.end());
    sort_s += SecondsSince(t);
  }
  (*layers)["dns.name.sort_ns"] =
      names.empty() ? 0.0
                    : sort_s * 1e9 / static_cast<double>(kSorts * names.size());
}

void Bench::SerialMiningSpeedup(double nproc_mining_s, Layers* layers) {
  // One extra 1-worker pass of the default mining config through the same
  // entry point the workload's own mining used; the pool's contract is a
  // byte-identical dataset for any worker count.
  core::MinerOptions options;
  options.workers = 1;
  const Clock::time_point t = Clock::now();
  core::MinedDataset dataset;
  if (w_.kind == Kind::kMineSweep) {
    core::PdnsMiner miner(bound_->inputs.mining, options);
    dataset = miner.MineSnapshot(*mapped_, seeds_);
  } else {
    core::PdnsMiner miner(bound_->inputs.pdns, bound_->inputs.mining, options);
    dataset = miner.Mine(seeds_);
  }
  const double serial_s = SecondsSince(t);
  Digest digest;
  digest.Dataset(dataset);
  checks_.Expect("mining_worker_invariant",
                 digest.Hex() == default_mining_digest_,
                 "1-worker mining differs from the nproc pass");
  (*layers)["mining.serial_s"] = serial_s;
  (*layers)["mining.speedup_nproc"] =
      nproc_mining_s > 0 ? serial_s / nproc_mining_s : 0.0;
}

int Bench::Run() {
  const worldgen::WorldConfig config = MakeWorldConfig(w_, args_);
  std::filesystem::create_directories(args_.work_dir);

  // Every pass builds its own world, so each one starts from the state a
  // fresh govdns_study run sees (the pipeline advances the simulated
  // network's clock) and each one gives a set-up sample.
  std::vector<double> setup_s, build_s;
  auto pass_on_fresh_world = [&](bool traced, bool journal) {
    bound_.reset();
    double build = 0.0;
    const Clock::time_point start = Clock::now();
    bound_ = Setup(config, &build);
    setup_s.push_back(SecondsSince(start));
    build_s.push_back(build);
    return RunPass(traced, journal);
  };

  const bool journal = w_.kind == Kind::kJournaled;
  Layers layers;
  std::vector<Layers> traced_layers;
  std::vector<Pass> passes;
  double untraced_s = 0.0;
  if (args_.trace) {
    // One untraced pass as the reference for the tracing overhead, and on
    // the journaled workload one pass without the journal for its cost.
    passes.push_back(pass_on_fresh_world(false, journal));
    untraced_s = passes.back().pipeline_s;
    if (journal) {
      const Pass unjournaled = pass_on_fresh_world(false, false);
      layers["ckpt.overhead_s"] = untraced_s - unjournaled.pipeline_s;
      checks_.Expect("journal_byte_identical",
                     unjournaled.report_json == passes.back().report_json,
                     "journaled report differs from the unjournaled one");
    }
  }
  const size_t min_passes = passes.size() + (args_.trace ? 1 : w_.min_passes);
  const Clock::time_point measure_start = Clock::now();
  while (passes.size() < min_passes ||
         SecondsSince(measure_start) < args_.seconds) {
    passes.push_back(pass_on_fresh_world(args_.trace, journal));
    if (args_.trace) traced_layers.push_back(passes.back().layers);
  }

  for (const Pass& p : passes) {
    checks_.Expect("passes_deterministic", p.digest == passes.front().digest,
                   "a pass produced a different output digest");
  }
  if (!args_.report_out.empty() && !passes.front().report_json.empty()) {
    std::ofstream out(args_.report_out);
    out << passes.front().report_json;
  }

  if (args_.trace) {
    std::map<std::string, std::vector<double>> series;
    for (const Layers& l : traced_layers) {
      for (const auto& [name, value] : l) series[name].push_back(value);
    }
    for (const auto& [name, values] : series) layers[name] = Median(values);
    // The remainders are taken from the medians, so that the printed
    // sub-phases add up to the printed totals.
    double attributed = 0.0;
    for (const char* phase : kMiningPhases) {
      attributed += layers[std::string(phase) + "_s"];
    }
    layers["mining.unattributed_s"] = layers["mining.s"] - attributed;
    double analyzers = 0.0;
    for (const auto& [name, value] : layers) {
      if (name.rfind("analyze.", 0) == 0) analyzers += value;
    }
    layers["report.unattributed_s"] = layers["report.s"] - analyzers;
    std::vector<double> traced_s;
    for (const Pass& p : passes) traced_s.push_back(p.pipeline_s);
    traced_s.erase(traced_s.begin());  // the untraced reference pass
    layers["trace.overhead_s"] = Median(traced_s) - untraced_s;
    layers["worldgen.build_s"] = Median(build_s);
    layers["worldgen.domains"] =
        static_cast<double>(bound_->world->domains().size());
    layers["worldgen.endpoints"] =
        static_cast<double>(bound_->world->network().endpoint_count());
    layers["worldgen.pdns_entries"] =
        static_cast<double>(bound_->world->pdns_db().entry_count());
    CodecAndNameTimings(&layers);
    SerialMiningSpeedup(w_.kind == Kind::kMineSweep ? layers["mining.default_s"]
                                                    : layers["mining.s"],
                        &layers);
    layers.erase("mining.default_s");
  }
  const double peak_rss_mb = PeakRssMb();
  const std::string journal_fs = FilesystemName(args_.work_dir);
  mapped_.reset();
  std::filesystem::remove_all(args_.work_dir);

  int64_t operations = 0, failed = 0;
  for (const Pass& p : passes) {
    operations += p.operations;
    failed += p.failed;
  }

  util::JsonWriter w;
  w.BeginObject();
  w.Kv("workload", w_.name);
  w.Key("seed").Uint(args_.seed);
  w.Key("world_seed").Uint(config.seed);
  w.Key("scale").Double(config.scale);
  w.Key("provenance").BeginObject();
  w.Key("nproc").Uint(std::thread::hardware_concurrency());
  w.Kv("build_type", PERFBENCH_BUILD_TYPE);
  w.Kv("compiler", __VERSION__);
  w.Key("sanitized").Bool(Sanitized());
  w.Kv("journal_fs", journal_fs);
  w.EndObject();
  w.Key("input_domains").Int(passes.front().input_domains);
  w.Key("samples").BeginObject();
  // Traced passes give no end-to-end samples.
  auto series = [&](const char* name, double Pass::*field) {
    w.Key(name).BeginArray();
    if (!args_.trace) {
      for (const Pass& p : passes) w.Double(p.*field);
    }
    w.EndArray();
  };
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) w.Double(s);
  w.EndArray();
  series("pipeline_s", &Pass::pipeline_s);
  series("cpu_s", &Pass::cpu_s);
  if (w_.kind == Kind::kJournaled) series("resume_s", &Pass::resume_s);
  w.EndObject();
  w.Key("peak_rss_mb").Double(peak_rss_mb);
  w.Kv("operation",
       w_.kind == Kind::kMineSweep ? "mining pass" : "measured domain");
  w.Key("operations").Int(operations);
  w.Key("failed").Int(failed);
  w.Kv("digest", passes.front().digest);
  w.Key("checks").BeginArray();
  for (const Check& c : checks_.list()) {
    w.BeginObject();
    w.Kv("name", c.name);
    w.Key("ok").Bool(c.ok);
    if (!c.ok) w.Kv("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  if (args_.trace) {
    w.Key("traced_passes").Uint(traced_layers.size());
    w.Key("layers").BeginObject();
    for (const auto& [name, value] : layers) w.Key(name).Double(value);
    w.EndObject();
  }
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return checks_.all_ok() ? 0 : 1;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--world-seed N] [--scale X] [--work-dir DIR] "
               "[--report-out PATH]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* v = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(v)) args.workload = &w;
      }
      if (args.workload == nullptr) Usage(argv[0]);
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--world-seed") {
      args.world_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(v);
    } else if (arg == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (arg == "--scale") {
      args.scale = std::atof(v);
    } else if (arg == "--work-dir") {
      args.work_dir = v;
    } else if (arg == "--report-out") {
      args.report_out = v;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workload == nullptr) Usage(argv[0]);
  if (Sanitized()) {
    std::fprintf(stderr, "refusing to benchmark a sanitizer build\n");
    return 3;
  }
  try {
    Bench bench(*args.workload, args);
    return bench.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}

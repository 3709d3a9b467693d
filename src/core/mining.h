// Passive-DNS mining (§III-B/C, Figures 2, 3, 6, 7).
//
// From each seed d_gov, a left-hand wildcard search discovers every zone in
// the government namespace. Records are stability-filtered, and each
// domain-year is summarized by the mode of its daily nameserver counts
// (paper Fig. 5). The miner also derives the active-measurement query list:
// domains seen in the collection window, minus disposable-looking names.
//
// Mine() shards the seed list over a worker pool (MinerOptions::workers)
// mirroring the measurement engine (DESIGN.md §6c/§6e/§6j): the database is
// frozen once into a flat PdnsSnapshot image, a parallel pre-pass builds the
// global NS-name intern table up front (unique stable rdata per worker,
// merged into one byte-sorted table), and each worker then mines whole
// seeds against zero-copy entry spans, resolving rdata -> global id by
// bucket-accelerated binary search — no per-shard hash tables and no
// string copies on the hit path. The fold degenerates to a parallel concat
// plus a commutative stats merge; a final deterministic renumber pass
// restores first-seen seed-order ids, so the MinedDataset — domains,
// ns_names order, and stats — is byte-identical for any worker count (and
// to the pre-pool serial miner).
//
// Stability predicate (§III-C): a record is stable when
//
//     last_seen − first_seen >= stability_days      (default 7)
//
// i.e. the *gap* between first and last sighting must reach the threshold —
// the paper's own formulation, chosen because 7 days is the largest default
// cache TTL among the resolvers it surveys. Note this is NOT the inclusive
// calendar length `DayInterval::LengthDays()` (= last − first + 1): a record
// seen on day 0 and day 6 spans 7 calendar days but only a 6-day gap, and is
// dropped. An earlier revision tested `LengthDays() < stability_days`, which
// let such records through — one day of transient junk per record slipped
// into every yearly series (see MinerTest.StabilityBoundaryMatchesPaper).
#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "obs/profile.h"
#include "pdns/db.h"
#include "util/civil_time.h"

namespace govdns::core {

// Which statistic summarizes the daily NS-count list of a domain-year.
// The paper uses the mode (Fig. 5); the alternatives quantify how much that
// choice matters (see bench_ablation_nsdaily_stat).
enum class YearlyStatistic { kMode, kMin, kMax, kMean };

struct MiningConfig {
  int first_year = 2011;
  int last_year = 2020;
  // Minimum first-seen-to-last-seen gap (days) for a record to be stable:
  // keep iff last_seen − first_seen >= stability_days (see file comment).
  int stability_days = 7;
  YearlyStatistic statistic = YearlyStatistic::kMode;
  // The active-collection window (paper: 2020-01-01 .. 2021-02).
  util::DayInterval active_window{util::DayFromYmd(2020, 1, 1),
                                  util::DayFromYmd(2021, 2, 15)};
  bool filter_disposable = true;
  // Whether a PDNS entry must also pass the stability filter to pull its
  // domain into the active-measurement window. The paper-faithful default is
  // false: §III-B extracts raw FQDNs seen during the collection window for
  // querying (transients are then handled by the second round and the
  // responsiveness funnel), while the §III-C stability filter applies only
  // to the longitudinal series. Set true to require a stable sighting — an
  // ablation-style tightening that keeps one-day wonders out of the query
  // list entirely.
  bool require_stable_for_active = false;

  int year_count() const { return last_year - first_year + 1; }

  friend bool operator==(const MiningConfig&, const MiningConfig&) = default;
};

// Stable 64-bit digest of every MiningConfig field. Folded into the study's
// checkpoint fingerprint so a journal mined under a different config is
// rejected at frame-load time, before any payload is trusted.
uint64_t MiningConfigFingerprint(const MiningConfig& config);

// Execution knobs of one Mine() pass. Deliberately NOT part of MiningConfig:
// the config travels inside the MinedDataset, and nothing about how the work
// was scheduled may appear in the dataset (byte-identical across worker
// counts is the pool's contract).
struct MinerOptions {
  // Worker threads sharding the seed list; 0 picks
  // std::thread::hardware_concurrency(), clamped to the seed count.
  int workers = 0;
  // Optional sub-phase profiling sink (not owned; may be null): records
  // "mining.freeze", "mining.fold.intern" (+ ".merge" for its serial tail),
  // "mining.shard", "mining.fold.{renumber,sort,concat}", and the umbrella
  // "mining.fold" wall-time phases (DESIGN.md §6j).
  obs::PhaseProfiler* profiler = nullptr;
};

// One domain-year summary.
struct YearState {
  // Mode of the daily NS-count list; 0 = no stable records that year.
  int mode_ns_count = 0;
  // Interned ids of the distinct NS hostnames seen (stable records only).
  std::vector<int32_t> ns_ids;

  friend bool operator==(const YearState&, const YearState&) = default;
};

struct MinedDomain {
  dns::Name name;
  int country = -1;    // from the owning seed
  int seed_index = -1;
  std::vector<YearState> years;  // indexed by year - first_year
  bool disposable = false;
  bool in_active_window = false;

  bool HasData(int year_offset) const {
    return years[year_offset].mode_ns_count > 0;
  }

  friend bool operator==(const MinedDomain&, const MinedDomain&) = default;
};

// Deterministic bookkeeping of one Mine() pass. Pure function of (database,
// seeds, config); the study folds it into the observability metrics so the
// mining stage is not a black box between selection and measurement.
struct MiningStats {
  int64_t seeds = 0;
  int64_t entries_scanned = 0;     // PDNS entries examined
  int64_t entries_unstable = 0;    // dropped by the stability filter
  int64_t domains = 0;             // distinct owner names mined
  int64_t domains_disposable = 0;  // matching the disposable heuristic
  int64_t domains_in_active_window = 0;

  friend bool operator==(const MiningStats&, const MiningStats&) = default;
};

struct MinedDataset {
  MiningConfig config;
  std::vector<MinedDomain> domains;
  std::vector<std::string> ns_names;  // interned hostname table
  MiningStats stats;

  const std::string& NsName(int32_t id) const { return ns_names[id]; }

  friend bool operator==(const MinedDataset&, const MinedDataset&) = default;
};

class PdnsMiner {
 public:
  PdnsMiner(const pdns::PdnsDatabase* db, MiningConfig config = MiningConfig(),
            MinerOptions options = MinerOptions());
  // Snapshot-only miner (no database): for MineSnapshot callers that load a
  // pre-frozen snapshot from a file instead of freezing one.
  explicit PdnsMiner(MiningConfig config, MinerOptions options = MinerOptions());

  // Pure function of (database, seeds, config): the worker count and every
  // other MinerOptions knob may change only the wall time, never the bytes
  // (pinned by ParallelMineTest).
  MinedDataset Mine(const std::vector<SeedDomain>& seeds);

  // Mines a pre-frozen snapshot — frozen in memory or mapped from a file —
  // skipping the freeze phase entirely (the snapshot-file fast path;
  // DESIGN.md §6i). Mine() runs this same pipeline over the image it
  // freezes, so the dataset is byte-identical to Mine() on the source
  // database, for any worker count (pinned by SnapshotFileTest).
  MinedDataset MineSnapshot(const pdns::PdnsSnapshot& snapshot,
                            const std::vector<SeedDomain>& seeds);

  // The heuristic the pipeline uses in place of the paper's manual
  // "disposable domains" filtering: machine-generated-looking labels.
  static bool LooksDisposable(const dns::Name& name);

  // The query list for active measurement.
  static std::vector<dns::Name> ActiveQueryList(const MinedDataset& dataset);
  // Country index of each query-list entry, aligned with ActiveQueryList
  // (same filter, same order). The study's per-country budget accounting
  // (DESIGN.md §6g) keys on this.
  static std::vector<int> ActiveQueryCountries(const MinedDataset& dataset);

 private:
  // Intern pre-pass + shard + fold over a frozen snapshot.
  MinedDataset MineImpl(const pdns::PdnsSnapshot& snapshot,
                        const std::vector<SeedDomain>& seeds);

  const pdns::PdnsDatabase* db_;
  MiningConfig config_;
  MinerOptions options_;
};

// ---- Longitudinal aggregates over a mined dataset -------------------------

struct YearlyCounts {
  int year = 0;
  int64_t domains = 0;
  int64_t countries = 0;
  int64_t nameservers = 0;  // distinct hostnames
};
// Figures 2 and 3.
std::vector<YearlyCounts> CountPerYear(const MinedDataset& dataset);

struct D1nsChurnRow {
  int year = 0;
  int64_t d1ns_total = 0;
  double pct_overlap_2011 = 0.0;   // share of this year's d_1NS also 1-NS in 2011
  double pct_new_vs_prev = 0.0;    // share not d_1NS the year before
  double pct_2011_cohort_gone = 0.0;  // of 2011's d_1NS, share w/o data now
};
// Figure 6.
std::vector<D1nsChurnRow> D1nsChurn(const MinedDataset& dataset);

struct PrivateShareRow {
  int year = 0;
  double pct_d1ns_private = 0.0;
  double pct_all_private = 0.0;
};
// Figure 7: a domain-year counts as private when every stable NS hostname
// that year sits inside the domain's own d_gov (a lower bound, as in the
// paper).
std::vector<PrivateShareRow> PrivateShare(const MinedDataset& dataset,
                                          const std::vector<SeedDomain>& seeds);

}  // namespace govdns::core

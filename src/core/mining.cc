#include "core/mining.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <thread>
#include <utility>

#include "pdns/snapshot_io.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/stats.h"

namespace govdns::core {

uint64_t MiningConfigFingerprint(const MiningConfig& config) {
  uint64_t state = 0x676f76646e73636bull;  // arbitrary non-zero start
  auto mix = [&state](uint64_t v) {
    state ^= v + 0x9E3779B97F4A7C15ull + (state << 6) + (state >> 2);
    uint64_t s = state;
    state = util::SplitMix64(s);
  };
  mix(static_cast<uint64_t>(config.first_year));
  mix(static_cast<uint64_t>(config.last_year));
  mix(static_cast<uint64_t>(config.stability_days));
  mix(static_cast<uint64_t>(config.statistic));
  mix(static_cast<uint64_t>(config.active_window.first));
  mix(static_cast<uint64_t>(config.active_window.last));
  mix(config.filter_disposable ? 1 : 2);
  mix(config.require_stable_for_active ? 1 : 2);
  return state;
}

PdnsMiner::PdnsMiner(const pdns::PdnsDatabase* db, MiningConfig config,
                     MinerOptions options)
    : db_(db), config_(config), options_(options) {
  GOVDNS_CHECK(db != nullptr);
  GOVDNS_CHECK(config.first_year <= config.last_year);
}

PdnsMiner::PdnsMiner(MiningConfig config, MinerOptions options)
    : db_(nullptr), config_(config), options_(options) {
  GOVDNS_CHECK(config.first_year <= config.last_year);
}

bool PdnsMiner::LooksDisposable(const dns::Name& name) {
  if (name.IsRoot()) return false;
  const std::string& label = name.Label(0);
  // Machine-generated pattern: "...-xxxxxx" with a hex tail.
  if (label.size() < 8) return false;
  if (label[label.size() - 7] != '-') return false;
  for (size_t i = label.size() - 6; i < label.size(); ++i) {
    char c = label[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

namespace {

// The one predicate deciding which NS sightings enter the global intern
// table: stable NS entries whose interval touches the studied year range
// [years_first, years_last]. The intern pre-pass collects exactly these
// rdata strings and the shard pass resolves exactly these through the
// table, so one shared function is what guarantees every collected name is
// used and every used name was collected (the renumber pass CHECKs it).
// Years are contiguous, so overlapping the whole range == overlapping some
// year.
bool InternEligible(const MiningConfig& config, util::CivilDay years_first,
                    util::CivilDay years_last,
                    const pdns::PdnsEntryView& entry) {
  return entry.type == dns::RRType::kNS &&
         entry.seen.last - entry.seen.first >= config.stability_days &&
         entry.seen.last >= years_first && entry.seen.first <= years_last;
}

// The global NS-name intern table, built once, up front, in parallel: every
// unique stable NS rdata in plain byte-sorted order, with a two-byte-prefix
// bucket index so a lookup binary-searches a short run instead of the whole
// table (~5 string compares instead of ~log2(n) at world scale). Entries
// are string_views into the snapshot's rdata blob — frozen or mmapped,
// immutable for the duration of the pass either way — so building and
// probing the table never copies a string. Ids are positions in sorted
// order; the fold's renumber pass converts them to first-seen order at the
// end (DESIGN.md §6j).
class NsNameTable {
 public:
  // Merges per-worker sorted, deduplicated view lists into the table.
  void Build(std::vector<std::vector<std::string_view>> worker_tables) {
    std::vector<std::string_view> merged;
    for (std::vector<std::string_view>& t : worker_tables) {
      if (t.empty()) continue;
      if (merged.empty()) {
        merged = std::move(t);
        continue;
      }
      std::vector<std::string_view> tmp;
      tmp.reserve(merged.size() + t.size());
      std::merge(merged.begin(), merged.end(), t.begin(), t.end(),
                 std::back_inserter(tmp));
      tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
      merged.swap(tmp);
    }
    sorted_ = std::move(merged);
    GOVDNS_CHECK(sorted_.size() <=
                 static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    bucket_lo_.assign(kBucketCount + 1, 0);
    for (std::string_view s : sorted_) ++bucket_lo_[Bucket(s) + 1];
    for (size_t b = 1; b <= kBucketCount; ++b) {
      bucket_lo_[b] += bucket_lo_[b - 1];
    }
  }

  // Sorted id of `ns`, or -1 when absent. Read-only and data-race free:
  // every mining worker probes the same immutable table.
  int32_t Find(std::string_view ns) const {
    const uint32_t b = Bucket(ns);
    const auto first = sorted_.begin() + bucket_lo_[b];
    const auto last = sorted_.begin() + bucket_lo_[b + 1];
    const auto it = std::lower_bound(first, last, ns);
    if (it == last || *it != ns) return -1;
    return static_cast<int32_t>(it - sorted_.begin());
  }

  size_t size() const { return sorted_.size(); }
  std::string_view name(size_t id) const { return sorted_[id]; }

 private:
  // First two bytes of the string. Monotonic w.r.t. byte order because
  // hostname rdata never contains '\0', so a short string's implicit zero
  // padding sorts it before every longer string sharing its prefix.
  static constexpr size_t kBucketCount = 1 << 16;
  static uint32_t Bucket(std::string_view s) {
    const uint32_t b0 = s.empty() ? 0 : static_cast<unsigned char>(s[0]);
    const uint32_t b1 = s.size() < 2 ? 0 : static_cast<unsigned char>(s[1]);
    return (b0 << 8) | b1;
  }

  std::vector<std::string_view> sorted_;
  std::vector<uint32_t> bucket_lo_;  // kBucketCount + 1 fenceposts
};

// Per-worker reusable scratch, arena-backed: one bump allocator is Reset()
// at the top of every seed and all per-seed transients — the Fig. 5 mode
// sweep's +1/-1 deltas, the aggregated (count -> days) histogram, the
// pre-pass's per-seed rdata views — are ArenaVecs carved from it. After the
// first seed sizes the arena, a worker's whole load runs without touching
// the heap (the per-seed vector churn the 10x worldgen sweep exposed).
// `seen_mark` is the first-use detector for the renumber pass: stamped per
// seed (epoch trick) so it never needs clearing between seeds.
struct SweepScratch {
  util::BumpArena arena;
  std::vector<uint32_t> seen_mark;  // table-sized; value == stamp -> seen
  uint32_t stamp = 0;

  explicit SweepScratch(size_t table_size) : seen_mark(table_size, 0) {}

  void BeginSeed() {
    arena.Reset();
    if (++stamp == 0) {  // wrapped: invalidate stale marks the hard way
      std::fill(seen_mark.begin(), seen_mark.end(), 0u);
      stamp = 1;
    }
  }
};

// Output of mining one seed. ns ids are global sorted-table ids;
// `first_use` records them in first-use order so the fold's renumber pass
// can replay seed-order first appearances without re-hashing a single
// string.
struct SeedShard {
  std::vector<MinedDomain> domains;
  std::vector<int32_t> first_use;  // sorted-table ids, first-use order
  MiningStats stats;               // partial sums (seeds field unused)
};

// The yearly statistic over the aggregated, count-ascending histogram.
// Identical outcomes to the old std::map walk: ties pick the smaller count.
template <typename Hist>  // any range of (count, day_total) pairs
int YearlyValue(YearlyStatistic statistic, const Hist& days_at_count) {
  int value = 0;
  switch (statistic) {
    case YearlyStatistic::kMode: {
      int64_t best_days = 0;
      for (const auto& [count, day_total] : days_at_count) {
        if (day_total > best_days) {  // ties -> smaller (ascending order)
          best_days = day_total;
          value = count;
        }
      }
      break;
    }
    case YearlyStatistic::kMin:
      if (!days_at_count.empty()) value = days_at_count.front().first;
      break;
    case YearlyStatistic::kMax:
      if (!days_at_count.empty()) value = days_at_count.back().first;
      break;
    case YearlyStatistic::kMean: {
      int64_t days = 0, weighted = 0;
      for (const auto& [count, day_total] : days_at_count) {
        days += day_total;
        weighted += count * day_total;
      }
      if (days > 0) {
        value = static_cast<int>(std::lround(double(weighted) / double(days)));
      }
      break;
    }
  }
  return value;
}

// Mines one seed against the frozen snapshot. Reads only shared immutable
// state and writes only `shard`/`scratch`, so any worker may run any seed.
void MineSeed(const MiningConfig& config, const pdns::PdnsSnapshot& snapshot,
              const NsNameTable& table, const SeedDomain& seed, int seed_index,
              const std::vector<util::CivilDay>& year_start,
              const std::vector<util::CivilDay>& year_end, SeedShard& shard,
              SweepScratch& scratch) {
  const int years = config.year_count();
  const util::CivilDay years_first = year_start.front();
  const util::CivilDay years_last = year_end.back();

  // §III-C stability predicate: the first-to-last-seen *gap* must reach the
  // threshold. Deliberately not LengthDays(), which is one day longer (see
  // mining.h).
  auto stable = [&config](const auto& entry) {
    return entry.seen.last - entry.seen.first >= config.stability_days;
  };
  auto is_ns = [](const auto& entry) {
    return entry.type == dns::RRType::kNS;
  };

  scratch.BeginSeed();
  util::ArenaVec<std::pair<util::CivilDay, int>> delta(&scratch.arena);
  util::ArenaVec<std::pair<int, int64_t>> days_at_count(&scratch.arena);

  // Resolves an intern-eligible rdata to its global sorted id (the pre-pass
  // collected every such string, so a miss is a broken invariant, not a
  // data condition) and records the seed's first use of each id — the raw
  // material of the fold's renumber pass.
  auto resolve_ns = [&](std::string_view ns) -> int32_t {
    const int32_t gid = table.Find(ns);
    GOVDNS_CHECK(gid >= 0);
    if (scratch.seen_mark[gid] != scratch.stamp) {
      scratch.seen_mark[gid] = scratch.stamp;
      shard.first_use.push_back(gid);
    }
    return gid;
  };

  // One zero-copy owner walk over the subtree; entries of an owner are a
  // contiguous span (no per-seed result vector as the map-backed search
  // returned). All NS entries are considered (unfiltered: the active-window
  // check uses raw sightings, as the paper's FQDN extraction did).
  const auto [name_lo, name_hi] = snapshot.WildcardNameRange(seed.d_gov);
  for (size_t n = name_lo; n < name_hi; ++n) {
    const auto entries = snapshot.entries(n);
    if (std::none_of(entries.begin(), entries.end(), is_ns)) continue;

    MinedDomain domain;
    domain.name = snapshot.name(n);
    domain.country = seed.country;
    domain.seed_index = seed_index;
    domain.disposable = PdnsMiner::LooksDisposable(domain.name);
    domain.years.resize(years);

    for (const auto& entry : entries) {
      if (!is_ns(entry)) continue;
      ++shard.stats.entries_scanned;
      const bool is_stable = stable(entry);
      if (!is_stable) ++shard.stats.entries_unstable;
      if (entry.seen.Overlaps(config.active_window) &&
          (is_stable || !config.require_stable_for_active)) {
        domain.in_active_window = true;
      }
      if (!is_stable) continue;
      if (entry.seen.last < years_first || entry.seen.first > years_last) {
        continue;  // outside every studied year; was never interned
      }
      // One table probe per sighting (the old per-shard map looked the
      // string up once per overlapping year, building a std::string key
      // each time).
      const int32_t gid = resolve_ns(entry.rdata);
      for (int y = 0; y < years; ++y) {
        if (entry.seen.last < year_start[y] || entry.seen.first > year_end[y])
          continue;
        domain.years[y].ns_ids.push_back(gid);
      }
    }

    // Mode of daily counts, per year (paper Fig. 5). A sweep over the
    // +1/-1 deltas of each stable entry's in-year interval.
    for (int y = 0; y < years; ++y) {
      if (domain.years[y].ns_ids.empty()) continue;
      delta.clear();
      for (const auto& entry : entries) {
        if (!is_ns(entry) || !stable(entry)) continue;
        util::CivilDay from = std::max(entry.seen.first, year_start[y]);
        util::CivilDay to = std::min(entry.seen.last, year_end[y]);
        if (from > to) continue;
        delta.emplace_back(from, 1);
        delta.emplace_back(to + 1, -1);
      }
      std::sort(delta.begin(), delta.end());

      // Walk the sweep, collecting (count, days) runs; then aggregate equal
      // counts so the histogram is count-ascending with unique keys.
      days_at_count.clear();
      int current = 0;
      util::CivilDay prev = year_start[y];
      size_t p = 0;
      while (p < delta.size()) {
        const util::CivilDay day = delta[p].first;
        int d = 0;
        while (p < delta.size() && delta[p].first == day) {
          d += delta[p].second;
          ++p;
        }
        if (current > 0) days_at_count.emplace_back(current, day - prev);
        current += d;
        prev = day;
      }
      std::sort(days_at_count.begin(), days_at_count.end());
      size_t w = 0;
      for (size_t r = 0; r < days_at_count.size(); ++r) {
        if (w > 0 && days_at_count[w - 1].first == days_at_count[r].first) {
          days_at_count[w - 1].second += days_at_count[r].second;
        } else {
          days_at_count[w++] = days_at_count[r];
        }
      }
      days_at_count.resize_down(w);

      domain.years[y].mode_ns_count =
          YearlyValue(config.statistic, days_at_count);
      // Dedupe by sorted-table id; the fold's renumber pass re-sorts after
      // converting to first-seen ids.
      auto& ids = domain.years[y].ns_ids;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }

    ++shard.stats.domains;
    if (domain.disposable) ++shard.stats.domains_disposable;
    if (domain.in_active_window) ++shard.stats.domains_in_active_window;
    shard.domains.push_back(std::move(domain));
  }
}

// The intern pre-pass body of one worker: collect the unique intern-eligible
// rdata views of whole seeds (deduped per seed through arena scratch, then
// once more per worker), leaving `acc` sorted and unique. The final k-way
// merge across workers happens serially in MineImpl — it is the only serial
// string work left in the pipeline.
void CollectInternViews(const MiningConfig& config,
                        const pdns::PdnsSnapshot& snapshot,
                        const std::vector<SeedDomain>& seeds,
                        std::atomic<size_t>& next,
                        std::vector<std::string_view>& acc) {
  const util::CivilDay years_first = util::YearStart(config.first_year);
  const util::CivilDay years_last = util::YearEnd(config.last_year);
  util::BumpArena arena;
  for (;;) {
    const size_t s = next.fetch_add(1, std::memory_order_relaxed);
    if (s >= seeds.size()) break;
    const auto [lo, hi] = snapshot.WildcardNameRange(seeds[s].d_gov);
    arena.Reset();
    util::ArenaVec<std::string_view> local(&arena);
    for (const auto& entry : snapshot.EntriesInNameRange(lo, hi)) {
      if (InternEligible(config, years_first, years_last, entry)) {
        local.push_back(entry.rdata);
      }
    }
    std::sort(local.begin(), local.end());
    std::string_view* unique_end = std::unique(local.begin(), local.end());
    acc.insert(acc.end(), local.begin(), unique_end);
  }
  std::sort(acc.begin(), acc.end());
  acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
}

// Runs `body(worker_index)` on `workers` threads (inline when workers == 1).
void RunOnPool(int workers, const std::function<void(int)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&body, w] { body(w); });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

MinedDataset PdnsMiner::Mine(const std::vector<SeedDomain>& seeds) {
  GOVDNS_CHECK(db_ != nullptr);
  // --- Phase 1: freeze. One O(entries) lowering into the flat image buys
  // every seed a binary-searched zero-copy subtree scan.
  pdns::PdnsSnapshot snapshot;
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.freeze");
    }
    snapshot = db_->Freeze();
    if (scope) scope->set_items(static_cast<int64_t>(snapshot.entry_count()));
  }
  return MineImpl(snapshot, seeds);
}

MinedDataset PdnsMiner::MineSnapshot(const pdns::PdnsSnapshot& snapshot,
                                     const std::vector<SeedDomain>& seeds) {
  // A pre-frozen snapshot skips the O(entries) lowering, but the profile
  // schema must not depend on the substrate: emit the same "mining.freeze"
  // row the database path does (the attach is the freeze, at O(1) cost) so
  // reports stay byte-identical across substrates.
  if (options_.profiler != nullptr) {
    obs::PhaseProfiler::Scope scope(options_.profiler, "mining.freeze");
    scope.set_items(static_cast<int64_t>(snapshot.entry_count()));
  }
  return MineImpl(snapshot, seeds);
}

MinedDataset PdnsMiner::MineImpl(const pdns::PdnsSnapshot& snapshot,
                                 const std::vector<SeedDomain>& seeds) {
  MinedDataset out;
  out.config = config_;
  out.stats.seeds = static_cast<int64_t>(seeds.size());
  const int years = config_.year_count();

  // Precomputed year boundaries (shared, immutable).
  std::vector<util::CivilDay> year_start(years), year_end(years);
  for (int y = 0; y < years; ++y) {
    year_start[y] = util::YearStart(config_.first_year + y);
    year_end[y] = util::YearEnd(config_.first_year + y);
  }

  int workers = options_.workers > 0
                    ? options_.workers
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > seeds.size() && !seeds.empty()) {
    workers = static_cast<int>(seeds.size());
  }

  // --- Phase 2: intern pre-pass ("mining.fold.intern"). The global NS-name
  // table is built once, up front, in parallel: each worker sweeps whole
  // seeds collecting unique stable rdata views, and one serial k-way merge
  // ("mining.fold.intern.merge") canonicalizes them into the byte-sorted
  // table every mining shard then probes read-only. This is the piece that
  // used to run as the serial fold's hash replay after the shards finished;
  // hoisting it in front of the shard phase is what removed the serial
  // chokepoint (DESIGN.md §6j). Dispensers and per-worker accumulators sit
  // on their own cache lines so 8+ workers don't false-share hot state.
  NsNameTable table;
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.fold.intern");
    }
    std::vector<util::CacheAligned<std::vector<std::string_view>>> acc(
        static_cast<size_t>(workers));
    util::CacheAligned<std::atomic<size_t>> next;
    RunOnPool(workers, [&](int w) {
      CollectInternViews(config_, snapshot, seeds, next.value,
                         acc[static_cast<size_t>(w)].value);
    });
    {
      std::optional<obs::PhaseProfiler::Scope> merge_scope;
      if (options_.profiler != nullptr) {
        merge_scope.emplace(options_.profiler, "mining.fold.intern.merge");
      }
      std::vector<std::vector<std::string_view>> worker_tables;
      worker_tables.reserve(acc.size());
      for (auto& a : acc) worker_tables.push_back(std::move(a.value));
      table.Build(std::move(worker_tables));
      if (merge_scope) {
        merge_scope->set_items(static_cast<int64_t>(table.size()));
      }
    }
    if (scope) scope->set_items(static_cast<int64_t>(table.size()));
  }

  // --- Phase 3: shard. An atomic dispenser (cache-line padded) hands whole
  // seeds to workers; each seed's output lands in its own slot with global
  // sorted-table ns ids, so which worker mined it cannot leave a trace in
  // the data.
  std::vector<SeedShard> shards(seeds.size());
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.shard");
      scope->set_items(static_cast<int64_t>(seeds.size()));
    }
    util::CacheAligned<std::atomic<size_t>> next;
    RunOnPool(workers, [&](int) {
      SweepScratch scratch(table.size());
      for (;;) {
        const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
        if (s >= seeds.size()) break;
        MineSeed(config_, snapshot, table, seeds[s], static_cast<int>(s),
                 year_start, year_end, shards[s], scratch);
      }
    });
  }

  // --- Phase 4: fold. With interning hoisted into the pre-pass, the fold
  // is three cheap steps: a serial O(unique) renumber that restores the
  // first-seen seed-order ids a serial entry-major traversal would have
  // assigned (so exports stay byte-identical to the pre-pool miner at any
  // worker count), a parallel per-seed id rewrite + re-sort, and a parallel
  // concat with a commutative stats merge. Nothing in here hashes a string
  // or copies one more than once.
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.fold");
    }

    // 4a ("mining.fold.renumber"): replay per-seed first-use lists in seed
    // order; the first seed to use a name names it. Pure integer work — the
    // strings were interned long ago.
    std::vector<int32_t> perm(table.size(), -1);
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.renumber");
        sub->set_items(static_cast<int64_t>(table.size()));
      }
      int32_t next_id = 0;
      for (const SeedShard& shard : shards) {
        for (const int32_t gid : shard.first_use) {
          if (perm[gid] < 0) perm[gid] = next_id++;
        }
      }
      // Every collected name must have been used (InternEligible is the
      // single predicate on both sides), so the permutation is total.
      GOVDNS_CHECK(static_cast<size_t>(next_id) == table.size());
      out.ns_names.resize(table.size());
      for (size_t i = 0; i < table.size(); ++i) {
        out.ns_names[static_cast<size_t>(perm[i])].assign(table.name(i));
      }
    }

    // 4b ("mining.fold.sort"): rewrite sorted-table ids to first-seen ids
    // and restore per-year sorted order. Independent per seed, so the pool
    // is reused; the result is canonical regardless of scheduling.
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.sort");
      }
      std::vector<util::CacheAligned<int64_t>> resorted(
          static_cast<size_t>(workers));
      util::CacheAligned<std::atomic<size_t>> next;
      RunOnPool(workers, [&](int w) {
        int64_t local = 0;
        for (;;) {
          const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
          if (s >= shards.size()) break;
          for (MinedDomain& domain : shards[s].domains) {
            for (YearState& year : domain.years) {
              for (int32_t& id : year.ns_ids) id = perm[id];
              // Monotonic rewrites (common: a seed whose names were first
              // seen in sorted order) leave the list sorted; skip then.
              if (!std::is_sorted(year.ns_ids.begin(), year.ns_ids.end())) {
                std::sort(year.ns_ids.begin(), year.ns_ids.end());
                ++local;
              }
            }
          }
        }
        resorted[static_cast<size_t>(w)].value = local;
      });
      if (sub) {
        int64_t total = 0;
        for (const auto& r : resorted) total += r.value;
        sub->set_items(total);  // deterministic: perm and lists are fixed
      }
    }

    // 4c ("mining.fold.concat"): place every seed's domains at its
    // precomputed offset — a parallel move, not a serial append — and fold
    // the commutative stats sums.
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.concat");
      }
      std::vector<size_t> offset(shards.size() + 1, 0);
      for (size_t s = 0; s < shards.size(); ++s) {
        const SeedShard& shard = shards[s];
        offset[s + 1] = offset[s] + shard.domains.size();
        out.stats.entries_scanned += shard.stats.entries_scanned;
        out.stats.entries_unstable += shard.stats.entries_unstable;
        out.stats.domains += shard.stats.domains;
        out.stats.domains_disposable += shard.stats.domains_disposable;
        out.stats.domains_in_active_window +=
            shard.stats.domains_in_active_window;
      }
      out.domains.resize(offset.back());
      util::CacheAligned<std::atomic<size_t>> next;
      RunOnPool(workers, [&](int) {
        for (;;) {
          const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
          if (s >= shards.size()) break;
          for (size_t i = 0; i < shards[s].domains.size(); ++i) {
            out.domains[offset[s] + i] = std::move(shards[s].domains[i]);
          }
        }
      });
      if (sub) sub->set_items(static_cast<int64_t>(out.domains.size()));
    }
    if (scope) scope->set_items(static_cast<int64_t>(out.ns_names.size()));
  }
  return out;
}

std::vector<dns::Name> PdnsMiner::ActiveQueryList(const MinedDataset& dataset) {
  std::vector<dns::Name> out;
  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.in_active_window) continue;
    if (dataset.config.filter_disposable && domain.disposable) continue;
    out.push_back(domain.name);
  }
  return out;
}

std::vector<int> PdnsMiner::ActiveQueryCountries(const MinedDataset& dataset) {
  std::vector<int> out;
  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.in_active_window) continue;
    if (dataset.config.filter_disposable && domain.disposable) continue;
    out.push_back(domain.country);
  }
  return out;
}

std::vector<YearlyCounts> CountPerYear(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  std::vector<YearlyCounts> out(years);
  std::vector<std::set<int>> countries(years);
  std::vector<std::set<int32_t>> nameservers(years);
  for (int y = 0; y < years; ++y) {
    out[y].year = dataset.config.first_year + y;
  }
  for (const MinedDomain& domain : dataset.domains) {
    for (int y = 0; y < years; ++y) {
      if (!domain.HasData(y)) continue;
      ++out[y].domains;
      countries[y].insert(domain.country);
      nameservers[y].insert(domain.years[y].ns_ids.begin(),
                            domain.years[y].ns_ids.end());
    }
  }
  for (int y = 0; y < years; ++y) {
    out[y].countries = static_cast<int64_t>(countries[y].size());
    out[y].nameservers = static_cast<int64_t>(nameservers[y].size());
  }
  return out;
}

std::vector<D1nsChurnRow> D1nsChurn(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  // Per year: the set of d_1NS (by domain index).
  std::vector<std::set<size_t>> d1ns(years);
  std::vector<std::set<size_t>> has_data(years);
  for (size_t i = 0; i < dataset.domains.size(); ++i) {
    const MinedDomain& domain = dataset.domains[i];
    for (int y = 0; y < years; ++y) {
      if (!domain.HasData(y)) continue;
      has_data[y].insert(i);
      if (domain.years[y].mode_ns_count == 1) d1ns[y].insert(i);
    }
  }
  std::vector<D1nsChurnRow> out;
  for (int y = 0; y < years; ++y) {
    D1nsChurnRow row;
    row.year = dataset.config.first_year + y;
    row.d1ns_total = static_cast<int64_t>(d1ns[y].size());
    if (y > 0 && !d1ns[y].empty()) {
      int64_t overlap_2011 = 0, fresh = 0;
      for (size_t i : d1ns[y]) {
        if (d1ns[0].contains(i)) ++overlap_2011;
        if (!d1ns[y - 1].contains(i)) ++fresh;
      }
      row.pct_overlap_2011 = double(overlap_2011) / double(d1ns[y].size());
      row.pct_new_vs_prev = double(fresh) / double(d1ns[y].size());
    }
    if (y > 0 && !d1ns[0].empty()) {
      int64_t gone = 0;
      for (size_t i : d1ns[0]) {
        if (!has_data[y].contains(i)) ++gone;
      }
      row.pct_2011_cohort_gone = double(gone) / double(d1ns[0].size());
    }
    out.push_back(row);
  }
  return out;
}

std::vector<PrivateShareRow> PrivateShare(
    const MinedDataset& dataset, const std::vector<SeedDomain>& seeds) {
  const int years = dataset.config.year_count();
  std::vector<int64_t> d1ns_total(years, 0), d1ns_private(years, 0);
  std::vector<int64_t> all_total(years, 0), all_private(years, 0);

  // Parse each interned hostname once; every (domain, year) referencing the
  // id then reuses the parsed Name for its subdomain check. nullopt marks a
  // hostname that failed to parse (never inside any d_gov).
  std::vector<std::optional<dns::Name>> parsed(dataset.ns_names.size());
  std::vector<bool> parse_tried(dataset.ns_names.size(), false);
  auto parsed_ns = [&](int32_t id) -> const std::optional<dns::Name>& {
    auto& slot = parsed[static_cast<size_t>(id)];
    if (!parse_tried[static_cast<size_t>(id)]) {
      parse_tried[static_cast<size_t>(id)] = true;
      auto ns = dns::Name::Parse(dataset.NsName(id));
      if (ns.ok()) slot = *std::move(ns);
    }
    return slot;
  };
  for (const MinedDomain& domain : dataset.domains) {
    const dns::Name& d_gov = seeds[domain.seed_index].d_gov;
    for (int y = 0; y < years; ++y) {
      if (!domain.HasData(y)) continue;
      bool all_inside = true;
      for (int32_t id : domain.years[y].ns_ids) {
        const std::optional<dns::Name>& ns = parsed_ns(id);
        if (!ns.has_value() || !ns->IsSubdomainOf(d_gov)) {
          all_inside = false;
          break;
        }
      }
      ++all_total[y];
      if (all_inside) ++all_private[y];
      if (domain.years[y].mode_ns_count == 1) {
        ++d1ns_total[y];
        if (all_inside) ++d1ns_private[y];
      }
    }
  }
  std::vector<PrivateShareRow> out;
  for (int y = 0; y < years; ++y) {
    PrivateShareRow row;
    row.year = dataset.config.first_year + y;
    if (d1ns_total[y] > 0) {
      row.pct_d1ns_private = double(d1ns_private[y]) / double(d1ns_total[y]);
    }
    if (all_total[y] > 0) {
      row.pct_all_private = double(all_private[y]) / double(all_total[y]);
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace govdns::core

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "pdns/db.h"
#include "pdns/snapshot_io.h"
#include "util/rng.h"

namespace govdns::pdns {
namespace {

using dns::Name;
using dns::RRType;
using util::DayFromYmd;

TEST(PdnsTest, ObserveCreatesEntry) {
  PdnsDatabase db;
  db.Observe(Name::FromString("moe.gov.cn"), RRType::kNS, "ns1.moe.gov.cn",
             DayFromYmd(2015, 3, 1));
  EXPECT_EQ(db.entry_count(), 1u);
  auto entries = db.Lookup(Name::FromString("moe.gov.cn"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rdata, "ns1.moe.gov.cn");
  EXPECT_EQ(entries[0].seen.first, entries[0].seen.last);
}

TEST(PdnsTest, NearbySightingsMerge) {
  PdnsDatabase db(/*merge_gap_days=*/30);
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 20));
  EXPECT_EQ(db.entry_count(), 1u);
  auto entries = db.Lookup(name);
  EXPECT_EQ(entries[0].seen.first, DayFromYmd(2015, 3, 1));
  EXPECT_EQ(entries[0].seen.last, DayFromYmd(2015, 3, 20));
}

TEST(PdnsTest, LongSilenceStartsNewEntry) {
  PdnsDatabase db(/*merge_gap_days=*/30);
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2016, 3, 1));
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST(PdnsTest, DifferentRdataNeverMerge) {
  PdnsDatabase db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns2.x", DayFromYmd(2015, 3, 1));
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST(PdnsTest, DifferentTypesNeverMerge) {
  PdnsDatabase db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kA, "x", DayFromYmd(2015, 3, 1));
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST(PdnsTest, CountAccumulates) {
  PdnsDatabase db;
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 1, 10)});
  auto entries = db.Lookup(name);
  EXPECT_EQ(entries[0].count, 10u);
}

TEST(PdnsTest, WildcardSearchFindsAllSubdomains) {
  PdnsDatabase db;
  db.Observe(Name::FromString("gov.cn"), RRType::kNS, "a", 100);
  db.Observe(Name::FromString("moe.gov.cn"), RRType::kNS, "b", 100);
  db.Observe(Name::FromString("x.moe.gov.cn"), RRType::kNS, "c", 100);
  db.Observe(Name::FromString("gov.com"), RRType::kNS, "d", 100);
  auto hits = db.WildcardSearch(Name::FromString("gov.cn"));
  EXPECT_EQ(hits.size(), 3u);
}

TEST(PdnsTest, WildcardSearchIsLabelBounded) {
  PdnsDatabase db;
  db.Observe(Name::FromString("agov.cn"), RRType::kNS, "x", 100);
  db.Observe(Name::FromString("gov.cna"), RRType::kNS, "x", 100);
  // Neither is a subdomain of gov.cn even though the strings overlap.
  EXPECT_TRUE(db.WildcardSearch(Name::FromString("gov.cn")).empty());
}

TEST(PdnsTest, QueryFiltersByType) {
  PdnsDatabase db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns", 100);
  db.Observe(name, RRType::kA, "1.2.3.4", 100);
  Query q;
  q.type = RRType::kNS;
  EXPECT_EQ(db.Lookup(name, q).size(), 1u);
}

TEST(PdnsTest, QueryFiltersByWindowOverlap) {
  PdnsDatabase db;
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "ns", {100, 200});
  Query q;
  q.window = util::DayInterval{150, 300};
  EXPECT_EQ(db.Lookup(name, q).size(), 1u);
  q.window = util::DayInterval{201, 300};
  EXPECT_TRUE(db.Lookup(name, q).empty());
}

TEST(PdnsTest, StabilityFilterDropsShortLived) {
  PdnsDatabase db(/*merge_gap_days=*/0);
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "junk", {100, 102});     // gap 2
  db.ObserveInterval(name, RRType::kNS, "stable", {100, 300});   // gap 200
  Query q;
  q.min_seen_gap_days = 7;
  auto hits = db.Lookup(name, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rdata, "stable");
}

TEST(PdnsTest, MinSeenGapUsesGapSemantics) {
  // Gap semantics, like the §III-C miner filter: keep iff last − first >= 7.
  // The {100, 106} sighting spans 7 calendar days but only a 6-day gap and
  // must be dropped — the old `LengthDays() < min_duration_days` predicate
  // kept it, letting the two filters drift apart.
  PdnsDatabase db(/*merge_gap_days=*/0);
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "gap6", {100, 106});
  db.ObserveInterval(name, RRType::kNS, "gap7", {100, 107});
  Query q;
  q.min_seen_gap_days = 7;
  auto hits = db.Lookup(name, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rdata, "gap7");
}

TEST(PdnsTest, ZeroGapMergesOnlyAdjacent) {
  PdnsDatabase db(/*merge_gap_days=*/0);
  Name name = Name::FromString("a.b");
  db.Observe(name, RRType::kNS, "x", 100);
  db.Observe(name, RRType::kNS, "x", 101);  // adjacent: merges
  EXPECT_EQ(db.entry_count(), 1u);
  db.Observe(name, RRType::kNS, "x", 103);  // one-day hole: new entry
  EXPECT_EQ(db.entry_count(), 2u);
}

// ---------------------------------------------------------------------------
// Frozen snapshot
// ---------------------------------------------------------------------------

// The snapshot's wildcard hits as owning entries, for comparison with the
// map-backed reference search.
std::vector<PdnsEntry> Materialize(const PdnsSnapshot& snap,
                                   const Name& suffix,
                                   const Query& query = Query()) {
  std::vector<PdnsEntry> out;
  const auto [lo, hi] = snap.WildcardNameRange(suffix);
  for (size_t n = lo; n < hi; ++n) {
    for (const PdnsEntryView e : snap.entries(n)) {
      if (!EntryMatches(e, query)) continue;
      out.push_back({snap.name(n), e.type, std::string(e.rdata), e.seen,
                     e.count});
    }
  }
  return out;
}

TEST(PdnsSnapshotTest, WildcardRangeExcludesLookalikeNeighbors) {
  PdnsDatabase db;
  // notgov.au and xgov.au are string-suffix lookalikes that sit adjacent to
  // the gov.au subtree in canonical order; the binary-searched range must
  // exclude them on label boundaries.
  db.Observe(Name::FromString("gov.au"), RRType::kNS, "a", 100);
  db.Observe(Name::FromString("health.gov.au"), RRType::kNS, "b", 100);
  db.Observe(Name::FromString("notgov.au"), RRType::kNS, "c", 100);
  db.Observe(Name::FromString("xgov.au"), RRType::kNS, "d", 100);
  db.Observe(Name::FromString("gov.aux"), RRType::kNS, "e", 100);
  PdnsSnapshot snap = db.Freeze();
  EXPECT_EQ(snap.entry_count(), 5u);
  EXPECT_EQ(snap.name_count(), 5u);

  auto [lo, hi] = snap.WildcardNameRange(Name::FromString("gov.au"));
  EXPECT_EQ(hi - lo, 2u);
  auto hits = Materialize(snap, Name::FromString("gov.au"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].rdata, "a");
  EXPECT_EQ(hits[1].rdata, "b");
  EXPECT_EQ(snap.EntriesInNameRange(lo, hi).size(), 2u);
  EXPECT_TRUE(Materialize(snap, Name::FromString("gov.zz")).empty());
}

TEST(PdnsSnapshotTest, SnapshotIsImmutableAfterLaterObserves) {
  PdnsDatabase db;
  db.Observe(Name::FromString("a.gov.xx"), RRType::kNS, "ns1", 100);
  PdnsSnapshot snap = db.Freeze();
  db.Observe(Name::FromString("b.gov.xx"), RRType::kNS, "ns2", 100);
  EXPECT_EQ(snap.entry_count(), 1u);
  EXPECT_EQ(db.entry_count(), 2u);
  EXPECT_EQ(Materialize(snap, Name::FromString("gov.xx")).size(), 1u);
  EXPECT_EQ(db.WildcardSearch(Name::FromString("gov.xx")).size(), 2u);
}

TEST(PdnsSnapshotTest, EmptyAndDefaultSnapshotsAreSafe) {
  PdnsSnapshot defaulted;
  EXPECT_TRUE(Materialize(defaulted, Name::FromString("gov.xx")).empty());
  EXPECT_TRUE(Materialize(defaulted, Name::Root()).empty());
  PdnsDatabase db;
  PdnsSnapshot empty = db.Freeze();
  EXPECT_EQ(empty.entry_count(), 0u);
  EXPECT_TRUE(Materialize(empty, Name::FromString("gov.xx")).empty());
  // The default snapshot is the empty database's image, section for section.
  for (uint32_t id = kSecPdnsMeta; id <= kSecPdnsRdata; ++id) {
    EXPECT_EQ(defaulted.section(id), empty.section(id)) << "section " << id;
  }
}

// Property: the snapshot agrees entry-for-entry with the map-backed
// reference search across random databases and queries, including filters —
// whether the image was frozen in memory or written to a GVSN file and
// mapped back.
void CheckSnapshotOracle(int seed, bool from_file) {
  util::Rng rng(seed * 7717);
  static const char* kSuffixes[] = {"gov.au", "notgov.au", "xgov.au",
                                    "gov.aux", "go.au"};
  static const char* kLabels[] = {"health", "tax", "portal"};

  PdnsDatabase db(/*merge_gap_days=*/10);
  for (int i = 0; i < 400; ++i) {
    Name name = Name::FromString(kSuffixes[rng.UniformU64(5)]);
    int depth = static_cast<int>(rng.UniformU64(3));
    for (int d = 0; d < depth; ++d) {
      name = name.Child(kLabels[rng.UniformU64(3)]);
    }
    RRType type = rng.Bernoulli(0.8) ? RRType::kNS : RRType::kA;
    std::string rdata = "ns" + std::to_string(rng.UniformU64(4)) + ".h.cc";
    util::CivilDay start = static_cast<util::CivilDay>(rng.UniformU64(1000));
    util::CivilDay len = static_cast<util::CivilDay>(rng.UniformU64(50));
    db.ObserveInterval(name, type, rdata, {start, start + len});
  }
  PdnsSnapshot snap = db.Freeze();
  if (from_file) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("govdns_pdns_oracle_" + std::to_string(seed));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "pdns.gvsn").string();
    ASSERT_TRUE(WritePdnsSnapshotFile(snap, 1, dir.string(), path).ok());
    auto opened =
        PdnsSnapshot::Open(path, 1, ckpt::SnapshotValidation::kFull);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    snap = *std::move(opened);
    std::filesystem::remove_all(dir);  // the open view keeps its bytes
  }
  EXPECT_EQ(snap.entry_count(), db.entry_count());
  EXPECT_EQ(snap.name_count(), db.name_count());

  // Probes: the seeds and their lookalikes, the root, a bare TLD, names
  // present nowhere, and every owner plus a child it does not have.
  std::vector<Name> probes = {Name::Root(), Name::FromString("au"),
                              Name::FromString("gov.zz")};
  for (const char* suffix : kSuffixes) probes.push_back(Name::FromString(suffix));
  for (size_t i = 0; i < snap.name_count(); ++i) {
    EXPECT_EQ(snap.name_key(i), snap.name(i).CanonicalKey());
    probes.push_back(snap.name(i));
    probes.push_back(snap.name(i).Child("nonexistent"));
  }

  std::vector<Query> queries(4);
  queries[1].type = RRType::kNS;
  queries[2].window = util::DayInterval{200, 600};
  queries[3].type = RRType::kNS;
  queries[3].window = util::DayInterval{100, 800};
  queries[3].min_seen_gap_days = 7;

  for (const Name& probe : probes) {
    for (const Query& query : queries) {
      const auto expected = db.WildcardSearch(probe, query);
      EXPECT_EQ(Materialize(snap, probe, query), expected) << probe.ToString();
      // The allocation-free visitor sees the same entries, in order.
      std::vector<PdnsEntryView> visited, want;
      snap.VisitWildcard(probe, query,
                         [&](const PdnsEntryView& e) { visited.push_back(e); });
      for (const PdnsEntry& e : expected) {
        want.push_back({e.type, e.rdata, e.seen, e.count});
      }
      EXPECT_EQ(visited, want) << probe.ToString();
    }
  }
}

class PdnsSnapshotOracle : public ::testing::TestWithParam<int> {};

TEST_P(PdnsSnapshotOracle, FreezeMatchesMapBackedSearch) {
  CheckSnapshotOracle(GetParam(), /*from_file=*/false);
}

TEST_P(PdnsSnapshotOracle, MappedFileMatchesMapBackedSearch) {
  CheckSnapshotOracle(GetParam(), /*from_file=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnsSnapshotOracle, ::testing::Range(1, 7));

// Property: same-rdata entries never overlap, regardless of insert order.
class PdnsMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PdnsMergeProperty, EntriesForSameKeyStayDisjoint) {
  util::Rng rng(GetParam() * 101);
  PdnsDatabase db(/*merge_gap_days=*/10);
  Name name = Name::FromString("prop.gov.xx");
  for (int i = 0; i < 200; ++i) {
    util::CivilDay start = static_cast<util::CivilDay>(rng.UniformU64(2000));
    util::CivilDay len = static_cast<util::CivilDay>(rng.UniformU64(60));
    db.ObserveInterval(name, RRType::kNS, "ns1.x", {start, start + len});
  }
  auto entries = db.Lookup(name);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_LE(entries[i].seen.first, entries[i].seen.last);
    for (size_t j = i + 1; j < entries.size(); ++j) {
      EXPECT_FALSE(entries[i].seen.Overlaps(entries[j].seen))
          << "entries " << i << " and " << j << " overlap";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnsMergeProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace govdns::pdns

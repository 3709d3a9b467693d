// Passive-DNS database.
//
// Models the interface the paper uses from Farsight's DNSDB: record sets
// keyed by (rrname, rrtype, rdata) carrying first-seen/last-seen timestamps
// and an observation count, with left-hand wildcard search
// ("*.gov.au" -> every record whose owner ends in gov.au) and time-window
// filtering. The world generator populates it by replaying ten years of
// synthetic zone history through Observe().
//
// The map-backed PdnsDatabase is the ingest form and the reference search.
// Freeze() lowers it into a PdnsSnapshot (snapshot_io.h): one flat,
// canonically sorted image whose wildcard search is a binary-searched
// contiguous range of non-owning entry views — what the sharded miner
// iterates at paper scale, whether the image was frozen in memory or mapped
// from a snapshot file.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "util/civil_time.h"
#include "util/status.h"

namespace govdns::pdns {

struct PdnsEntry {
  dns::Name rrname;
  dns::RRType type = dns::RRType::kNS;
  std::string rdata;  // presentation form, e.g. "ns1.example.com"
  util::DayInterval seen;
  uint64_t count = 0;

  friend bool operator==(const PdnsEntry&, const PdnsEntry&) = default;
};

// Non-owning view of one entry: what a frozen snapshot hands out
// (snapshot_io.h), where the rdata bytes live in the image. The owner name
// is implicit — callers iterate entries grouped by owner index.
struct PdnsEntryView {
  dns::RRType type = dns::RRType::kNS;
  std::string_view rdata;
  util::DayInterval seen;
  uint64_t count = 0;

  friend bool operator==(const PdnsEntryView&, const PdnsEntryView&) = default;
};

// Filter for database searches.
struct Query {
  std::optional<dns::RRType> type;          // filter by type
  std::optional<util::DayInterval> window;  // keep entries overlapping it
  // Minimum first-seen-to-last-seen *gap* in days: keep iff
  //
  //     seen.last − seen.first >= min_seen_gap_days
  //
  // This is the same gap semantics as the §III-C stability filter in
  // core/mining.h (stable iff the gap reaches `stability_days`), so the two
  // filters cannot drift apart. It is deliberately NOT the inclusive
  // calendar length `DayInterval::LengthDays()` (= gap + 1); an earlier
  // revision compared LengthDays() here while mining used the gap, letting
  // one-day-longer records through on this path only. 0 keeps everything.
  int min_seen_gap_days = 0;
};

// True when `entry` passes `query`. One predicate shared by the map-backed
// database and the frozen snapshot, so the two cannot disagree.
bool EntryMatches(const PdnsEntry& entry, const Query& query);
bool EntryMatches(const PdnsEntryView& entry, const Query& query);

class PdnsSnapshot;  // snapshot_io.h

class PdnsDatabase {
 public:
  // Sightings within `merge_gap_days` of an existing entry's interval extend
  // that entry; a longer silence starts a new entry (mirrors how sensor
  // databases fence quiet periods). 0 means only adjacent/overlapping days
  // merge.
  explicit PdnsDatabase(int merge_gap_days = 30);

  // Records that (rrname, type, rdata) was observed on `day`.
  void Observe(const dns::Name& rrname, dns::RRType type,
               const std::string& rdata, util::CivilDay day,
               uint64_t count = 1);

  // Records continuous observation across an inclusive day interval.
  void ObserveInterval(const dns::Name& rrname, dns::RRType type,
                       const std::string& rdata, util::DayInterval interval,
                       uint64_t count_per_day = 1);

  // Left-hand wildcard search: every entry whose rrname equals `suffix` or
  // is a subdomain of it, matching `query`. Deterministic (canonical) order.
  std::vector<PdnsEntry> WildcardSearch(const dns::Name& suffix,
                                        const Query& query = Query()) const;

  // Exact-owner lookup.
  std::vector<PdnsEntry> Lookup(const dns::Name& rrname,
                                const Query& query = Query()) const;

  // Lowers the current contents straight into the snapshot image (defined
  // in snapshot_io.cc, beside the format it emits). O(entries); amortized
  // across the many wildcard searches a mining pass performs.
  // Entry-for-entry identical to the map-backed search results.
  PdnsSnapshot Freeze() const;

  size_t entry_count() const { return entry_count_; }
  size_t name_count() const { return by_name_.size(); }

 private:
  int merge_gap_days_;
  size_t entry_count_ = 0;
  // Canonical name order clusters subdomains behind their ancestor, which
  // makes wildcard search a contiguous range scan.
  std::map<dns::Name, std::vector<PdnsEntry>> by_name_;
};

}  // namespace govdns::pdns

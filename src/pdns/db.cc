#include "pdns/db.h"

#include <algorithm>

namespace govdns::pdns {

PdnsDatabase::PdnsDatabase(int merge_gap_days)
    : merge_gap_days_(merge_gap_days) {
  GOVDNS_CHECK(merge_gap_days >= 0);
}

void PdnsDatabase::Observe(const dns::Name& rrname, dns::RRType type,
                           const std::string& rdata, util::CivilDay day,
                           uint64_t count) {
  ObserveInterval(rrname, type, rdata, {day, day}, count);
}

void PdnsDatabase::ObserveInterval(const dns::Name& rrname, dns::RRType type,
                                   const std::string& rdata,
                                   util::DayInterval interval,
                                   uint64_t count_per_day) {
  GOVDNS_CHECK(interval.first <= interval.last);
  auto& entries = by_name_[rrname];
  PdnsEntry* merged = nullptr;
  for (PdnsEntry& entry : entries) {
    if (entry.type != type || entry.rdata != rdata) continue;
    // Mergeable if the new interval is within the gap of the existing one.
    util::DayInterval padded{entry.seen.first - merge_gap_days_ - 1,
                             entry.seen.last + merge_gap_days_ + 1};
    if (padded.Overlaps(interval)) {
      entry.seen.first = std::min(entry.seen.first, interval.first);
      entry.seen.last = std::max(entry.seen.last, interval.last);
      entry.count +=
          count_per_day * static_cast<uint64_t>(interval.LengthDays());
      merged = &entry;
      break;
    }
  }
  if (merged == nullptr) {
    entries.push_back(PdnsEntry{
        rrname, type, rdata, interval,
        count_per_day * static_cast<uint64_t>(interval.LengthDays())});
    ++entry_count_;
    return;
  }
  // The widened entry may now bridge into other entries of the same key;
  // coalesce until a fixed point so same-key entries stay disjoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < entries.size(); ++i) {
      PdnsEntry& entry = entries[i];
      if (&entry == merged || entry.type != type || entry.rdata != rdata) {
        continue;
      }
      util::DayInterval padded{merged->seen.first - merge_gap_days_ - 1,
                               merged->seen.last + merge_gap_days_ + 1};
      if (!padded.Overlaps(entry.seen)) continue;
      merged->seen.first = std::min(merged->seen.first, entry.seen.first);
      merged->seen.last = std::max(merged->seen.last, entry.seen.last);
      merged->count += entry.count;
      size_t merged_index = static_cast<size_t>(merged - entries.data());
      entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
      if (i < merged_index) --merged_index;
      merged = &entries[merged_index];
      --entry_count_;
      changed = true;
      break;
    }
  }
}

namespace {

// The one matching rule, over whichever representation holds the fields.
template <typename Entry>
bool MatchesImpl(const Entry& entry, const Query& query) {
  if (query.type && entry.type != *query.type) return false;
  if (query.window && !entry.seen.Overlaps(*query.window)) return false;
  // Gap semantics, matching the §III-C stability filter (see db.h).
  if (entry.seen.last - entry.seen.first < query.min_seen_gap_days) {
    return false;
  }
  return true;
}

}  // namespace

bool EntryMatches(const PdnsEntry& entry, const Query& query) {
  return MatchesImpl(entry, query);
}

bool EntryMatches(const PdnsEntryView& entry, const Query& query) {
  return MatchesImpl(entry, query);
}

std::vector<PdnsEntry> PdnsDatabase::WildcardSearch(const dns::Name& suffix,
                                                    const Query& query) const {
  std::vector<PdnsEntry> out;
  for (auto it = by_name_.lower_bound(suffix); it != by_name_.end(); ++it) {
    if (!it->first.IsSubdomainOf(suffix)) break;
    for (const PdnsEntry& entry : it->second) {
      if (EntryMatches(entry, query)) out.push_back(entry);
    }
  }
  return out;
}

std::vector<PdnsEntry> PdnsDatabase::Lookup(const dns::Name& rrname,
                                            const Query& query) const {
  std::vector<PdnsEntry> out;
  auto it = by_name_.find(rrname);
  if (it == by_name_.end()) return out;
  for (const PdnsEntry& entry : it->second) {
    if (EntryMatches(entry, query)) out.push_back(entry);
  }
  return out;
}

}  // namespace govdns::pdns

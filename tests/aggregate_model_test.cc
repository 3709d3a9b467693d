// Model-based tests of the study report's aggregates: each aggregate is
// compared with a reference model on seeded random datasets. The models are
// the straightforward std::set / std::map formulations of every aggregate
// (the shape the library used before its dense rewrite), kept here as the
// specification the dense code must reproduce exactly, down to each double.
//
// The datasets cover the shapes the dense code must not trip on: year spans
// of 1, 10 and 70, repeated NS ids within a year, sparse country ids, an
// unknown country (-1), a first year without d_1NS, nested and duplicate
// seeds, unsorted child NS sets overlapping the parent's, hosts with
// duplicate addresses, and empty datasets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/mining.h"
#include "core/providers.h"
#include "util/strings.h"

namespace govdns::core {
namespace {

using dns::Name;

// ---------------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------------

namespace model {

std::vector<YearlyCounts> CountPerYear(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  std::vector<YearlyCounts> out(years);
  std::vector<std::set<int>> countries(years);
  std::vector<std::set<int32_t>> nameservers(years);
  for (int y = 0; y < years; ++y) out[y].year = dataset.config.first_year + y;
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
      int64_t overlap = 0, fresh = 0;
      for (size_t i : d1ns[y]) {
        if (d1ns[0].contains(i)) ++overlap;
        if (!d1ns[y - 1].contains(i)) ++fresh;
      }
      row.pct_overlap_2011 = double(overlap) / double(d1ns[y].size());
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
  std::vector<int64_t> d1ns_total(years), d1ns_private(years);
  std::vector<int64_t> all_total(years), all_private(years);
  for (const MinedDomain& domain : dataset.domains) {
    const Name& d_gov = seeds[domain.seed_index].d_gov;
    for (int y = 0; y < years; ++y) {
      if (!domain.HasData(y)) continue;
      bool all_inside = true;
      for (int32_t id : domain.years[y].ns_ids) {
        auto ns = Name::Parse(dataset.NsName(id));
        if (!ns.ok() || !ns->IsSubdomainOf(d_gov)) {
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

int MatchNs(const std::vector<ProviderRule>& rules,
            const std::string& hostname) {
  for (size_t i = 0; i < rules.size(); ++i) {
    for (const std::string& suffix : rules[i].ns_suffixes) {
      if (util::EndsWithIgnoreCase(hostname, suffix)) return int(i);
    }
    for (const std::string& sub : rules[i].ns_substrings) {
      if (util::ContainsIgnoreCase(hostname, sub)) return int(i);
    }
  }
  return -1;
}

ProviderYearTable AnalyzeProviders(const std::vector<ProviderRule>& rules,
                                   const std::vector<CountryMeta>& countries,
                                   const MinedDataset& dataset, int year) {
  const int y = year - dataset.config.first_year;
  ProviderYearTable table;
  table.year = year;
  std::set<std::string> all_groups;
  for (const CountryMeta& meta : countries) {
    all_groups.insert(ProviderGroupKey(meta));
  }
  table.total_groups = static_cast<int64_t>(all_groups.size());
  struct Acc {
    int64_t domains = 0;
    int64_t d1p = 0;
    std::set<std::string> groups;
    std::set<int> countries;
  };
  std::vector<Acc> acc(rules.size());
  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.HasData(y)) continue;
    ++table.total_domains;
    std::set<int> matched;
    bool any_unmatched = false;
    for (int32_t id : domain.years[y].ns_ids) {
      int m = MatchNs(rules, dataset.NsName(id));
      if (m >= 0) {
        matched.insert(m);
      } else {
        any_unmatched = true;
      }
    }
    if (matched.empty()) continue;
    const CountryMeta& meta = countries[domain.country];
    for (int m : matched) {
      ++acc[m].domains;
      acc[m].groups.insert(ProviderGroupKey(meta));
      acc[m].countries.insert(domain.country);
      if (matched.size() == 1 && !any_unmatched) ++acc[m].d1p;
    }
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    ProviderYearRow row;
    row.group_key = rules[i].group_key;
    row.display = rules[i].display;
    row.year = year;
    row.domains = acc[i].domains;
    row.d1p = acc[i].d1p;
    row.groups = static_cast<int64_t>(acc[i].groups.size());
    row.countries = static_cast<int64_t>(acc[i].countries.size());
    row.major = rules[i].major;
    table.rows.push_back(std::move(row));
  }
  return table;
}

// Longest enclosing seed, first in input order among equal lengths.
std::vector<int> Countries(const std::vector<MeasurementResult>& results,
                           const std::vector<SeedDomain>& seeds) {
  std::vector<int> out;
  for (const MeasurementResult& r : results) {
    int best = -1;
    size_t best_labels = 0;
    for (const SeedDomain& seed : seeds) {
      if (!r.domain.IsSubdomainOf(seed.d_gov)) continue;
      if (best >= 0 && seed.d_gov.LabelCount() <= best_labels) continue;
      best = seed.country;
      best_labels = seed.d_gov.LabelCount();
    }
    out.push_back(best);
  }
  return out;
}

std::vector<Name> AllNs(const MeasurementResult& r) {
  std::set<Name> names(r.parent_ns.begin(), r.parent_ns.end());
  names.insert(r.child_ns.begin(), r.child_ns.end());
  return {names.begin(), names.end()};
}

bool HostDefective(const NsHostResult& host) {
  return host.status != NsHostStatus::kAuthoritative;
}

DelegationHealth ClassifyDelegation(const MeasurementResult& result) {
  int64_t parent_hosts = 0, defective = 0;
  for (const NsHostResult& host : result.hosts) {
    if (!host.in_parent_set) continue;
    ++parent_hosts;
    if (HostDefective(host)) ++defective;
  }
  if (parent_hosts == 0 || defective == 0) return DelegationHealth::kHealthy;
  return defective == parent_hosts ? DelegationHealth::kFullyDefective
                                   : DelegationHealth::kPartiallyDefective;
}

ConsistencyClass ClassifyConsistency(const MeasurementResult& result) {
  if (!result.parent_has_records || result.child_ns.empty() ||
      !result.child_any_authoritative) {
    return ConsistencyClass::kNotComparable;
  }
  std::set<Name> p(result.parent_ns.begin(), result.parent_ns.end());
  std::set<Name> c(result.child_ns.begin(), result.child_ns.end());
  if (p == c) return ConsistencyClass::kEqual;
  std::vector<Name> common;
  std::set_intersection(p.begin(), p.end(), c.begin(), c.end(),
                        std::back_inserter(common));
  if (!common.empty()) {
    if (std::includes(c.begin(), c.end(), p.begin(), p.end())) {
      return ConsistencyClass::kChildSuperset;
    }
    if (std::includes(p.begin(), p.end(), c.begin(), c.end())) {
      return ConsistencyClass::kParentSuperset;
    }
    return ConsistencyClass::kOverlapNeither;
  }
  std::set<geo::IPv4> ip_p, ip_c;
  for (const NsHostResult& host : result.hosts) {
    for (geo::IPv4 ip : host.addresses) {
      if (p.contains(host.host)) ip_p.insert(ip);
      if (c.contains(host.host)) ip_c.insert(ip);
    }
  }
  for (geo::IPv4 ip : ip_p) {
    if (ip_c.contains(ip)) return ConsistencyClass::kDisjointSharedIp;
  }
  return ConsistencyClass::kDisjoint;
}

ReplicationSummary AnalyzeReplication(const ActiveDataset& dataset) {
  ReplicationSummary out;
  std::map<int, int64_t> count_hist;
  std::map<int, ReplicationSummary::CountryRow> by_country;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    int ns_count = static_cast<int>(AllNs(r).size());
    ++count_hist[ns_count];
    int c = dataset.country[i];
    ReplicationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
      row->code = dataset.metas[c].code;
      ++row->domains;
    }
    if (ns_count == 1) {
      ++out.d1ns_count;
      bool stale = !r.child_any_authoritative;
      if (stale) out.d1ns_stale_pct += 1.0;
      if (row != nullptr) {
        ++row->d1ns;
        if (stale) ++row->d1ns_stale;
      }
    } else if (row != nullptr) {
      ++row->min_two;
    }
  }
  int64_t cumulative = 0;
  for (const auto& [count, freq] : count_hist) {
    cumulative += freq;
    out.ns_count_cdf.emplace_back(
        count, double(cumulative) / double(out.domains_considered));
  }
  if (out.domains_considered > 0) {
    int64_t singles = count_hist.count(1) ? count_hist[1] : 0;
    out.pct_at_least_two =
        1.0 - double(singles) / double(out.domains_considered);
  }
  if (out.d1ns_count > 0) out.d1ns_stale_pct /= double(out.d1ns_count);
  for (auto& [c, row] : by_country) out.by_country.push_back(row);
  return out;
}

std::vector<geo::IPv4> NsAddresses(const MeasurementResult& r) {
  std::set<geo::IPv4> addrs;
  for (const NsHostResult& h : r.hosts) {
    addrs.insert(h.addresses.begin(), h.addresses.end());
  }
  return {addrs.begin(), addrs.end()};
}

struct DiversityAcc {
  int64_t domains = 0, multi_ip = 0, multi_24 = 0, multi_asn = 0;
  DiversityRow Finish(std::string label) const {
    DiversityRow row;
    row.label = std::move(label);
    row.domains = domains;
    if (domains > 0) {
      row.pct_multi_ip = double(multi_ip) / double(domains);
      row.pct_multi_24 = double(multi_24) / double(domains);
      row.pct_multi_asn = double(multi_asn) / double(domains);
    }
    return row;
  }
};

std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes) {
  DiversityAcc total;
  std::map<std::string, DiversityAcc> per_country;
  std::map<int, std::string> wanted;
  for (size_t i = 0; i < dataset.metas.size(); ++i) {
    for (const std::string& code : country_codes) {
      if (dataset.metas[i].code == code) wanted[static_cast<int>(i)] = code;
    }
  }
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    if (AllNs(r).size() < 2) continue;
    std::vector<geo::IPv4> addrs = NsAddresses(r);
    if (addrs.empty()) continue;
    std::set<uint32_t> prefixes, asns;
    for (geo::IPv4 ip : addrs) {
      prefixes.insert(ip.Slash24().bits());
      if (auto info = asn_db.Lookup(ip)) asns.insert(info->asn);
    }
    auto bump = [&](DiversityAcc& acc) {
      ++acc.domains;
      if (addrs.size() > 1) ++acc.multi_ip;
      if (prefixes.size() > 1) ++acc.multi_24;
      if (asns.size() > 1) ++acc.multi_asn;
    };
    bump(total);
    int c = dataset.country[i];
    if (c >= 0) {
      auto it = wanted.find(c);
      if (it != wanted.end()) bump(per_country[it->second]);
    }
  }
  std::vector<DiversityRow> rows;
  rows.push_back(total.Finish("Total"));
  for (const std::string& code : country_codes) {
    auto it = per_country.find(code);
    rows.push_back(it == per_country.end() ? DiversityRow{code, 0, 0, 0, 0}
                                           : it->second.Finish(code));
  }
  return rows;
}

std::vector<LevelDiversityRow> AnalyzeDiversityByLevel(
    const ActiveDataset& dataset) {
  std::map<int, std::pair<int64_t, int64_t>> acc;
  for (const MeasurementResult& r : dataset.results) {
    if (!r.parent_has_records || AllNs(r).size() < 2) continue;
    std::vector<geo::IPv4> addrs = NsAddresses(r);
    if (addrs.empty()) continue;
    std::set<uint32_t> prefixes;
    for (geo::IPv4 ip : addrs) prefixes.insert(ip.Slash24().bits());
    int level = static_cast<int>(r.domain.LabelCount());
    ++acc[level].second;
    if (prefixes.size() > 1) ++acc[level].first;
  }
  std::vector<LevelDiversityRow> out;
  for (const auto& [level, counts] : acc) {
    out.push_back({level, counts.second,
                   double(counts.first) / double(counts.second)});
  }
  return out;
}

DelegationSummary AnalyzeDelegations(const ActiveDataset& dataset) {
  DelegationSummary out;
  std::map<int, DelegationSummary::CountryRow> by_country;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    DelegationHealth health = model::ClassifyDelegation(r);
    int c = dataset.country[i];
    DelegationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
      row->code = dataset.metas[c].code;
      ++row->domains;
    }
    if (health == DelegationHealth::kPartiallyDefective) {
      ++out.partially_defective;
      if (row != nullptr) ++row->partial;
    } else if (health == DelegationHealth::kFullyDefective) {
      ++out.fully_defective;
      if (row != nullptr) ++row->full;
    }
  }
  for (auto& [c, row] : by_country) out.by_country.push_back(row);
  return out;
}

ConsistencySummary AnalyzeConsistency(const ActiveDataset& dataset) {
  ConsistencySummary out;
  std::map<int, ConsistencySummary::CountryRow> by_country;
  int64_t disagree_total = 0, disagree_with_defect = 0;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    ConsistencyClass klass = model::ClassifyConsistency(r);
    if (klass == ConsistencyClass::kNotComparable) continue;
    ++out.comparable;
    ++out.counts[klass];
    auto& [equal, total] =
        out.by_level[static_cast<int>(r.domain.LabelCount())];
    ++total;
    if (klass == ConsistencyClass::kEqual) ++equal;
    int c = dataset.country[i];
    if (c >= 0) {
      auto& row = by_country[c];
      row.code = dataset.metas[c].code;
      ++row.comparable;
      if (klass != ConsistencyClass::kEqual) ++row.disagree;
    }
    if (klass != ConsistencyClass::kEqual) {
      ++disagree_total;
      if (model::ClassifyDelegation(r) != DelegationHealth::kHealthy) {
        ++disagree_with_defect;
      }
    }
  }
  if (out.comparable > 0) {
    out.pct_equal =
        double(out.counts[ConsistencyClass::kEqual]) / double(out.comparable);
  }
  if (disagree_total > 0) {
    out.pct_disagree_with_partial_defect =
        double(disagree_with_defect) / double(disagree_total);
  }
  for (auto& [c, row] : by_country) out.by_country.push_back(row);
  return out;
}

HijackSummary AnalyzeHijackRisk(const ActiveDataset& dataset,
                                const registrar::PublicSuffixList& psl,
                                const registrar::RegistrarClient& registrar) {
  HijackSummary out;
  auto is_government = [&](const Name& name) {
    for (const SeedDomain& seed : dataset.seeds) {
      if (name.IsSubdomainOf(seed.d_gov)) return true;
    }
    return false;
  };
  struct NsDomainInfo {
    std::set<size_t> domains;
    std::set<int> countries;
  };
  std::map<Name, NsDomainInfo> defective_refs, dangling_refs;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    const bool any_defect =
        model::ClassifyDelegation(r) != DelegationHealth::kHealthy;
    ConsistencyClass klass = model::ClassifyConsistency(r);
    if (any_defect) {
      for (const NsHostResult& host : r.hosts) {
        if (!host.in_parent_set || !HostDefective(host)) continue;
        if (is_government(host.host)) continue;
        auto reg = psl.RegisteredDomain(host.host);
        if (!reg) continue;
        auto& info = defective_refs[*reg];
        info.domains.insert(i);
        if (dataset.country[i] >= 0) info.countries.insert(dataset.country[i]);
      }
    } else if (klass != ConsistencyClass::kEqual &&
               klass != ConsistencyClass::kNotComparable) {
      std::set<Name> p(r.parent_ns.begin(), r.parent_ns.end());
      std::set<Name> c(r.child_ns.begin(), r.child_ns.end());
      for (const NsHostResult& host : r.hosts) {
        bool in_both = p.contains(host.host) && c.contains(host.host);
        if (in_both || is_government(host.host)) continue;
        auto reg = psl.RegisteredDomain(host.host);
        if (!reg) continue;
        auto& info = dangling_refs[*reg];
        info.domains.insert(i);
        if (dataset.country[i] >= 0) info.countries.insert(dataset.country[i]);
      }
    }
  }
  std::map<int, HijackSummary::CountryRow> by_country;
  std::set<size_t> affected_domains;
  std::set<int> affected_countries;
  out.candidate_ns_domains = static_cast<int64_t>(defective_refs.size());
  for (const auto& [reg, info] : defective_refs) {
    if (!registrar.IsAvailable(reg)) continue;
    ++out.available_ns_domains;
    if (auto price = registrar.PriceUsd(reg)) out.prices_usd.push_back(*price);
    if (info.countries.size() > 1) ++out.multi_country_ns_domains;
    affected_domains.insert(info.domains.begin(), info.domains.end());
    affected_countries.insert(info.countries.begin(), info.countries.end());
    for (int c : info.countries) {
      auto& row = by_country[c];
      row.code = dataset.metas[c].code;
      ++row.available_ns_domains;
    }
    for (size_t i : info.domains) {
      int c = dataset.country[i];
      if (c >= 0) ++by_country[c].affected_domains;
    }
  }
  out.affected_domains = static_cast<int64_t>(affected_domains.size());
  out.affected_countries = static_cast<int64_t>(affected_countries.size());
  for (auto& [c, row] : by_country) out.by_country.push_back(row);
  std::set<size_t> dangling_domains;
  std::set<int> dangling_countries;
  for (const auto& [reg, info] : dangling_refs) {
    if (!registrar.IsAvailable(reg)) continue;
    ++out.dangling_available_ns;
    if (auto price = registrar.PriceUsd(reg)) {
      out.dangling_prices_usd.push_back(*price);
    }
    dangling_domains.insert(info.domains.begin(), info.domains.end());
    dangling_countries.insert(info.countries.begin(), info.countries.end());
  }
  out.dangling_domains = static_cast<int64_t>(dangling_domains.size());
  out.dangling_countries = static_cast<int64_t>(dangling_countries.size());
  return out;
}

}  // namespace model

// ---------------------------------------------------------------------------
// Renderings: every field, doubles round-trip exact, so a failing EXPECT_EQ
// shows which aggregate and which field drifted.
// ---------------------------------------------------------------------------

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Render(const std::vector<YearlyCounts>& rows) {
  std::string out;
  for (const YearlyCounts& r : rows) {
    out += std::to_string(r.year) + " " + std::to_string(r.domains) + " " +
           std::to_string(r.countries) + " " + std::to_string(r.nameservers) +
           "\n";
  }
  return out;
}

std::string Render(const std::vector<D1nsChurnRow>& rows) {
  std::string out;
  for (const D1nsChurnRow& r : rows) {
    out += std::to_string(r.year) + " " + std::to_string(r.d1ns_total) + " " +
           Exact(r.pct_overlap_2011) + " " + Exact(r.pct_new_vs_prev) + " " +
           Exact(r.pct_2011_cohort_gone) + "\n";
  }
  return out;
}

std::string Render(const std::vector<PrivateShareRow>& rows) {
  std::string out;
  for (const PrivateShareRow& r : rows) {
    out += std::to_string(r.year) + " " + Exact(r.pct_d1ns_private) + " " +
           Exact(r.pct_all_private) + "\n";
  }
  return out;
}

std::string Render(const ProviderYearTable& t) {
  std::string out = std::to_string(t.year) + " " +
                    std::to_string(t.total_domains) + " " +
                    std::to_string(t.total_groups) + "\n";
  for (const ProviderYearRow& r : t.rows) {
    out += r.group_key + "|" + r.display + " " + std::to_string(r.year) + " " +
           std::to_string(r.domains) + " " + std::to_string(r.d1p) + " " +
           std::to_string(r.groups) + " " + std::to_string(r.countries) + " " +
           std::to_string(r.major) + "\n";
  }
  return out;
}

std::string Render(const ReplicationSummary& s) {
  std::string out = "cdf";
  for (const auto& [count, frac] : s.ns_count_cdf) {
    out += " " + std::to_string(count) + ":" + Exact(frac);
  }
  out += "\n>=2 " + Exact(s.pct_at_least_two) + " considered " +
         std::to_string(s.domains_considered) + " d1ns " +
         std::to_string(s.d1ns_count) + " stale " + Exact(s.d1ns_stale_pct) +
         "\n";
  for (const auto& r : s.by_country) {
    out += r.code + " " + std::to_string(r.domains) + " " +
           std::to_string(r.d1ns) + " " + std::to_string(r.d1ns_stale) + " " +
           std::to_string(r.min_two) + "\n";
  }
  return out;
}

std::string Render(const std::vector<DiversityRow>& rows) {
  std::string out;
  for (const DiversityRow& r : rows) {
    out += r.label + " " + std::to_string(r.domains) + " " +
           Exact(r.pct_multi_ip) + " " + Exact(r.pct_multi_24) + " " +
           Exact(r.pct_multi_asn) + "\n";
  }
  return out;
}

std::string Render(const std::vector<LevelDiversityRow>& rows) {
  std::string out;
  for (const LevelDiversityRow& r : rows) {
    out += std::to_string(r.level) + " " + std::to_string(r.domains) + " " +
           Exact(r.pct_multi_24) + "\n";
  }
  return out;
}

std::string Render(const DelegationSummary& s) {
  std::string out = std::to_string(s.domains_considered) + " " +
                    std::to_string(s.partially_defective) + " " +
                    std::to_string(s.fully_defective) + "\n";
  for (const auto& r : s.by_country) {
    out += r.code + " " + std::to_string(r.domains) + " " +
           std::to_string(r.partial) + " " + std::to_string(r.full) + "\n";
  }
  return out;
}

std::string Render(const ConsistencySummary& s) {
  std::string out = "comparable " + std::to_string(s.comparable) + " counts";
  for (const auto& [klass, n] : s.counts) {
    out += " " + std::to_string(static_cast<int>(klass)) + ":" +
           std::to_string(n);
  }
  out += "\nequal " + Exact(s.pct_equal) + " levels";
  for (const auto& [level, counts] : s.by_level) {
    out += " " + std::to_string(level) + ":" + std::to_string(counts.first) +
           "/" + std::to_string(counts.second);
  }
  out += "\ndefect " + Exact(s.pct_disagree_with_partial_defect) + "\n";
  for (const auto& r : s.by_country) {
    out += r.code + " " + std::to_string(r.comparable) + " " +
           std::to_string(r.disagree) + "\n";
  }
  return out;
}

std::string Render(const HijackSummary& s) {
  std::string out = std::to_string(s.candidate_ns_domains) + " " +
                    std::to_string(s.available_ns_domains) + " " +
                    std::to_string(s.affected_domains) + " " +
                    std::to_string(s.affected_countries) + " " +
                    std::to_string(s.multi_country_ns_domains) + "\nprices";
  for (double p : s.prices_usd) out += " " + Exact(p);
  out += "\n";
  for (const auto& r : s.by_country) {
    out += r.code + " " + std::to_string(r.affected_domains) + " " +
           std::to_string(r.available_ns_domains) + "\n";
  }
  out += "dangling " + std::to_string(s.dangling_available_ns) + " " +
         std::to_string(s.dangling_domains) + " " +
         std::to_string(s.dangling_countries) + " prices";
  for (double p : s.dangling_prices_usd) out += " " + Exact(p);
  return out + "\n";
}

// ---------------------------------------------------------------------------
// Seeded random datasets
// ---------------------------------------------------------------------------

class Draw {
 public:
  explicit Draw(uint64_t seed) : gen_(seed) {}
  // Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(gen_() % n); }
  bool Chance(int percent) { return Below(100) < size_t(percent); }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }

 private:
  std::mt19937_64 gen_;
};

// 50 countries; the datasets only use the sparse ids 0, 3, 17, 40, 42 and
// 45. Country 45 repeats country 3's code.
std::vector<CountryMeta> Metas() {
  std::vector<CountryMeta> metas;
  for (int i = 0; i < 50; ++i) {
    metas.push_back({"c" + std::to_string(i), "Country " + std::to_string(i),
                     "region " + std::to_string(i % 6), i % 9 == 0});
  }
  metas[45].code = "c3";
  return metas;
}

const std::vector<int> kCountries = {0, 3, 17, 40, 42, 45};

// Nested (gov.c3 / health.gov.c3) and duplicate (gov.c17 twice, with
// different countries) seeds; optionally the root as a seed too.
std::vector<SeedDomain> Seeds(bool with_root) {
  std::vector<SeedDomain> seeds;
  auto add = [&](int country, const char* d_gov) {
    seeds.push_back({country, Name::FromString(d_gov),
                     SeedVerification::kRegistryPolicy, false});
  };
  add(3, "gov.c3");
  add(3, "health.gov.c3");
  add(17, "gov.c17");
  add(42, "gov.c17");
  add(40, "gob.c40");
  add(0, "c0");
  add(45, "gov.c45");
  if (with_root) add(42, ".");
  return seeds;
}

struct MinedShape {
  uint64_t seed = 1;
  int year_count = 10;
  int domains = 400;
  bool unknown_country = false;   // some domains have country -1
  bool first_year_d1ns = true;    // false: nobody is d_1NS in the first year
};

MinedDataset RandomMined(const MinedShape& shape,
                         const std::vector<SeedDomain>& seeds) {
  Draw draw(shape.seed);
  MinedDataset dataset;
  dataset.config.first_year = 2000;
  dataset.config.last_year = 2000 + shape.year_count - 1;
  dataset.ns_names = {
      // Inside some d_gov, in every spelling Name::Parse accepts.
      "ns1.gov.c3", "NS2.Gov.C3.", "a.health.gov.c3", "gov.c3", "x.gov.c17",
      "ns.gob.c40", "dns.c0", "c0.",
      // Look inside on the text but do not parse.
      "bad..gov.c3", "a b.gov.c3", "x.gov.c3..",
      std::string(64, 'a') + ".gov.c3",
      // Near misses on a label boundary.
      "notgov.c3", "ns1.gov.c3x", "gov.c3.example.org",
      // Providers, in mixed case.
      "tim.ns.cloudflare.com", "NS-1.AWSDNS-09.NET", "ns1-07.azure-dns.com",
      "dns1.hichina.com", "ns5.hostgator.com.br", "ns1.hostgator.com",
      "NS37.DomainControl.com", "ns1.dnspod.net", "pdns1.ultradns.net",
      // Neither.
      "ns1.example.org", "ns2.example.org", "", ".", "ns.isp.cc"};
  for (int k = 0; k < 40; ++k) {
    dataset.ns_names.push_back("h" + std::to_string(k) +
                               (k % 2 ? ".gov.c3" : ".example.net"));
  }
  const size_t n_ns = dataset.ns_names.size();
  for (int i = 0; i < shape.domains; ++i) {
    MinedDomain domain;
    domain.name = Name::FromString("d" + std::to_string(i) + ".gov.c3");
    domain.seed_index = static_cast<int>(draw.Below(seeds.size()));
    domain.country = shape.unknown_country && draw.Chance(10)
                         ? -1
                         : draw.Pick(kCountries);
    domain.years.resize(shape.year_count);
    for (int y = 0; y < shape.year_count; ++y) {
      YearState& state = domain.years[y];
      if (draw.Chance(35)) continue;  // no data this year
      state.mode_ns_count = draw.Chance(35) ? 1 : 2 + int(draw.Below(3));
      if (y == 0 && !shape.first_year_d1ns && state.mode_ns_count == 1) {
        state.mode_ns_count = 2;
      }
      // Ids drawn with replacement: repeats within a year are allowed.
      const size_t ids = 1 + draw.Below(state.mode_ns_count == 1 ? 2 : 5);
      for (size_t k = 0; k < ids; ++k) {
        state.ns_ids.push_back(static_cast<int32_t>(draw.Below(n_ns)));
      }
    }
    dataset.domains.push_back(std::move(domain));
  }
  return dataset;
}

void ExpectMinedAggregatesMatch(const MinedDataset& dataset,
                                const std::vector<SeedDomain>& seeds,
                                bool with_providers) {
  EXPECT_EQ(Render(CountPerYear(dataset)),
            Render(model::CountPerYear(dataset)));
  EXPECT_EQ(Render(D1nsChurn(dataset)), Render(model::D1nsChurn(dataset)));
  EXPECT_EQ(Render(PrivateShare(dataset, seeds)),
            Render(model::PrivateShare(dataset, seeds)));
  if (!with_providers) return;
  const std::vector<ProviderRule> rules = DefaultProviderRules();
  const ProviderMatcher matcher(rules);
  const ProviderAnalyzer analyzer(&matcher, Metas());
  const int first = dataset.config.first_year;
  const int last = dataset.config.last_year;
  std::vector<ProviderYearTable> tables =
      analyzer.AnalyzeYears(dataset, {last, first, last});
  ASSERT_EQ(tables.size(), 3u);
  const std::string want_last =
      Render(model::AnalyzeProviders(rules, Metas(), dataset, last));
  EXPECT_EQ(Render(tables[0]), want_last);
  EXPECT_EQ(Render(tables[1]),
            Render(model::AnalyzeProviders(rules, Metas(), dataset, first)));
  EXPECT_EQ(Render(tables[2]), want_last);
  EXPECT_EQ(Render(analyzer.Analyze(dataset, last)), want_last);
}

// Hosts: government ones under the seeds, registrable ones under the public
// suffixes (some available), and one under an unknown TLD.
const std::vector<std::string>& HostPool() {
  static const std::vector<std::string> pool = {
      "ns1.x.gov.c3", "ns2.x.gov.c3",  "n.health.gov.c3", "ns.gov.c17",
      "ns.gob.c40",   "ns.c0",         "ns1.prov1.com",   "ns2.prov1.com",
      "ns1.prov2.net", "a.b.prov3.com", "ns.dead4.com",   "ns.prov5.com",
      "ns.nowhere.zz", "ns1.shop.c40"};
  return pool;
}

class FakeRegistrar : public registrar::RegistrarClient {
 public:
  bool IsAvailable(const Name& domain) const override {
    const std::string text = domain.ToString();
    return text == "prov2.net" || text == "dead4.com" || text == "prov5.com" ||
           text == "shop.c40";
  }
  std::optional<double> PriceUsd(const Name& domain) const override {
    if (!IsAvailable(domain) || domain.ToString() == "prov5.com") {
      return std::nullopt;
    }
    return 1.0 + double(domain.CanonicalKey().size()) / 7.0;
  }
};

registrar::PublicSuffixList Psl() {
  registrar::PublicSuffixList psl;
  for (const char* s : {"com", "net", "c3", "gov.c3", "c17", "gov.c17", "c40",
                        "c0"}) {
    psl.AddSuffix(Name::FromString(s));
  }
  return psl;
}

geo::AsnDatabase AsnDb() {
  geo::AsnDatabase db;
  db.Add(geo::Cidr(geo::IPv4(10, 0, 0, 0), 24), 1, "one");
  db.Add(geo::Cidr(geo::IPv4(10, 0, 1, 0), 24), 1, "one");
  db.Add(geo::Cidr(geo::IPv4(10, 0, 2, 0), 24), 2, "two");
  db.Add(geo::Cidr(geo::IPv4(10, 1, 0, 0), 16), 3, "three");
  db.Add(geo::Cidr(geo::IPv4(10, 1, 5, 0), 24), 4, "four");  // nested
  return db;
}

geo::IPv4 RandomAddress(Draw& draw) {
  static const std::vector<geo::IPv4> nets = {
      geo::IPv4(10, 0, 0, 0), geo::IPv4(10, 0, 1, 0), geo::IPv4(10, 0, 2, 0),
      geo::IPv4(10, 1, 0, 0), geo::IPv4(10, 1, 5, 0), geo::IPv4(10, 9, 9, 0)};
  return geo::IPv4(draw.Pick(nets).bits() + 1 + uint32_t(draw.Below(3)));
}

std::vector<MeasurementResult> RandomResults(uint64_t seed, int count) {
  Draw draw(seed);
  static const std::vector<std::string> zones = {
      "gov.c3", "health.gov.c3", "gov.c17", "gob.c40",
      "c0",     "gov.c45",       "other.zz"};
  std::vector<MeasurementResult> results;
  for (int i = 0; i < count; ++i) {
    MeasurementResult r;
    std::string domain = "d" + std::to_string(i) + "." + draw.Pick(zones);
    if (draw.Chance(30)) domain = "w." + domain;
    r.domain = Name::FromString(domain);
    r.parent_located = true;
    r.parent_responded = draw.Chance(90);
    r.parent_has_records = r.parent_responded && draw.Chance(85);
    if (r.parent_has_records) {
      std::set<Name> parent;
      const size_t n = 1 + draw.Below(4);
      for (size_t k = 0; k < n; ++k) {
        parent.insert(Name::FromString(draw.Pick(HostPool())));
      }
      r.parent_ns.assign(parent.begin(), parent.end());
      if (draw.Chance(10)) {  // hand-assembled: unsorted, one repeat
        std::reverse(r.parent_ns.begin(), r.parent_ns.end());
        r.parent_ns.push_back(r.parent_ns.front());
      }
    }
    if (r.parent_has_records && draw.Chance(75)) {
      // Distinct but unsorted, overlapping P by construction.
      std::vector<Name> child;
      const size_t n = 1 + draw.Below(4);
      for (size_t k = 0; k < n; ++k) {
        Name name = draw.Chance(50) ? draw.Pick(r.parent_ns)
                                    : Name::FromString(draw.Pick(HostPool()));
        if (std::find(child.begin(), child.end(), name) == child.end()) {
          child.push_back(std::move(name));
        }
      }
      std::shuffle(child.begin(), child.end(), std::mt19937_64(seed + i));
      if (draw.Chance(5)) child.push_back(child.front());  // hand-assembled
      r.child_ns = std::move(child);
    }
    // One host per name of P ∪ C, P first; now and then a repeated host.
    std::vector<Name> names = r.parent_ns;
    names.insert(names.end(), r.child_ns.begin(), r.child_ns.end());
    std::vector<Name> seen;
    for (const Name& name : names) {
      if (std::find(seen.begin(), seen.end(), name) != seen.end() &&
          !draw.Chance(5)) {
        continue;
      }
      seen.push_back(name);
      NsHostResult host;
      host.host = name;
      host.in_parent_set = std::find(r.parent_ns.begin(), r.parent_ns.end(),
                                     name) != r.parent_ns.end();
      host.in_child_set = std::find(r.child_ns.begin(), r.child_ns.end(),
                                    name) != r.child_ns.end();
      static const std::vector<NsHostStatus> statuses = {
          NsHostStatus::kAuthoritative, NsHostStatus::kAuthoritative,
          NsHostStatus::kAuthoritative, NsHostStatus::kNonAuthoritative,
          NsHostStatus::kRefused,       NsHostStatus::kNoResponse,
          NsHostStatus::kUnresolvable};
      host.status = draw.Pick(statuses);
      // Addresses drawn with replacement: duplicates within and across
      // hosts.
      const size_t addrs = draw.Below(4);
      for (size_t k = 0; k < addrs; ++k) {
        host.addresses.push_back(RandomAddress(draw));
      }
      if (host.status == NsHostStatus::kAuthoritative) {
        r.child_any_authoritative = true;
      }
      r.hosts.push_back(std::move(host));
    }
    if (draw.Chance(10)) r.child_any_authoritative = false;
    results.push_back(std::move(r));
  }
  return results;
}

void ExpectActiveAggregatesMatch(std::vector<MeasurementResult> results,
                                 const std::vector<SeedDomain>& seeds) {
  const std::vector<int> want_countries = model::Countries(results, seeds);
  for (const MeasurementResult& r : results) {
    const std::vector<Name> all = model::AllNs(r);
    EXPECT_EQ(r.AllNs(), all) << r.domain.ToString();
    EXPECT_EQ(r.AllNsCount(), all.size()) << r.domain.ToString();
    EXPECT_EQ(ClassifyConsistency(r), model::ClassifyConsistency(r))
        << r.domain.ToString();
  }
  const ActiveDataset dataset =
      ActiveDataset::Build(std::move(results), seeds, Metas());
  EXPECT_EQ(dataset.country, want_countries);

  const geo::AsnDatabase asn_db = AsnDb();
  const std::vector<std::string> codes = {"c3", "c17", "c3", "zz", "c40"};
  const registrar::PublicSuffixList psl = Psl();
  const FakeRegistrar registrar;
  EXPECT_EQ(Render(AnalyzeReplication(dataset)),
            Render(model::AnalyzeReplication(dataset)));
  EXPECT_EQ(Render(AnalyzeDiversity(dataset, asn_db, codes)),
            Render(model::AnalyzeDiversity(dataset, asn_db, codes)));
  EXPECT_EQ(Render(AnalyzeDiversityByLevel(dataset)),
            Render(model::AnalyzeDiversityByLevel(dataset)));
  EXPECT_EQ(Render(AnalyzeDelegations(dataset)),
            Render(model::AnalyzeDelegations(dataset)));
  EXPECT_EQ(Render(AnalyzeConsistency(dataset)),
            Render(model::AnalyzeConsistency(dataset)));
  EXPECT_EQ(Render(AnalyzeHijackRisk(dataset, psl, registrar)),
            Render(model::AnalyzeHijackRisk(dataset, psl, registrar)));
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

class AggregateModel : public ::testing::TestWithParam<int> {};

TEST_P(AggregateModel, MinedAggregatesMatchModel) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  for (bool root_seed : {false, true}) {
    const std::vector<SeedDomain> seeds = Seeds(root_seed);
    MinedShape shape;
    shape.seed = seed;
    ExpectMinedAggregatesMatch(RandomMined(shape, seeds), seeds, true);
    // Unknown countries: the providers' country table is indexed by
    // country, so only the country-agnostic aggregates take this one.
    shape.unknown_country = true;
    ExpectMinedAggregatesMatch(RandomMined(shape, seeds), seeds, false);
  }
}

TEST_P(AggregateModel, ActiveAggregatesMatchModel) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ExpectActiveAggregatesMatch(RandomResults(seed, 300), Seeds(false));
  ExpectActiveAggregatesMatch(RandomResults(seed + 100, 300), Seeds(true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateModel, ::testing::Range(1, 7));

// The random datasets reach every branch the comparisons are meant to
// cover; a generator that drifted into a degenerate corner would otherwise
// let the comparisons pass vacuously.
TEST(AggregateModelShapes, DatasetsReachEveryBranch) {
  const std::vector<SeedDomain> seeds = Seeds(false);
  MinedShape shape;
  shape.unknown_country = true;
  const MinedDataset mined = RandomMined(shape, seeds);
  const std::vector<PrivateShareRow> shares =
      model::PrivateShare(mined, seeds);
  EXPECT_TRUE(std::any_of(shares.begin(), shares.end(), [](const auto& r) {
    return r.pct_all_private > 0.0 && r.pct_d1ns_private > 0.0;
  }));
  const ProviderYearTable providers = model::AnalyzeProviders(
      DefaultProviderRules(), Metas(), RandomMined(MinedShape(), seeds),
      2009);
  EXPECT_TRUE(std::any_of(
      providers.rows.begin(), providers.rows.end(),
      [](const auto& r) { return r.d1p > 0 && r.groups > 1; }));

  const ActiveDataset active =
      ActiveDataset::Build(RandomResults(1, 300), seeds, Metas());
  const ConsistencySummary consistency = model::AnalyzeConsistency(active);
  EXPECT_EQ(consistency.counts.size(), 6u);  // every comparable class
  const HijackSummary hijack =
      model::AnalyzeHijackRisk(active, Psl(), FakeRegistrar());
  EXPECT_GT(hijack.available_ns_domains, 0);
  EXPECT_GT(hijack.multi_country_ns_domains, 0);
  EXPECT_GT(hijack.dangling_available_ns, 0);
  const std::vector<DiversityRow> diversity =
      model::AnalyzeDiversity(active, AsnDb(), {"c3"});
  EXPECT_GT(diversity[0].pct_multi_asn, 0.0);
  EXPECT_LT(diversity[0].pct_multi_asn, diversity[0].pct_multi_ip);
  EXPECT_GT(diversity[1].domains, 0);
}

TEST(AggregateModelShapes, YearSpansOfOneTenAndSeventy) {
  const std::vector<SeedDomain> seeds = Seeds(false);
  for (int year_count : {1, 10, 70}) {
    MinedShape shape;
    shape.seed = 7 + static_cast<uint64_t>(year_count);
    shape.year_count = year_count;
    shape.domains = 250;
    SCOPED_TRACE(year_count);
    ExpectMinedAggregatesMatch(RandomMined(shape, seeds), seeds, true);
  }
}

TEST(AggregateModelShapes, FirstYearWithoutD1ns) {
  const std::vector<SeedDomain> seeds = Seeds(false);
  MinedShape shape;
  shape.seed = 11;
  shape.first_year_d1ns = false;
  const MinedDataset dataset = RandomMined(shape, seeds);
  EXPECT_EQ(D1nsChurn(dataset).front().d1ns_total, 0);
  ExpectMinedAggregatesMatch(dataset, seeds, true);
}

TEST(AggregateModelShapes, EmptyDatasets) {
  const std::vector<SeedDomain> seeds = Seeds(false);
  MinedShape shape;
  shape.domains = 0;
  MinedDataset mined = RandomMined(shape, seeds);
  ExpectMinedAggregatesMatch(mined, seeds, true);
  mined.ns_names.clear();
  ExpectMinedAggregatesMatch(mined, seeds, true);
  ExpectActiveAggregatesMatch({}, seeds);
  ExpectActiveAggregatesMatch({}, {});
}

}  // namespace
}  // namespace govdns::core

#include "core/analysis.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>

namespace govdns::core {

namespace {

// True when the NS host fails to serve the domain (the paper's defective
// criterion: listed but "does not answer queries for that zone").
bool HostDefective(const NsHostResult& host) {
  return host.status != NsHostStatus::kAuthoritative;
}

bool Contains(const std::vector<dns::Name>& names, const dns::Name& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// The seeds keyed by the canonical key of their d_gov; among duplicate
// seeds the first in input order is kept. A name's suffixes are prefixes of
// its canonical key, so the longest seed enclosing it is the first suffix,
// longest first, found here: a few hash probes per name instead of a scan
// over every seed.
class SeedIndex {
 public:
  explicit SeedIndex(const std::vector<SeedDomain>& seeds) {
    by_key_.reserve(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i) {
      by_key_.emplace(std::string_view(seeds[i].d_gov.CanonicalKey()),
                      static_cast<int>(i));
    }
  }

  // Index of the longest seed whose d_gov is `name` or encloses it; -1 if
  // none does.
  int Longest(const dns::Name& name) const {
    const std::string& key = name.CanonicalKey();
    size_t len = key.size();
    while (true) {
      auto it = by_key_.find(std::string_view(key.data(), len));
      if (it != by_key_.end()) return it->second;
      if (len == 0) return -1;
      // Drop the leftmost label: cut the key at its last separator.
      const size_t cut = key.rfind('\0', len - 1);
      len = cut == std::string::npos ? 0 : cut;
    }
  }

 private:
  std::unordered_map<std::string_view, int> by_key_;
};

}  // namespace

ActiveDataset ActiveDataset::Build(std::vector<MeasurementResult> results,
                                   std::vector<SeedDomain> seeds,
                                   std::vector<CountryMeta> metas) {
  ActiveDataset out;
  out.results = std::move(results);
  out.seeds = std::move(seeds);
  out.metas = std::move(metas);
  out.country.resize(out.results.size(), -1);
  // Longest match over seeds (jis.gov.jm-style seeds can nest under a TLD
  // another seed also uses). Among duplicate seed rows for one d_gov
  // (possibly with conflicting country metadata) the first in input order
  // wins, so attribution never depends on which duplicate is listed last.
  const SeedIndex index(out.seeds);
  for (size_t i = 0; i < out.results.size(); ++i) {
    const int seed = index.Longest(out.results[i].domain);
    if (seed >= 0) out.country[i] = out.seeds[seed].country;
  }
  return out;
}

ActiveDataset::Funnel ActiveDataset::ComputeFunnel() const {
  Funnel funnel;
  funnel.queried = static_cast<int64_t>(results.size());
  for (const MeasurementResult& r : results) {
    if (r.parent_responded) ++funnel.parent_responded;
    if (r.parent_has_records) ++funnel.parent_has_records;
    if (r.child_any_authoritative) ++funnel.child_authoritative;
  }
  return funnel;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

ReplicationSummary AnalyzeReplication(const ActiveDataset& dataset) {
  ReplicationSummary out;
  std::vector<int64_t> count_hist;  // indexed by |P ∪ C|
  std::vector<ReplicationSummary::CountryRow> by_country(dataset.metas.size());

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    const size_t ns_count = r.AllNsCount();
    if (ns_count >= count_hist.size()) count_hist.resize(ns_count + 1, 0);
    ++count_hist[ns_count];

    int c = dataset.country[i];
    ReplicationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
      ++row->domains;
    }
    if (ns_count == 1) {
      ++out.d1ns_count;
      bool stale = !r.child_any_authoritative;
      if (stale) {
        out.d1ns_stale_pct += 1.0;  // numerator for now
      }
      if (row != nullptr) {
        ++row->d1ns;
        if (stale) ++row->d1ns_stale;
      }
    } else if (row != nullptr) {
      ++row->min_two;
    }
  }

  int64_t cumulative = 0;
  for (size_t count = 0; count < count_hist.size(); ++count) {
    if (count_hist[count] == 0) continue;
    cumulative += count_hist[count];
    out.ns_count_cdf.emplace_back(
        static_cast<int>(count),
        double(cumulative) / double(out.domains_considered));
  }
  if (out.domains_considered > 0) {
    int64_t singles = count_hist.size() > 1 ? count_hist[1] : 0;
    out.pct_at_least_two =
        1.0 - double(singles) / double(out.domains_considered);
  }
  if (out.d1ns_count > 0) {
    out.d1ns_stale_pct /= double(out.d1ns_count);
  }
  for (size_t c = 0; c < by_country.size(); ++c) {
    if (by_country[c].domains == 0) continue;
    by_country[c].code = dataset.metas[c].code;
    out.by_country.push_back(std::move(by_country[c]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Diversity (Table I)
// ---------------------------------------------------------------------------

namespace {

struct DiversityAcc {
  int64_t domains = 0;
  int64_t multi_ip = 0;
  int64_t multi_24 = 0;
  int64_t multi_asn = 0;

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

// Sorts `keys` and returns how many are distinct: the per-result /24 and
// ASN counts of the diversity passes, in buffers reused across results.
size_t CountDistinct(std::vector<uint32_t>& keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(std::unique(keys.begin(), keys.end()) -
                             keys.begin());
}

}  // namespace

std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes) {
  DiversityAcc total;
  // Per requested code (first position of each distinct code), and the
  // requested slot of every country index (-1: not requested).
  std::vector<DiversityAcc> per_code(country_codes.size());
  auto code_slot = [&](const std::string& code) {
    return static_cast<int>(
        std::find(country_codes.begin(), country_codes.end(), code) -
        country_codes.begin());
  };
  std::vector<int> wanted(dataset.metas.size(), -1);
  for (size_t i = 0; i < dataset.metas.size(); ++i) {
    const int slot = code_slot(dataset.metas[i].code);
    if (slot < static_cast<int>(country_codes.size())) wanted[i] = slot;
  }

  std::vector<geo::IPv4> addrs;
  std::vector<uint32_t> prefixes, asns;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    if (r.AllNsCount() < 2) continue;  // multi-NS domains only
    r.NsAddresses(addrs);
    if (addrs.empty()) continue;

    prefixes.clear();
    asns.clear();
    for (geo::IPv4 ip : addrs) {
      prefixes.push_back(ip.Slash24().bits());
      if (const geo::AsnInfo* info = asn_db.Lookup(ip)) asns.push_back(info->asn);
    }
    const size_t n_prefixes = CountDistinct(prefixes);
    const size_t n_asns = CountDistinct(asns);
    auto bump = [&](DiversityAcc& acc) {
      ++acc.domains;
      if (addrs.size() > 1) ++acc.multi_ip;
      if (n_prefixes > 1) ++acc.multi_24;
      if (n_asns > 1) ++acc.multi_asn;
    };
    bump(total);
    int c = dataset.country[i];
    if (c >= 0 && wanted[c] >= 0) bump(per_code[wanted[c]]);
  }

  std::vector<DiversityRow> rows;
  rows.push_back(total.Finish("Total"));
  for (const std::string& code : country_codes) {
    rows.push_back(per_code[code_slot(code)].Finish(code));
  }
  return rows;
}

std::vector<LevelDiversityRow> AnalyzeDiversityByLevel(
    const ActiveDataset& dataset) {
  std::map<int, std::pair<int64_t, int64_t>> acc;  // level -> (multi24, total)
  std::vector<geo::IPv4> addrs;
  std::vector<uint32_t> prefixes;
  for (const MeasurementResult& r : dataset.results) {
    if (!r.parent_has_records || r.AllNsCount() < 2) continue;
    r.NsAddresses(addrs);
    if (addrs.empty()) continue;
    prefixes.clear();
    for (geo::IPv4 ip : addrs) prefixes.push_back(ip.Slash24().bits());
    int level = static_cast<int>(r.domain.LabelCount());
    ++acc[level].second;
    if (CountDistinct(prefixes) > 1) ++acc[level].first;
  }
  std::vector<LevelDiversityRow> out;
  for (const auto& [level, counts] : acc) {
    LevelDiversityRow row;
    row.level = level;
    row.domains = counts.second;
    row.pct_multi_24 =
        counts.second > 0 ? double(counts.first) / double(counts.second) : 0.0;
    out.push_back(row);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Defective delegations
// ---------------------------------------------------------------------------

DelegationHealth ClassifyDelegation(const MeasurementResult& result) {
  int64_t parent_hosts = 0;
  int64_t defective = 0;
  for (const NsHostResult& host : result.hosts) {
    if (!host.in_parent_set) continue;
    ++parent_hosts;
    if (HostDefective(host)) ++defective;
  }
  if (parent_hosts == 0 || defective == 0) return DelegationHealth::kHealthy;
  return defective == parent_hosts ? DelegationHealth::kFullyDefective
                                   : DelegationHealth::kPartiallyDefective;
}

DelegationSummary AnalyzeDelegations(const ActiveDataset& dataset) {
  DelegationSummary out;
  std::vector<DelegationSummary::CountryRow> by_country(dataset.metas.size());
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    DelegationHealth health = ClassifyDelegation(r);
    int c = dataset.country[i];
    DelegationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
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
  for (size_t c = 0; c < by_country.size(); ++c) {
    if (by_country[c].domains == 0) continue;
    by_country[c].code = dataset.metas[c].code;
    out.by_country.push_back(std::move(by_country[c]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parent/child consistency
// ---------------------------------------------------------------------------

ConsistencyClass ClassifyConsistency(const MeasurementResult& result) {
  if (!result.parent_has_records || result.child_ns.empty() ||
      !result.child_any_authoritative) {
    return ConsistencyClass::kNotComparable;
  }
  // Set relations of P and C by membership scans: an NS set is a handful of
  // names, so this is cheaper than building either set.
  const std::vector<dns::Name>& p = result.parent_ns;
  const std::vector<dns::Name>& c = result.child_ns;
  bool common = false;
  bool p_in_c = true;  // P ⊆ C
  for (const dns::Name& name : p) {
    if (Contains(c, name)) {
      common = true;
    } else {
      p_in_c = false;
    }
  }
  const bool c_in_p = std::all_of(c.begin(), c.end(), [&](const dns::Name& n) {
    return Contains(p, n);
  });
  if (p_in_c && c_in_p) return ConsistencyClass::kEqual;
  if (common) {
    if (p_in_c) return ConsistencyClass::kChildSuperset;
    if (c_in_p) return ConsistencyClass::kParentSuperset;
    return ConsistencyClass::kOverlapNeither;
  }
  // Disjoint name sets: is some address of a P host also one of a C host?
  for (const NsHostResult& p_host : result.hosts) {
    if (p_host.addresses.empty() || !Contains(p, p_host.host)) continue;
    for (const NsHostResult& c_host : result.hosts) {
      if (!Contains(c, c_host.host)) continue;
      for (geo::IPv4 ip : p_host.addresses) {
        if (std::find(c_host.addresses.begin(), c_host.addresses.end(), ip) !=
            c_host.addresses.end()) {
          return ConsistencyClass::kDisjointSharedIp;
        }
      }
    }
  }
  return ConsistencyClass::kDisjoint;
}

ConsistencySummary AnalyzeConsistency(const ActiveDataset& dataset) {
  ConsistencySummary out;
  std::vector<ConsistencySummary::CountryRow> by_country(dataset.metas.size());
  int64_t disagree_total = 0;
  int64_t disagree_with_defect = 0;

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    ConsistencyClass klass = ClassifyConsistency(r);
    if (klass == ConsistencyClass::kNotComparable) continue;
    ++out.comparable;
    ++out.counts[klass];
    int level = static_cast<int>(r.domain.LabelCount());
    auto& [equal, total] = out.by_level[level];
    ++total;
    if (klass == ConsistencyClass::kEqual) ++equal;

    int c = dataset.country[i];
    if (c >= 0) {
      auto& row = by_country[c];
      ++row.comparable;
      if (klass != ConsistencyClass::kEqual) ++row.disagree;
    }
    if (klass != ConsistencyClass::kEqual) {
      ++disagree_total;
      if (ClassifyDelegation(r) != DelegationHealth::kHealthy) {
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
  for (size_t c = 0; c < by_country.size(); ++c) {
    if (by_country[c].comparable == 0) continue;
    by_country[c].code = dataset.metas[c].code;
    out.by_country.push_back(std::move(by_country[c]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Hijack risk
// ---------------------------------------------------------------------------

HijackSummary AnalyzeHijackRisk(const ActiveDataset& dataset,
                                const registrar::PublicSuffixList& psl,
                                const registrar::RegistrarClient& registrar) {
  HijackSummary out;

  const SeedIndex seeds(dataset.seeds);
  auto is_government = [&](const dns::Name& name) {
    return seeds.Longest(name) >= 0;
  };

  struct NsDomainInfo {
    std::set<size_t> domains;   // result indices referencing it
    std::set<int> countries;
  };
  std::map<dns::Name, NsDomainInfo> defective_refs;
  std::map<dns::Name, NsDomainInfo> dangling_refs;
  auto add_ref = [&](std::map<dns::Name, NsDomainInfo>& refs,
                     const dns::Name& host, size_t i) {
    if (is_government(host)) return;
    auto reg = psl.RegisteredDomain(host);
    if (!reg) return;
    auto& info = refs[*reg];
    info.domains.insert(i);
    if (dataset.country[i] >= 0) info.countries.insert(dataset.country[i]);
  };

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    if (ClassifyDelegation(r) != DelegationHealth::kHealthy) {
      for (const NsHostResult& host : r.hosts) {
        if (!host.in_parent_set || !HostDefective(host)) continue;
        add_ref(defective_refs, host.host, i);
      }
      continue;
    }
    ConsistencyClass klass = ClassifyConsistency(r);
    if (klass != ConsistencyClass::kEqual &&
        klass != ConsistencyClass::kNotComparable) {
      // §IV-D: inconsistent but fully responsive — dangling candidates are
      // the NS names not present in both P and C.
      for (const NsHostResult& host : r.hosts) {
        if (Contains(r.parent_ns, host.host) &&
            Contains(r.child_ns, host.host)) {
          continue;
        }
        add_ref(dangling_refs, host.host, i);
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
  for (auto& [c, row] : by_country) out.by_country.push_back(std::move(row));

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

}  // namespace govdns::core

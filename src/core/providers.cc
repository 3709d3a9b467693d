#include "core/providers.h"

#include <algorithm>
#include <string_view>

#include "util/strings.h"

namespace govdns::core {

std::vector<ProviderRule> DefaultProviderRules() {
  std::vector<ProviderRule> rules;
  auto add = [&](std::string group, std::string display,
                 std::vector<std::string> suffixes,
                 std::vector<std::string> substrings, bool major) {
    ProviderRule rule;
    rule.group_key = std::move(group);
    rule.display = std::move(display);
    rule.ns_suffixes = std::move(suffixes);
    rule.ns_substrings = std::move(substrings);
    for (const std::string& s : rule.ns_suffixes) {
      rule.soa_suffixes.push_back(s);
    }
    rule.major = major;
    rules.push_back(std::move(rule));
  };

  // Majors (Table II).
  add("AWS DNS", "Amazon", {}, {".awsdns-"}, true);
  add("Azure DNS", "Azure", {}, {".azure-dns."}, true);
  add("cloudflare.com", "Cloudflare", {".ns.cloudflare.com"}, {}, true);
  add("dnspod.net", "DNSPod", {".dnspod.net"}, {}, true);
  add("dnsmadeeasy.com", "DNSMadeEasy", {".dnsmadeeasy.com"}, {}, true);
  add("dynect.net", "Dyn", {".dynect.net"}, {}, true);
  add("domaincontrol.com", "GoDaddy", {".domaincontrol.com"}, {}, true);
  add("ultradns.net", "UltraDNS", {".ultradns.net"}, {}, true);

  // The wider pool (Table III and the long tail).
  add("websitewelcome.com", "websitewelcome.com", {".websitewelcome.com"}, {},
      false);
  add("Hostgator", "Hostgator", {".hostgator.com", ".hostgator.com.br"}, {},
      false);
  add("zoneedit.com", "zoneedit.com", {".zoneedit.com"}, {}, false);
  add("dreamhost.com", "dreamhost.com", {".dreamhost.com"}, {}, false);
  add("bluehost.com", "bluehost.com", {".bluehost.com"}, {}, false);
  add("ixwebhosting.com", "ixwebhosting.com", {".ixwebhosting.com"}, {},
      false);
  add("hostmonster.com", "hostmonster.com", {".hostmonster.com"}, {}, false);
  add("everydns.net", "everydns.net", {".everydns.net"}, {}, false);
  add("pipedns.com", "pipedns.com", {".pipedns.com"}, {}, false);
  add("stabletransit.com", "stabletransit.com", {".stabletransit.com"}, {},
      false);
  add("digitalocean.com", "digitalocean.com", {".digitalocean.com"}, {},
      false);
  add("microsoftonline.com", "microsoftonline.com", {".microsoftonline.com"},
      {}, false);
  add("wixdns.net", "wixdns.net", {".wixdns.net"}, {}, false);
  add("cloudns.net", "cloudns.net", {".cloudns.net"}, {}, false);
  add("hichina.com", "HiChina", {".hichina.com"}, {}, false);
  add("xincache.com", "XinNet", {".xincache.com"}, {}, false);
  add("dns-diy.com", "DNS-DIY", {".dns-diy.com"}, {}, false);
  return rules;
}

ProviderMatcher::ProviderMatcher(std::vector<ProviderRule> rules)
    : rules_(std::move(rules)) {
  folded_.reserve(rules_.size());
  for (const ProviderRule& rule : rules_) {
    FoldedNsPatterns& folded = folded_.emplace_back();
    for (const std::string& s : rule.ns_suffixes) {
      folded.suffixes.push_back(util::ToLower(s));
    }
    for (const std::string& s : rule.ns_substrings) {
      folded.substrings.push_back(util::ToLower(s));
    }
  }
}

int ProviderMatcher::MatchNs(const std::string& hostname) const {
  // Case-insensitive suffix/substring tests, as plain ones on folded text.
  // A hostname fits the stack buffer; only an over-long string allocates.
  char buffer[256];
  std::string long_host;
  std::string_view host;
  if (hostname.size() <= sizeof(buffer)) {
    std::transform(hostname.begin(), hostname.end(), buffer,
                   [](char c) { return util::AsciiLower(c); });
    host = std::string_view(buffer, hostname.size());
  } else {
    long_host = util::ToLower(hostname);
    host = long_host;
  }
  for (size_t i = 0; i < folded_.size(); ++i) {
    for (const std::string& suffix : folded_[i].suffixes) {
      if (host.ends_with(suffix)) return static_cast<int>(i);
    }
    for (const std::string& sub : folded_[i].substrings) {
      if (host.find(sub) != std::string::npos) return static_cast<int>(i);
    }
  }
  return -1;
}

int ProviderMatcher::MatchSoa(const dns::SoaRdata& soa) const {
  int m = MatchNs(soa.mname.ToString());
  if (m >= 0) return m;
  for (size_t i = 0; i < rules_.size(); ++i) {
    for (const std::string& suffix : rules_[i].soa_suffixes) {
      if (util::EndsWithIgnoreCase(soa.rname.ToString(), suffix)) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

ProviderAnalyzer::ProviderAnalyzer(const ProviderMatcher* matcher,
                                   std::vector<CountryMeta> countries)
    : matcher_(matcher), countries_(std::move(countries)) {
  GOVDNS_CHECK(matcher != nullptr);
  // Grouping units that exist at all: distinct sub-regions + top-10.
  std::vector<std::string> keys;
  keys.reserve(countries_.size());
  for (const CountryMeta& meta : countries_) {
    keys.push_back(ProviderGroupKey(meta));
  }
  std::vector<std::string> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  group_count_ = static_cast<int64_t>(distinct.size());
  country_group_.reserve(keys.size());
  for (const std::string& key : keys) {
    country_group_.push_back(static_cast<int>(
        std::lower_bound(distinct.begin(), distinct.end(), key) -
        distinct.begin()));
  }
}

ProviderYearTable ProviderAnalyzer::Analyze(const MinedDataset& dataset,
                                            int year) const {
  return std::move(AnalyzeYears(dataset, {year}).front());
}

std::vector<ProviderYearTable> ProviderAnalyzer::AnalyzeYears(
    const MinedDataset& dataset, const std::vector<int>& years) const {
  std::vector<int> ns_rule(dataset.ns_names.size(), kNotMatched);
  std::vector<ProviderYearTable> out;
  out.reserve(years.size());
  for (int year : years) out.push_back(AnalyzeYear(dataset, year, ns_rule));
  return out;
}

ProviderYearTable ProviderAnalyzer::AnalyzeYear(
    const MinedDataset& dataset, int year, std::vector<int>& ns_rule) const {
  const int y = year - dataset.config.first_year;
  GOVDNS_CHECK(y >= 0 && y < dataset.config.year_count());

  const auto& rules = matcher_->rules();
  const size_t n_groups = static_cast<size_t>(group_count_);
  const size_t n_countries = countries_.size();
  ProviderYearTable table;
  table.year = year;
  table.total_groups = group_count_;

  struct Acc {
    int64_t domains = 0;
    int64_t d1p = 0;
    int64_t groups = 0;
    int64_t countries = 0;
  };
  std::vector<Acc> acc(rules.size());
  // Rule-major "seen" flags over dense group and country ids.
  std::vector<uint8_t> group_seen(rules.size() * n_groups);
  std::vector<uint8_t> country_seen(rules.size() * n_countries);
  std::vector<int> matched;  // distinct rules of one domain's NS set

  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.HasData(y)) continue;
    ++table.total_domains;
    matched.clear();
    bool any_unmatched = false;
    for (int32_t id : domain.years[y].ns_ids) {
      int& m = ns_rule[static_cast<size_t>(id)];
      if (m == kNotMatched) m = matcher_->MatchNs(dataset.NsName(id));
      if (m < 0) {
        any_unmatched = true;
      } else if (std::find(matched.begin(), matched.end(), m) ==
                 matched.end()) {
        matched.push_back(m);
      }
    }
    if (matched.empty()) continue;
    const size_t country = static_cast<size_t>(domain.country);
    GOVDNS_CHECK(country < n_countries);
    const size_t group = static_cast<size_t>(country_group_[country]);
    // d_1P: the whole NS set belongs to this single provider.
    const bool d1p = matched.size() == 1 && !any_unmatched;
    for (int m : matched) {
      Acc& a = acc[m];
      ++a.domains;
      if (d1p) ++a.d1p;
      uint8_t& group_flag = group_seen[m * n_groups + group];
      a.groups += group_flag == 0;
      group_flag = 1;
      uint8_t& country_flag = country_seen[m * n_countries + country];
      a.countries += country_flag == 0;
      country_flag = 1;
    }
  }

  for (size_t i = 0; i < rules.size(); ++i) {
    ProviderYearRow row;
    row.group_key = rules[i].group_key;
    row.display = rules[i].display;
    row.year = year;
    row.domains = acc[i].domains;
    row.d1p = acc[i].d1p;
    row.groups = acc[i].groups;
    row.countries = acc[i].countries;
    row.major = rules[i].major;
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::vector<ProviderYearRow> ProviderAnalyzer::TopByCountries(
    const ProviderYearTable& table, size_t n) {
  std::vector<ProviderYearRow> rows = table.rows;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProviderYearRow& a, const ProviderYearRow& b) {
                     if (a.countries != b.countries) {
                       return a.countries > b.countries;
                     }
                     return a.domains > b.domains;
                   });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

int64_t ProviderAnalyzer::MaxCountriesAnyProvider(
    const ProviderYearTable& table) {
  int64_t best = 0;
  for (const ProviderYearRow& row : table.rows) {
    best = std::max(best, row.countries);
  }
  return best;
}

}  // namespace govdns::core

// Third-party DNS provider identification and centralization analysis
// (§IV-B, Tables II and III).
//
// Identification mirrors the paper's method: match nameserver hostnames
// against a curated rule list (substring patterns for Amazon's unique
// awsdns naming, suffix matching for everyone else), optionally augmented
// by SOA MNAME/RNAME matching, which catches customers that front a
// provider with vanity NS names in their own zone.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/mining.h"
#include "core/types.h"
#include "dns/rr.h"

namespace govdns::core {

struct ProviderRule {
  std::string group_key;    // display/aggregation key ("cloudflare.com")
  std::string display;
  // Hostname matches when it ends with one of these domain suffixes...
  std::vector<std::string> ns_suffixes;
  // ...or contains one of these substrings (the awsdns / azure-dns style).
  std::vector<std::string> ns_substrings;
  // SOA MNAME/RNAME suffixes that identify the provider.
  std::vector<std::string> soa_suffixes;
  bool major = false;  // a Table II row
};

// The curated rule list for the providers the paper tracks.
std::vector<ProviderRule> DefaultProviderRules();

class ProviderMatcher {
 public:
  explicit ProviderMatcher(std::vector<ProviderRule> rules);

  // Matches one NS hostname (presentation form); -1 if no provider.
  int MatchNs(const std::string& hostname) const;
  // Matches SOA MNAME/RNAME; -1 if no provider.
  int MatchSoa(const dns::SoaRdata& soa) const;

  const std::vector<ProviderRule>& rules() const { return rules_; }

 private:
  // A rule's NS patterns, lowercased once so MatchNs folds only the
  // hostname.
  struct FoldedNsPatterns {
    std::vector<std::string> suffixes;
    std::vector<std::string> substrings;
  };

  std::vector<ProviderRule> rules_;
  std::vector<FoldedNsPatterns> folded_;  // parallel to rules_
};

// ---- Yearly provider usage (Tables II/III) --------------------------------

struct ProviderYearRow {
  std::string group_key;
  std::string display;
  int year = 0;
  int64_t domains = 0;    // domains with >=1 NS at this provider
  int64_t d1p = 0;        // domains whose entire NS set is this provider
  int64_t groups = 0;     // sub-region groups (top-10 split out) covered
  int64_t countries = 0;  // countries covered
  bool major = false;
};

struct ProviderYearTable {
  int year = 0;
  int64_t total_domains = 0;  // domains with data that year
  int64_t total_groups = 0;   // number of grouping units that exist
  std::vector<ProviderYearRow> rows;
};

// Counts per rule are accumulated over dense ids (DESIGN.md §6m): the
// constructor maps each country to a dense group id once, and the years of
// one AnalyzeYears call share one NS id -> rule memo, so no per-domain work
// builds a string or touches a node-based container.
class ProviderAnalyzer {
 public:
  ProviderAnalyzer(const ProviderMatcher* matcher,
                   std::vector<CountryMeta> countries);

  // Usage per provider for one year of the mined dataset.
  ProviderYearTable Analyze(const MinedDataset& dataset, int year) const;
  // One table per requested year, in order. MatchNs runs at most once per
  // interned NS id across all of them, and only for ids those years use.
  std::vector<ProviderYearTable> AnalyzeYears(
      const MinedDataset& dataset, const std::vector<int>& years) const;

  // Top-N rows of a year, ranked by countries covered (Table III).
  static std::vector<ProviderYearRow> TopByCountries(
      const ProviderYearTable& table, size_t n);

  // The paper's §IV-B headline: the max, over providers, of the number of
  // countries with domains using that provider.
  static int64_t MaxCountriesAnyProvider(const ProviderYearTable& table);

 private:
  const ProviderMatcher* matcher_;
  // `ns_rule` memoizes MatchNs per NS id; kNotMatched marks an id not
  // matched yet.
  static constexpr int kNotMatched = -2;
  ProviderYearTable AnalyzeYear(const MinedDataset& dataset, int year,
                                std::vector<int>& ns_rule) const;

  std::vector<CountryMeta> countries_;
  // Dense grouping unit (ProviderGroupKey) of each country, and their count.
  std::vector<int> country_group_;
  int64_t group_count_ = 0;
};

}  // namespace govdns::core

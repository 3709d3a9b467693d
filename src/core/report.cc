#include "core/report.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace govdns::core {

ResilienceReport BuildResilienceReport(const ActiveDataset& dataset) {
  ResilienceReport report;
  report.domains = static_cast<int64_t>(dataset.results.size());
  for (const MeasurementResult& r : dataset.results) {
    if (r.degraded) ++report.degraded_domains;
    report.totals += r.query_stats;
    report.max_queries_one_domain =
        std::max(report.max_queries_one_domain, r.query_stats.queries);
    report.total_logical_ms += r.logical_ms;
    report.max_logical_ms_one_domain =
        std::max(report.max_logical_ms_one_domain, r.logical_ms);
  }
  if (report.domains > 0) {
    report.avg_queries_per_domain =
        double(report.totals.queries) / double(report.domains);
  }
  return report;
}

std::string ResilienceReport::ToJson() const {
  util::JsonWriter w;
  w.BeginObject()
      .Kv("domains", domains)
      .Kv("degraded_domains", degraded_domains)
      .Kv("queries", int64_t(totals.queries))
      .Kv("retries", int64_t(totals.retries))
      .Kv("timeouts", int64_t(totals.timeouts))
      .Kv("unreachable", int64_t(totals.unreachable))
      .Kv("refused", int64_t(totals.refused))
      .Kv("malformed", int64_t(totals.malformed))
      .Kv("wrong_id", int64_t(totals.wrong_id))
      .Kv("truncated", int64_t(totals.truncated))
      .Kv("backoff_ms", int64_t(totals.backoff_ms))
      .Kv("breaker_skips", int64_t(totals.breaker_skips))
      .Kv("negative_cache_hits", int64_t(totals.negative_cache_hits))
      .Kv("budget_denied", int64_t(totals.budget_denied))
      .Kv("deadline_denied", int64_t(totals.deadline_denied))
      .Kv("max_queries_one_domain", int64_t(max_queries_one_domain))
      .Kv("avg_queries_per_domain", avg_queries_per_domain)
      .Kv("total_logical_ms", int64_t(total_logical_ms))
      .Kv("max_logical_ms_one_domain", int64_t(max_logical_ms_one_domain))
      .EndObject();
  return w.TakeString();
}

QuarantineReport BuildQuarantineReport(const ActiveDataset& dataset) {
  QuarantineReport report;
  report.total_domains = static_cast<int64_t>(dataset.results.size());
  // Per-country tallies, indexed like dataset.metas (+1 slot for unknown).
  std::vector<QuarantineReport::CountryRow> rows(dataset.metas.size() + 1);
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const int c = dataset.country[i];
    const size_t slot = (c >= 0 && static_cast<size_t>(c) < dataset.metas.size())
                            ? static_cast<size_t>(c)
                            : dataset.metas.size();
    ++rows[slot].domains;
    const QuarantineReason reason = dataset.results[i].quarantine_reason;
    if (reason == QuarantineReason::kNone) continue;
    ++report.quarantined;
    ++rows[slot].quarantined;
    switch (reason) {
      case QuarantineReason::kNone:
        break;
      case QuarantineReason::kHang:
        ++report.hang;
        break;
      case QuarantineReason::kBlackhole:
        ++report.blackhole;
        break;
      case QuarantineReason::kBudgetExceeded:
        ++report.budget_exceeded;
        break;
      case QuarantineReason::kWatchdogCancelled:
        ++report.watchdog_cancelled;
        break;
      case QuarantineReason::kVantageLost:
        ++report.vantage_lost;
        break;
    }
  }
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    if (rows[slot].quarantined == 0) continue;
    rows[slot].code = slot < dataset.metas.size() ? dataset.metas[slot].code
                                                  : std::string("??");
    report.by_country.push_back(std::move(rows[slot]));
  }
  if (report.total_domains > 0) {
    report.coverage = double(report.total_domains - report.quarantined) /
                      double(report.total_domains);
  }
  return report;
}

StudyReport BuildReport(Study& study,
                        const std::vector<std::string>& diversity_countries) {
  GOVDNS_CHECK(study.has_mined() && study.has_active());
  StudyReport report;
  report.selection = study.selection_stats();
  report.pdns_per_year = CountPerYear(study.mined());
  report.funnel = study.active().ComputeFunnel();

  // Analyzers run over in-memory datasets — no transport, so logical time is
  // structurally zero; each phase still records item counts and (diagnostic)
  // wall time. `items` is the number of measured domains each analyzer
  // consumed unless noted.
  obs::PhaseProfiler prof;
  const int64_t active_n = static_cast<int64_t>(study.active().results.size());
  const int64_t mined_n = static_cast<int64_t>(study.mined().domains.size());
  auto analyze = [&](const char* name, int64_t items, auto&& body) {
    obs::PhaseProfiler::Scope phase(&prof, name);
    phase.set_items(items);
    body();
  };

  analyze("analyze.replication", active_n, [&] {
    report.replication = AnalyzeReplication(study.active());
  });
  analyze("analyze.diversity", active_n, [&] {
    report.diversity = AnalyzeDiversity(study.active(), *study.inputs().asn_db,
                                        diversity_countries);
  });
  analyze("analyze.d1ns_churn", mined_n, [&] {
    report.d1ns_churn = D1nsChurn(study.mined());
  });
  analyze("analyze.private_share", mined_n, [&] {
    report.private_share = PrivateShare(study.mined(), study.seeds());
  });

  static const ProviderMatcher kMatcher(DefaultProviderRules());
  ProviderAnalyzer analyzer(&kMatcher, study.inputs().countries);
  analyze("analyze.providers", mined_n, [&] {
    const MiningConfig& config = study.mined().config;
    std::vector<ProviderYearTable> tables = analyzer.AnalyzeYears(
        study.mined(), {config.first_year, config.last_year});
    report.providers_first_year = std::move(tables[0]);
    report.providers_last_year = std::move(tables[1]);
  });

  analyze("analyze.delegations", active_n, [&] {
    report.delegations = AnalyzeDelegations(study.active());
  });
  analyze("analyze.hijack", active_n, [&] {
    report.hijack = AnalyzeHijackRisk(study.active(), *study.inputs().psl,
                                      *study.inputs().registrar);
  });
  analyze("analyze.consistency", active_n, [&] {
    report.consistency = AnalyzeConsistency(study.active());
  });
  analyze("analyze.resilience", active_n, [&] {
    report.resilience = BuildResilienceReport(study.active());
  });
  analyze("analyze.quarantine", active_n, [&] {
    report.quarantine = BuildQuarantineReport(study.active());
  });

  report.profile = study.profiler().records();
  for (obs::PhaseRecord& r : prof.records()) {
    report.profile.push_back(std::move(r));
  }
  return report;
}

void PrintReport(const StudyReport& report, std::ostream& os) {
  using util::Percent;
  using util::WithCommas;

  os << "== government DNS study report ==\n\n";
  os << "selection: " << report.selection.total << " countries, "
     << report.selection.broken_links << " dead portal links, "
     << report.selection.squatted_links << " squatted, "
     << report.selection.registered_domain_fallbacks
     << " registered-domain fallbacks\n";

  const auto& first = report.pdns_per_year.front();
  const auto& last = report.pdns_per_year.back();
  os << "passive DNS: " << WithCommas(first.domains) << " domains ("
     << first.year << ") -> " << WithCommas(last.domains) << " (" << last.year
     << ")\n";
  os << "active: " << WithCommas(report.funnel.queried) << " queried, "
     << WithCommas(report.funnel.parent_responded) << " parent responses, "
     << WithCommas(report.funnel.parent_has_records) << " with records\n\n";

  os << "-- replication --\n";
  os << ">=2 nameservers: " << Percent(report.replication.pct_at_least_two)
     << " of " << WithCommas(report.replication.domains_considered)
     << " domains\n";
  os << "d_1NS: " << WithCommas(report.replication.d1ns_count)
     << ", unresponsive: " << Percent(report.replication.d1ns_stale_pct)
     << "\n";
  if (!report.diversity.empty()) {
    const DiversityRow& total = report.diversity.front();
    os << "diversity (multi-NS domains): |IP|>1 "
       << Percent(total.pct_multi_ip) << ", |/24|>1 "
       << Percent(total.pct_multi_24) << ", |ASN|>1 "
       << Percent(total.pct_multi_asn) << "\n";
  }

  os << "\n-- providers --\n";
  os << "max countries on one provider: "
     << ProviderAnalyzer::MaxCountriesAnyProvider(report.providers_first_year)
     << " (" << report.providers_first_year.year << ") -> "
     << ProviderAnalyzer::MaxCountriesAnyProvider(report.providers_last_year)
     << " (" << report.providers_last_year.year << ")\n";

  // An empty study (no parent had records) reads 0.0%, like the analyzers'
  // own shares, instead of a platform-dependent "nan%".
  const DelegationSummary& del = report.delegations;
  auto share = [&](int64_t count) {
    return del.domains_considered > 0
               ? double(count) / double(del.domains_considered)
               : 0.0;
  };
  os << "\n-- defective delegations --\n";
  os << "partial: " << Percent(share(del.partially_defective))
     << ", full: " << Percent(share(del.fully_defective)) << "\n";
  os << "registrable d_ns: " << report.hijack.available_ns_domains
     << " affecting " << report.hijack.affected_domains << " domains in "
     << report.hijack.affected_countries << " countries\n";

  os << "\n-- parent/child consistency --\n";
  os << "P = C: " << Percent(report.consistency.pct_equal) << " of "
     << WithCommas(report.consistency.comparable) << " comparable domains\n";
  os << "dangling-but-responsive d_ns: "
     << report.hijack.dangling_available_ns << " ("
     << report.hijack.dangling_domains << " domains, "
     << report.hijack.dangling_countries << " countries)\n";

  const ResilienceReport& res = report.resilience;
  char avg[32];
  std::snprintf(avg, sizeof(avg), "%.1f", res.avg_queries_per_domain);
  os << "\n-- measurement resilience --\n";
  os << WithCommas(int64_t(res.totals.queries)) << " queries over "
     << WithCommas(res.domains) << " domains (avg " << avg << ", max "
     << WithCommas(int64_t(res.max_queries_one_domain)) << "); "
     << WithCommas(int64_t(res.totals.retries)) << " retries, "
     << WithCommas(int64_t(res.totals.timeouts)) << " timeouts, "
     << WithCommas(int64_t(res.totals.refused)) << " refused, "
     << WithCommas(int64_t(res.totals.malformed + res.totals.wrong_id +
                           res.totals.truncated))
     << " malformed/spoofed/truncated\n";
  os << "breaker skips: " << WithCommas(int64_t(res.totals.breaker_skips))
     << ", negative-cache hits: "
     << WithCommas(int64_t(res.totals.negative_cache_hits))
     << ", degraded domains: " << WithCommas(res.degraded_domains) << "\n";
  os << "logical time: " << WithCommas(int64_t(res.total_logical_ms))
     << " ms summed over domains (max "
     << WithCommas(int64_t(res.max_logical_ms_one_domain))
     << " ms for one domain)\n";

  const QuarantineReport& q = report.quarantine;
  if (q.quarantined > 0) {
    // Coverage annotations: only rendered for degraded runs, so a healthy
    // report reads exactly as it did before the degradation model existed.
    os << "\n-- degraded coverage --\n";
    os << "quarantined: " << WithCommas(q.quarantined) << " of "
       << WithCommas(q.total_domains) << " domains (coverage "
       << Percent(q.coverage) << "): " << WithCommas(q.hang) << " hang, "
       << WithCommas(q.blackhole) << " blackhole, "
       << WithCommas(q.budget_exceeded) << " budget-exceeded, "
       << WithCommas(q.watchdog_cancelled) << " watchdog-cancelled";
    if (q.vantage_lost > 0) {
      os << ", " << WithCommas(q.vantage_lost) << " vantage-lost";
    }
    os << "\n";
    for (const QuarantineReport::CountryRow& row : q.by_country) {
      os << "  " << row.code << ": " << WithCommas(row.quarantined) << " of "
         << WithCommas(row.domains) << " quarantined\n";
    }
  }

  if (!report.profile.empty()) {
    // Logical/item columns only: wall_ms is diagnostic and would make this
    // rendering differ between two same-seed runs.
    os << "\n-- phase profile --\n";
    for (const obs::PhaseRecord& r : report.profile) {
      os << r.name << ": " << WithCommas(r.items) << " items";
      if (r.logical_ms > 0) {
        os << ", " << WithCommas(int64_t(r.logical_ms)) << " logical ms";
      }
      os << "\n";
    }
  }
}

}  // namespace govdns::core

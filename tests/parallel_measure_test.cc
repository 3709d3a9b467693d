// The sharded measurement pool must be a pure optimization: for a fixed
// world seed, every observable study output — per-domain results, every
// analysis, the resilience report, the exported JSON — must be
// byte-identical whether one worker or many measured the list, and every
// datagram the network carried must be attributed exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/cut_cache.h"
#include "core/export.h"
#include "core/measure.h"
#include "core/report.h"
#include "core/study.h"
#include "obs/obs.h"
#include "tests/test_world.h"
#include "worldgen/adapter.h"
#include "zone/auth_server.h"

namespace govdns {
namespace {

struct RunOutput {
  std::string resilience_json;
  std::string export_json;
  std::string metrics_stable_json;  // kStable series only
  std::string trace_json;           // sampled query traces + cut publish log
  core::ResolverCounters per_domain;  // Σ per-domain query_stats
  uint64_t exchanges = 0;  // network exchanges during the measurement phase
  uint64_t traced_domains = 0;
  size_t diagnostic_gauges = 0;
  core::CutCacheStats cache;
};

// One full pipeline run on a fresh hostile world (fixed seed), measured
// with `workers` threads.
RunOutput RunStudy(int workers) {
  worldgen::WorldConfig config;
  config.scale = 0.02;
  config.chaos = simnet::ChaosProfile::Hostile();
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  core::Study& study = *bound.study;

  obs::ObservabilityConfig obs_config;
  obs_config.trace.sample_period = 4;
  obs::Observability observability(obs_config);
  study.AttachObservability(&observability);

  study.RunSelection();
  study.RunMining();

  core::MeasurerOptions mopts;
  mopts.workers = workers;
  const uint64_t exchanges_before = world->network().stats().exchanges;
  study.RunActiveMeasurement(mopts);

  RunOutput out;
  out.resilience_json =
      core::BuildResilienceReport(study.active()).ToJson();
  out.export_json =
      core::ExportReportJson(core::BuildReport(study, {"cn", "br"}));
  out.metrics_stable_json = core::ExportMetricsJson(
      observability.metrics().Snapshot(/*include_diagnostic=*/false));
  out.trace_json = core::ExportTraceJson(observability.traces(),
                                         observability.cut_log());
  out.traced_domains = observability.traces().folded_total();
  out.diagnostic_gauges = observability.metrics().Snapshot().gauges.size();
  out.exchanges = world->network().stats().exchanges - exchanges_before;
  out.cache = study.measurement_cache_stats();
  for (const core::MeasurementResult& r : study.active().results) {
    out.per_domain += r.query_stats;
  }
  return out;
}

TEST(ParallelMeasureTest, FourWorkersMatchSerialByteForByte) {
  RunOutput serial = RunStudy(1);
  RunOutput parallel = RunStudy(4);

  // Headline equivalence: the resilience report and the full exported study
  // report are byte-identical — no analysis can tell the runs apart.
  EXPECT_EQ(serial.resilience_json, parallel.resilience_json);
  EXPECT_EQ(serial.export_json, parallel.export_json);

  // The observability layer obeys the same contract: the stable metrics
  // snapshot and the full trace document (sampled per-domain event logs,
  // timestamps included, plus the deduplicated cut publish log) are
  // byte-identical across worker counts.
  EXPECT_EQ(serial.metrics_stable_json, parallel.metrics_stable_json);
  EXPECT_EQ(serial.trace_json, parallel.trace_json);
  EXPECT_GT(serial.traced_domains, 0u);
  EXPECT_GT(serial.diagnostic_gauges, 0u);  // cut-cache gauges were published
  EXPECT_NE(serial.metrics_stable_json.find("\"measure.queries\""),
            std::string::npos);

  // Counter reconciliation against the network's own count: every exchange
  // of the measurement phase is attributed exactly once, either to the
  // domain whose surface query sent it or to the shared cut cache's
  // infrastructure walks — nothing went unattributed, nothing was
  // double-counted. (Infra effort may differ between worker counts, since
  // racing workers can compute one cut twice; per-domain effort may not.)
  EXPECT_EQ(serial.per_domain.queries + serial.cache.infra.queries,
            serial.exchanges);
  EXPECT_EQ(parallel.per_domain.queries + parallel.cache.infra.queries,
            parallel.exchanges);
  EXPECT_EQ(serial.per_domain, parallel.per_domain);

  // The run must have actually exercised the hostile weather and the shared
  // cache, or the equivalence above would be vacuous.
  EXPECT_GT(serial.per_domain.queries, 0u);
  EXPECT_GT(serial.per_domain.retries, 0u);
  EXPECT_GT(serial.cache.infra.queries, 0u);
  EXPECT_GT(serial.cache.hits, 0u);
  EXPECT_GT(serial.cache.publishes, 0u);
  EXPECT_GT(parallel.cache.hits, 0u);
}

TEST(ParallelMeasureTest, RepeatedParallelRunsAreDeterministic) {
  // Same seed, same worker count, two runs: thread scheduling differs, the
  // outputs must not.
  RunOutput a = RunStudy(4);
  RunOutput b = RunStudy(4);
  EXPECT_EQ(a.resilience_json, b.resilience_json);
  EXPECT_EQ(a.export_json, b.export_json);
  EXPECT_EQ(a.per_domain, b.per_domain);
  EXPECT_EQ(a.metrics_stable_json, b.metrics_stable_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ParallelMeasureTest, DefaultWorkerCountRuns) {
  // workers = 0 (hardware concurrency) must behave like any explicit count.
  RunOutput defaulted = RunStudy(0);
  RunOutput serial = RunStudy(1);
  EXPECT_EQ(defaulted.resilience_json, serial.resilience_json);
  EXPECT_EQ(defaulted.export_json, serial.export_json);
}

// ---- shared negative cut cache --------------------------------------------

dns::Name N(const char* s) { return dns::Name::FromString(s); }

TEST(SharedNegativeCacheTest, ServesDomainsOnForeignClocks) {
  // Every measured domain runs on its own chaos-context clock, started at a
  // name-derived offset anywhere in a ~17-minute horizon. A shared negative
  // is stamped on the clock of the probe that found the zone dead, so a
  // later domain's clock says nothing about its age: the second domain under
  // the dead zone must be served from the entry however far apart the two
  // domains' clocks start, not re-probe the zone.
  testing::TinyInternet world;
  const core::ResolverOptions defaults;
  core::SharedCutCache probe_cache;
  core::ResolverOptions probe_options;
  probe_options.shared_cache = &probe_cache;
  core::IterativeResolver probe(&world.net, world.roots(), probe_options);
  auto clock_start = [&](const dns::Name& domain) {
    probe.BeginDomainScope(domain);
    const uint64_t start = probe.now_ms();
    probe.EndDomainScope();
    return start;
  };
  // lame.gov.xx: glue to a host nobody runs. Pick the two domains under it
  // whose clocks start furthest apart.
  dns::Name early, late;
  uint64_t early_ms = UINT64_MAX, late_ms = 0;
  for (int i = 0; i < 32; ++i) {
    const dns::Name d = N(("d" + std::to_string(i) + ".lame.gov.xx").c_str());
    const uint64_t start = clock_start(d);
    if (start < early_ms) early_ms = start, early = d;
    if (start > late_ms) late_ms = start, late = d;
  }
  ASSERT_GT(late_ms - early_ms, defaults.negative_cache_ttl_ms);

  for (const auto& [first, second] : {std::pair{early, late},
                                      std::pair{late, early}}) {
    core::MeasurerOptions mopts;
    mopts.workers = 1;
    core::ActiveMeasurer measurer(&world.net, world.roots(), defaults, mopts);
    const auto r1 = measurer.MeasureAll({first});
    const core::CutCacheStats after_first = measurer.shared_cache()->stats();
    const auto r2 = measurer.MeasureAll({second});
    const core::CutCacheStats after_second = measurer.shared_cache()->stats();

    EXPECT_EQ(after_first.negative_publishes, 1u) << first.ToString();
    EXPECT_EQ(after_second.negative_publishes, 1u) << second.ToString();
    EXPECT_EQ(after_second.negative_hits, after_first.negative_hits + 1);
    EXPECT_GT(after_first.infra.queries, 0u);
    EXPECT_EQ(after_second.infra.queries, after_first.infra.queries);
    // Uniform accounting: the domain that probed the dead zone and the one
    // served from the entry each record exactly one negative-cache hit.
    EXPECT_EQ(r1[0].query_stats.negative_cache_hits, 1u);
    EXPECT_EQ(r2[0].query_stats.negative_cache_hits, 1u);
    EXPECT_FALSE(r2[0].parent_located);
    EXPECT_EQ(r2[0].query_stats, r1[0].query_stats);
  }
}

// A gov.xx whose delegations form a glueless cycle feeding a short glueless
// chain (TinyInternet's other children are dropped):
//
//   a.gov.xx    NS ns.a.gov.xx (in-zone, no glue: a loop onto itself)
//               NS ns.c1.gov.xx (no glue)
//   b.gov.xx    NS ns.c1.gov.xx (no glue)
//   c1.gov.xx   NS host.c2.gov.xx (its A lives in c2.gov.xx: no glue)
//   c2.gov.xx   NS ns.c2.gov.xx + glue          @ 10.0.20.1
//   loop.gov.xx NS ns.loop.gov.xx (no glue: unresolvable at any depth)
//
// ns.c1.gov.xx (@ 10.0.20.2) serves a and b; 10.0.20.1 serves c1 and c2.
// Resolving a's servers recurses through ns.a until the depth bound runs
// out, and near the bottom c1 fails *only* for lack of depth — with the
// full budget it resolves through c2.
class CircularGluelessWorld {
 public:
  CircularGluelessWorld() {
    using dns::MakeA;
    using dns::MakeNs;
    using dns::MakeSoa;
    auto gov = std::make_shared<zone::Zone>(N("gov.xx"));
    gov->Add(MakeNs(N("gov.xx"), N("ns1.nic.gov.xx")));
    gov->Add(MakeSoa(N("gov.xx"), N("ns1.nic.gov.xx"), N("hm.gov.xx"), 1));
    gov->Add(MakeA(N("ns1.nic.gov.xx"), testing::TinyInternet::Ip(10, 0, 2, 1)));
    gov->Add(MakeNs(N("a.gov.xx"), N("ns.a.gov.xx")));
    gov->Add(MakeNs(N("a.gov.xx"), N("ns.c1.gov.xx")));
    gov->Add(MakeNs(N("b.gov.xx"), N("ns.c1.gov.xx")));
    gov->Add(MakeNs(N("c1.gov.xx"), N("host.c2.gov.xx")));
    gov->Add(MakeNs(N("c2.gov.xx"), N("ns.c2.gov.xx")));
    gov->Add(MakeA(N("ns.c2.gov.xx"), kC2));
    gov->Add(MakeNs(N("loop.gov.xx"), N("ns.loop.gov.xx")));
    world.gov_server->RemoveZone(N("gov.xx"));
    world.gov_server->AddZone(gov);

    auto a = Apex("a.gov.xx", {"ns.a.gov.xx", "ns.c1.gov.xx"});
    a->Add(MakeA(N("ns.a.gov.xx"), kC1));
    auto b = Apex("b.gov.xx", {"ns.c1.gov.xx"});
    auto c1 = Apex("c1.gov.xx", {"host.c2.gov.xx"});
    c1->Add(MakeA(N("ns.c1.gov.xx"), kC1));
    auto c2 = Apex("c2.gov.xx", {"ns.c2.gov.xx"});
    c2->Add(MakeA(N("ns.c2.gov.xx"), kC2));
    c2->Add(MakeA(N("host.c2.gov.xx"), kC2));
    Serve(kC1, {a, b});
    Serve(kC2, {c1, c2});
  }

  testing::TinyInternet world;

 private:
  static constexpr geo::IPv4 kC1 = geo::IPv4(10, 0, 20, 2);
  static constexpr geo::IPv4 kC2 = geo::IPv4(10, 0, 20, 1);

  std::shared_ptr<zone::Zone> Apex(const char* origin,
                                   std::vector<const char*> ns_hosts) {
    auto z = std::make_shared<zone::Zone>(N(origin));
    for (const char* ns : ns_hosts) z->Add(dns::MakeNs(N(origin), N(ns)));
    z->Add(dns::MakeSoa(N(origin), N(ns_hosts[0]), N("hm.gov.xx"), 1));
    zones_.push_back(z);
    return z;
  }

  void Serve(geo::IPv4 ip, std::vector<std::shared_ptr<zone::Zone>> zones) {
    servers_.push_back(std::make_unique<zone::AuthServer>(ip.ToString()));
    zone::AuthServer* server = servers_.back().get();
    for (const auto& z : zones) server->AddZone(z);
    world.net.AttachHandler(ip, [server](const std::vector<uint8_t>& wire) {
      auto query = dns::Message::Decode(wire);
      return query.ok() ? server->Answer(*query).Encode()
                        : std::vector<uint8_t>{};
    });
  }

  std::vector<std::shared_ptr<zone::Zone>> zones_;
  std::vector<std::unique_ptr<zone::AuthServer>> servers_;
};

}  // namespace
}  // namespace govdns

namespace govdns::core {
// Readable gtest failure output for result comparisons.
void PrintTo(const MeasurementResult& r, std::ostream* os) {
  *os << r.domain.ToString() << " parent_located=" << r.parent_located
      << " queries=" << r.query_stats.queries
      << " negative_cache_hits=" << r.query_stats.negative_cache_hits
      << " logical_ms=" << r.logical_ms << " hosts={";
  for (const NsHostResult& h : r.hosts) {
    *os << " " << h.host.ToString() << ":" << static_cast<int>(h.status);
  }
  *os << " }";
}
}  // namespace govdns::core

namespace govdns {
namespace {

// Per-domain results of one pool run over `domains`, in name order.
std::vector<core::MeasurementResult> MeasureCircular(
    std::vector<dns::Name> domains, int workers) {
  CircularGluelessWorld w;
  core::MeasurerOptions mopts;
  mopts.workers = workers;
  core::ActiveMeasurer measurer(&w.world.net, w.world.roots(),
                                core::ResolverOptions(), mopts);
  auto results = measurer.MeasureAll(domains);
  std::sort(results.begin(), results.end(),
            [](const auto& x, const auto& y) { return x.domain < y.domain; });
  return results;
}

TEST(SharedNegativeCacheTest, DepthBoundFailuresNeverBecomeSharedVerdicts) {
  // A negative published by a walk that merely ran out of depth would be
  // served, for the rest of the run, to walks that have the depth to
  // resolve the zone: measuring a.gov.xx first would then leave b.gov.xx's
  // nameserver unresolvable, measuring b first would not. The guard keeps
  // such verdicts out of the shared cache, so the results depend on neither
  // the measurement order nor the worker count.
  const std::vector<dns::Name> forward = {N("a.gov.xx"), N("b.gov.xx"),
                                          N("c1.gov.xx"), N("loop.gov.xx")};
  const std::vector<dns::Name> reverse(forward.rbegin(), forward.rend());
  const auto reference = MeasureCircular(forward, 1);
  ASSERT_EQ(reference.size(), 4u);

  // The full-budget verdicts: a and b resolve through c1 -> c2; the pure
  // self-loop does not.
  const core::MeasurementResult& a = reference[0];
  const core::MeasurementResult& b = reference[1];
  ASSERT_EQ(b.domain, N("b.gov.xx"));
  ASSERT_EQ(b.hosts.size(), 1u);
  EXPECT_EQ(b.hosts[0].status, core::NsHostStatus::kAuthoritative);
  EXPECT_TRUE(a.child_any_authoritative);
  const core::MeasurementResult& loop = reference[3];
  ASSERT_EQ(loop.domain, N("loop.gov.xx"));
  ASSERT_EQ(loop.hosts.size(), 1u);
  EXPECT_EQ(loop.hosts[0].status, core::NsHostStatus::kUnresolvable);

  EXPECT_EQ(MeasureCircular(reverse, 1), reference);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(MeasureCircular(forward, 4), reference) << "run " << run;
    EXPECT_EQ(MeasureCircular(reverse, 4), reference) << "run " << run;
  }
}

}  // namespace
}  // namespace govdns

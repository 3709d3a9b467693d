// World-generation cost, step by step (ROADMAP direction 2).
//
// Builds the world kBuilds times at each scale in GOVDNS_WORLDGEN_SCALES
// (default "0.3,1.0"), in interleaved rounds so host drift hits every scale
// alike, and reports per scale:
//   * the median BuildWorld wall time and the median of each build step
//     and lifecycle sub-step from World::build_profile();
//   * the median sum of the twelve top-level steps, and the median share
//     of the build wall they account for ("attributed"; the rest is World
//     construction and builder teardown);
//   * a world digest per build, and whether every build agreed.
// Across scales it reports the largest/smallest-scale cost ratio for the
// whole build and for the lifecycle step; linear generation keeps both near
// the domain-count ratio. Writes BENCH_worldgen.json (GOVDNS_WORLDGEN_JSON
// overrides the path).
//
//   ./build/bench/bench_worldgen --benchmark_filter='^$'
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "pdns/snapshot_io.h"
#include "util/json.h"
#include "zone/zone.h"

namespace {

using govdns::worldgen::World;

constexpr int kBuilds = 3;

// FNV-1a over domains and epochs, the frozen PDNS image, every zone record
// and every nameserver endpoint with its behaviour.
std::string WorldDigest(World& w) {
  uint64_t h = 14695981039346656037ULL;
  auto bytes = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  };
  auto u64 = [&](uint64_t v) { bytes(&v, sizeof(v)); };
  auto str = [&](std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  };
  for (const auto& d : w.domains()) {
    str(d.name.CanonicalKey());
    for (int64_t v : {int64_t(d.country), int64_t(d.birth), int64_t(d.death),
                      int64_t(d.fate), int64_t(d.consistency)}) {
      u64(static_cast<uint64_t>(v));
    }
    for (const auto& e : d.epochs) {
      for (int64_t v : {int64_t(e.days.first), int64_t(e.days.last),
                        int64_t(e.style), int64_t(e.provider),
                        int64_t(e.national_company), int64_t(e.vanity)}) {
        u64(static_cast<uint64_t>(v));
      }
      for (const auto& ns : e.ns_names) str(ns.CanonicalKey());
    }
  }
  const govdns::pdns::PdnsSnapshot snap = w.pdns_db().Freeze();
  for (uint32_t id = govdns::pdns::kSecPdnsMeta;
       id <= govdns::pdns::kSecPdnsRdata; ++id) {
    str(snap.section(id));
  }
  for (const auto& z : w.zones()) {
    z->ForEachRecord([&](const govdns::dns::ResourceRecord& rr) {
      str(rr.ToString());
    });
  }
  for (const auto& host : w.ns_hosts()) {
    str(host.hostname.CanonicalKey());
    for (govdns::geo::IPv4 ip : host.ips) {
      const auto b = w.network().GetBehavior(ip);
      u64(ip.bits());
      for (double v : {double(b.silent), b.loss_rate, double(b.rtt_ms),
                       double(b.flap_period_ms), double(b.rate_limit_per_sec),
                       b.corrupt_rate, double(b.hang), double(b.blackhole)}) {
        bytes(&v, sizeof(v));
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Build {
  double build_ms = 0.0;
  double steps_sum_ms = 0.0;
  std::map<std::string, double> step_ms;
  std::vector<std::string> order;  // record names, in record order
  size_t domains = 0;
  std::string digest;
};

Build BuildOnce(double scale) {
  govdns::worldgen::WorldConfig config;
  config.scale = scale;
  const auto t0 = std::chrono::steady_clock::now();
  auto world = govdns::worldgen::BuildWorld(config);
  Build b;
  b.build_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  for (const auto& rec : world->build_profile()) {
    b.step_ms[rec.name] += rec.wall_ms;
    b.order.push_back(rec.name);
    // Sub-steps ("worldgen.lifecycle.<sub>") nest inside their step.
    if (rec.name.rfind("worldgen.lifecycle.", 0) != 0) {
      b.steps_sum_ms += rec.wall_ms;
    }
  }
  b.domains = world->domains().size();
  b.digest = WorldDigest(*world);
  return b;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> ScalesFromEnv() {
  std::vector<double> scales;
  const char* env = std::getenv("GOVDNS_WORLDGEN_SCALES");
  std::stringstream in(env != nullptr ? env : "0.3,1.0");
  std::string item;
  while (std::getline(in, item, ',')) {
    const double s = std::atof(item.c_str());
    if (s > 0.0) scales.push_back(s);
  }
  if (scales.empty()) scales = {0.3, 1.0};
  std::sort(scales.begin(), scales.end());
  return scales;
}

void PrintArtifact() {
  const std::vector<double> scales = ScalesFromEnv();
  std::vector<std::vector<Build>> runs(scales.size());
  for (int round = 0; round < kBuilds; ++round) {
    for (size_t i = 0; i < scales.size(); ++i) {
      // Rotate the starting scale each round.
      const size_t k = (i + static_cast<size_t>(round)) % scales.size();
      std::fprintf(stderr, "[bench] worldgen round %d scale %.3f ...\n",
                   round + 1, scales[k]);
      runs[k].push_back(BuildOnce(scales[k]));
    }
  }

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Kv("builds", kBuilds);
  bool all_identical = true;
  std::vector<double> build_med(scales.size()), lifecycle_med(scales.size());
  w.Key("scales").BeginArray();
  for (size_t i = 0; i < scales.size(); ++i) {
    const std::vector<Build>& rs = runs[i];
    bool identical = true;
    for (const Build& b : rs) identical &= b.digest == rs.front().digest;
    all_identical &= identical;
    auto med = [&rs](auto field) {
      std::vector<double> v;
      for (const Build& b : rs) v.push_back(field(b));
      return Median(std::move(v));
    };
    build_med[i] = med([](const Build& b) { return b.build_ms; });
    lifecycle_med[i] =
        med([](const Build& b) { return b.step_ms.at("worldgen.lifecycle"); });
    const double steps_sum = med([](const Build& b) { return b.steps_sum_ms; });
    const double attributed =
        med([](const Build& b) { return b.steps_sum_ms / b.build_ms; });
    w.BeginObject();
    w.Kv("scale", scales[i]);
    w.Kv("domains", static_cast<int64_t>(rs.front().domains));
    w.Kv("digest", rs.front().digest);
    w.Kv("identical", identical);
    w.Kv("build_ms", build_med[i]);
    w.Kv("steps_sum_ms", steps_sum);
    w.Kv("attributed", attributed);
    w.Key("steps").BeginArray();
    std::printf("\nworldgen at scale %.3f (%zu domains, median of %d)\n",
                scales[i], rs.front().domains, kBuilds);
    for (const std::string& name : rs.front().order) {
      const double ms =
          med([&name](const Build& b) { return b.step_ms.at(name); });
      w.BeginObject().Kv("name", name).Kv("median_ms", ms).EndObject();
      std::printf("  %-38s %10.1f ms\n", name.c_str(), ms);
    }
    w.EndArray();
    w.EndObject();
    std::printf("  %-38s %10.1f ms\n  %-38s %10.1f ms\n", "steps (sum)",
                steps_sum, "BuildWorld", build_med[i]);
  }
  w.EndArray();
  const double build_ratio =
      build_med.front() > 0.0 ? build_med.back() / build_med.front() : 0.0;
  const double lifecycle_ratio = lifecycle_med.front() > 0.0
                                     ? lifecycle_med.back() / lifecycle_med.front()
                                     : 0.0;
  const double domain_ratio =
      double(runs.back().front().domains) / double(runs.front().front().domains);
  w.Key("ratio").BeginObject()
      .Kv("small_scale", scales.front())
      .Kv("large_scale", scales.back())
      .Kv("domains", domain_ratio)
      .Kv("build", build_ratio)
      .Kv("lifecycle", lifecycle_ratio)
      .EndObject();
  w.Kv("identical", all_identical);
  w.EndObject();
  std::printf("\n%.2f/%.2f cost ratio: build %.2fx, lifecycle %.2fx "
              "(domains %.2fx); builds identical: %s\n",
              scales.back(), scales.front(), build_ratio, lifecycle_ratio,
              domain_ratio, all_identical ? "yes" : "NO");
  govdns::bench::WriteArtifactJson("GOVDNS_WORLDGEN_JSON",
                                   "BENCH_worldgen.json", w.TakeString());
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)

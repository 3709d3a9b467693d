#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>

#include "pdns/snapshot_io.h"
#include "simnet/network.h"
#include "worldgen/countries.h"
#include "worldgen/providers.h"
#include "worldgen/world.h"
#include "zone/zone.h"

namespace govdns::worldgen {
namespace {

// ---------------------------------------------------------------------------
// Static tables
// ---------------------------------------------------------------------------

TEST(CountryTableTest, Has193UniqueMembers) {
  auto countries = Countries();
  EXPECT_EQ(countries.size(), 193u);
  std::set<std::string> codes;
  for (const auto& c : countries) codes.insert(c.code);
  EXPECT_EQ(codes.size(), 193u);
}

TEST(CountryTableTest, SubRegionsAreTheTwentyTwoM49Ones) {
  std::set<std::string> valid(SubRegionNames().begin(),
                              SubRegionNames().end());
  EXPECT_EQ(valid.size(), 22u);
  std::set<std::string> used;
  for (const auto& c : Countries()) {
    ASSERT_TRUE(valid.contains(c.subregion)) << c.code;
    used.insert(c.subregion);
  }
  EXPECT_EQ(used.size(), 22u);  // every sub-region has members
}

TEST(CountryTableTest, Top10AreRealCountriesWithExplicitTargets) {
  auto top10 = Top10CountryCodes();
  EXPECT_EQ(top10.size(), 10u);
  for (const char* code : top10) {
    int idx = CountryIndexByCode(code);
    ASSERT_GE(idx, 0) << code;
    EXPECT_TRUE(Countries()[idx].explicit_target) << code;
  }
  // 22 sub-regions + 10 split-out countries = the paper's 32 groups.
  EXPECT_EQ(SubRegionNames().size() + top10.size(), 32u);
}

TEST(CountryTableTest, IndexByCode) {
  EXPECT_GE(CountryIndexByCode("cn"), 0);
  EXPECT_EQ(CountryIndexByCode("zz"), -1);
  EXPECT_EQ(std::string(Countries()[CountryIndexByCode("br")].name), "Brazil");
}

TEST(ProviderTableTest, GroupKeysUniqueAndIndexed) {
  std::set<std::string> keys;
  for (const auto& p : Providers()) keys.insert(p.group_key);
  EXPECT_EQ(keys.size(), Providers().size());
  EXPECT_GE(ProviderIndexByGroupKey("cloudflare.com"), 0);
  EXPECT_EQ(ProviderIndexByGroupKey("nope"), -1);
}

TEST(ProviderTableTest, HostnameGenerationFollowsStyles) {
  const auto& aws = Providers()[ProviderIndexByGroupKey("AWS DNS")];
  auto host = ProviderHostname(aws, 0);
  EXPECT_NE(host.ToString().find("awsdns-"), std::string::npos);
  const auto& azure = Providers()[ProviderIndexByGroupKey("Azure DNS")];
  EXPECT_NE(ProviderHostname(azure, 2).ToString().find("azure-dns."),
            std::string::npos);
  const auto& cf = Providers()[ProviderIndexByGroupKey("cloudflare.com")];
  EXPECT_TRUE(ProviderHostname(cf, 0).IsSubdomainOf(
      dns::Name::FromString("ns.cloudflare.com")));
}

TEST(ProviderTableTest, CustomerNsPicksAreValid) {
  util::Rng rng(5);
  for (const auto& spec : Providers()) {
    for (int trial = 0; trial < 10; ++trial) {
      auto ns = PickCustomerNs(spec, rng);
      EXPECT_EQ(ns.size(), static_cast<size_t>(spec.ns_per_customer))
          << spec.display;
      std::set<dns::Name> distinct(ns.begin(), ns.end());
      EXPECT_EQ(distinct.size(), ns.size()) << spec.display;
    }
  }
}

TEST(ProviderTableTest, CountryDemandWeightsMatchTheAdoptionGate) {
  // The per-chooser rule of lifecycle step (f), spelled out: a focused
  // provider takes only its focus country; a global one takes a country
  // while HashString(group_key + "|" + code), scaled to [0, 1), is below
  // the year's coverage; the weight is 1.0 for a top-10 country and
  // small_country_affinity otherwise.
  auto countries = Countries();
  auto top10 = Top10CountryCodes();
  int eligible = 0, gated = 0;
  for (const ProviderSpec& spec : Providers()) {
    for (int year = 2011; year <= 2020; ++year) {
      const std::vector<double> table = CountryDemandWeights(spec, year);
      ASSERT_EQ(table.size(), countries.size());
      const double frac = std::clamp((year - 2011) / 9.0, 0.0, 1.0);
      const double coverage =
          spec.coverage_2011 + (spec.coverage_2020 - spec.coverage_2011) * frac;
      for (size_t c = 0; c < countries.size(); ++c) {
        bool buys = true;
        if (!spec.country_focus.empty() &&
            spec.country_focus != countries[c].code) {
          buys = false;
        }
        if (buys && spec.country_focus.empty()) {
          double u = double(util::HashString(std::string(spec.group_key) +
                                             "|" + countries[c].code) >>
                            11) *
                     0x1.0p-53;
          if (u >= coverage) buys = false;
        }
        bool is_top10 = false;
        for (const char* code : top10) {
          if (countries[c].code == std::string_view(code)) is_top10 = true;
        }
        const double expected =
            !buys ? 0.0 : (is_top10 ? 1.0 : spec.small_country_affinity);
        ASSERT_EQ(table[c], expected)
            << spec.group_key << " " << countries[c].code << " " << year;
        eligible += buys;
        gated += !buys && spec.country_focus.empty();
      }
    }
    // A buying country never carries weight 0: that value means "out".
    EXPECT_GT(spec.small_country_affinity, 0.0) << spec.group_key;
  }
  EXPECT_GT(eligible, 0);
  EXPECT_GT(gated, 0);  // the coverage coin actually closes some markets
}

// ---------------------------------------------------------------------------
// Generated-world invariants (small world, shared across tests)
// ---------------------------------------------------------------------------

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.scale = 0.02;
    world_ = BuildWorld(config).release();
  }
  static void TearDownTestSuite() { delete world_; }
  static World* world_;
};

World* WorldTest::world_ = nullptr;

TEST_F(WorldTest, EveryCountryHasSuffixAndKbEntry) {
  ASSERT_EQ(world_->country_runtime().size(), 193u);
  ASSERT_EQ(world_->knowledge_base().size(), 193u);
  for (const auto& rt : world_->country_runtime()) {
    EXPECT_FALSE(rt.suffix.IsRoot());
    EXPECT_FALSE(rt.central_ns.empty());
  }
}

TEST_F(WorldTest, DomainsBelongToTheirCountrySuffix) {
  for (const auto& d : world_->domains()) {
    ASSERT_GE(d.country, 0);
    EXPECT_TRUE(d.name.IsSubdomainOf(
        world_->country_runtime()[d.country].suffix))
        << d.name.ToString();
  }
}

TEST_F(WorldTest, EpochsAreContiguousAndOrdered) {
  for (const auto& d : world_->domains()) {
    ASSERT_FALSE(d.epochs.empty()) << d.name.ToString();
    for (size_t i = 0; i < d.epochs.size(); ++i) {
      EXPECT_LE(d.epochs[i].days.first, d.epochs[i].days.last);
      if (i > 0) {
        EXPECT_EQ(d.epochs[i].days.first, d.epochs[i - 1].days.last + 1)
            << d.name.ToString();
      }
      EXPECT_FALSE(d.epochs[i].ns_names.empty());
    }
    EXPECT_EQ(d.epochs.front().days.first, d.birth);
  }
}

TEST_F(WorldTest, QueryListDomainsWereVisibleInWindow) {
  const util::CivilDay window_start = util::DayFromYmd(2020, 1, 1);
  for (const auto& d : world_->domains()) {
    if (!d.in_query_list) continue;
    EXPECT_FALSE(d.disposable_excluded) << d.name.ToString();
    bool visible = d.death == kAliveForever || d.death >= window_start ||
                   d.fate == DomainFate::kStaleDelegation;
    EXPECT_TRUE(visible) << d.name.ToString();
  }
}

TEST_F(WorldTest, PdnsCoversEveryNonDisposableDomain) {
  int checked = 0;
  for (const auto& d : world_->domains()) {
    if (checked >= 500) break;  // spot-check; full sweep is slow
    ++checked;
    auto entries = world_->pdns_db().Lookup(d.name);
    EXPECT_FALSE(entries.empty()) << d.name.ToString();
  }
}

TEST_F(WorldTest, ActiveDomainsHaveReachableInfrastructure) {
  // For a sample of kActive domains, at least one final-epoch NS hostname
  // resolves within the world's host map and answers authoritatively.
  int checked = 0;
  for (const auto& d : world_->domains()) {
    if (!d.in_query_list || d.fate != DomainFate::kActive) continue;
    if (d.parked_ns_ref || d.relative_name_truncation) continue;
    if (++checked > 200) break;
    // The zone must exist: query via the network is covered by integration
    // tests; here we just check the endpoint bookkeeping is consistent.
    EXPECT_FALSE(d.epochs.back().ns_names.empty());
  }
  EXPECT_GT(checked, 50);
}

TEST_F(WorldTest, RegistrarStateMatchesGroundTruth) {
  for (const auto& rt : world_->country_runtime()) {
    for (const auto& comp : rt.companies) {
      bool alive = comp.last_year == 0;
      if (alive) {
        EXPECT_TRUE(world_->registrar_client().IsRegistered(comp.domain))
            << comp.domain.ToString();
      }
      if (comp.dead_and_available || comp.dead_and_parked) {
        EXPECT_TRUE(world_->registrar_client().IsAvailable(comp.domain))
            << comp.domain.ToString();
      }
      if (comp.dead_and_parked) {
        auto price = world_->registrar_client().PriceUsd(comp.domain);
        ASSERT_TRUE(price.has_value());
        EXPECT_GE(*price, 300.0);  // aftermarket pricing (§IV-D)
      }
    }
  }
}

TEST_F(WorldTest, ChinaShrinksInto2020) {
  int cn = CountryIndexByCode("cn");
  int peak_2019 = 0, in_2020 = 0;
  for (const auto& d : world_->domains()) {
    if (d.country != cn) continue;
    if (d.Alive(util::DayFromYmd(2019, 12, 1))) ++peak_2019;
    if (d.Alive(util::DayFromYmd(2020, 12, 1))) ++in_2020;
  }
  EXPECT_GT(peak_2019, in_2020);  // the consolidation dip
}

TEST(WorldDeterminismTest, SameSeedSameWorld) {
  WorldConfig config;
  config.scale = 0.005;
  auto a = BuildWorld(config);
  auto b = BuildWorld(config);
  ASSERT_EQ(a->domains().size(), b->domains().size());
  EXPECT_EQ(a->pdns_db().entry_count(), b->pdns_db().entry_count());
  EXPECT_EQ(a->network().endpoint_count(), b->network().endpoint_count());
  for (size_t i = 0; i < a->domains().size(); i += 97) {
    EXPECT_EQ(a->domains()[i].name, b->domains()[i].name);
    EXPECT_EQ(a->domains()[i].birth, b->domains()[i].birth);
    EXPECT_EQ(a->domains()[i].fate, b->domains()[i].fate);
  }
}

TEST(WorldDeterminismTest, DifferentSeedsDiffer) {
  WorldConfig a_config;
  a_config.scale = 0.005;
  WorldConfig b_config = a_config;
  b_config.seed = a_config.seed + 1;
  auto a = BuildWorld(a_config);
  auto b = BuildWorld(b_config);
  // Same calibration targets -> similar sizes, different details.
  bool any_difference = a->domains().size() != b->domains().size();
  for (size_t i = 0; !any_difference && i < a->domains().size() &&
                     i < b->domains().size();
       ++i) {
    any_difference = !(a->domains()[i].name == b->domains()[i].name);
  }
  EXPECT_TRUE(any_difference);
}


// ---------------------------------------------------------------------------
// Golden digest: the world's bytes, pinned
// ---------------------------------------------------------------------------

// FNV-1a over a canonical rendering of everything BuildWorld produces. A
// worldgen speedup may move no RNG draw (DESIGN.md §7), so these digests
// hold across every such change; a world-model change re-pins them.
class WorldDigest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Name(const dns::Name& n) { Str(n.CanonicalKey()); }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

std::string DomainsDigest(const World& w) {
  WorldDigest d;
  d.U64(w.domains().size());
  for (const DomainTruth& t : w.domains()) {
    d.Name(t.name);
    d.I64(t.country);
    d.I64(t.level);
    d.I64(t.birth);
    d.I64(t.death);
    d.U64((t.in_query_list ? 1u : 0u) | (t.disposable_excluded ? 2u : 0u) |
          (t.partial_lame ? 4u : 0u) | (t.typo_parent_ns ? 8u : 0u) |
          (t.dangling_available_ns ? 16u : 0u) | (t.parked_ns_ref ? 32u : 0u) |
          (t.relative_name_truncation ? 64u : 0u));
    d.U64(static_cast<uint64_t>(t.fate));
    d.U64(static_cast<uint64_t>(t.consistency));
    d.U64(t.epochs.size());
    for (const NsEpoch& e : t.epochs) {
      d.I64(e.days.first);
      d.I64(e.days.last);
      d.U64(static_cast<uint64_t>(e.style));
      d.I64(e.provider);
      d.I64(e.national_company);
      d.U64(e.vanity ? 1 : 0);
      d.U64(e.ns_names.size());
      for (const dns::Name& ns : e.ns_names) d.Name(ns);
    }
  }
  for (const CountryRuntime& rt : w.country_runtime()) {
    d.U64(rt.companies.size());
    for (const NationalCompany& c : rt.companies) {
      d.Name(c.domain);
      d.I64(c.first_year);
      d.I64(c.last_year);
      d.U64((c.dead_and_available ? 1u : 0u) | (c.dead_and_parked ? 2u : 0u));
      for (const dns::Name& ns : c.ns_names) d.Name(ns);
    }
  }
  return d.Hex();
}

std::string PdnsDigest(const World& w) {
  WorldDigest d;
  const pdns::PdnsSnapshot snap = w.pdns_db().Freeze();
  for (uint32_t id = pdns::kSecPdnsMeta; id <= pdns::kSecPdnsRdata; ++id) {
    d.Str(snap.section(id));
  }
  return d.Hex();
}

std::string ZonesDigest(const World& w) {
  WorldDigest d;
  d.U64(w.zones().size());
  for (const auto& z : w.zones()) {
    d.Name(z->origin());
    d.U64(z->record_count());
    z->ForEachRecord(
        [&](const dns::ResourceRecord& rr) { d.Str(rr.ToString()); });
  }
  return d.Hex();
}

std::string EndpointsDigest(World& w) {
  WorldDigest d;
  d.U64(w.ns_hosts().size());
  for (const NsHost& host : w.ns_hosts()) {
    d.Name(host.hostname);
    d.U64(host.ips.size());
    for (geo::IPv4 ip : host.ips) {
      d.U64(ip.bits());
      const simnet::EndpointBehavior b = w.network().GetBehavior(ip);
      d.U64((b.silent ? 1u : 0u) | (b.hang ? 2u : 0u) |
            (b.blackhole ? 4u : 0u));
      for (double rate : {b.loss_rate, b.corrupt_rate, b.truncate_rate,
                          b.wrong_id_rate, b.burst_start_rate}) {
        d.F64(rate);
      }
      for (uint32_t v : {b.rtt_ms, b.rtt_jitter_ms, b.burst_length,
                         b.flap_period_ms, b.rate_limit_per_sec,
                         b.slow_drip_delay_ms}) {
        d.U64(v);
      }
    }
  }
  d.U64(w.network().endpoint_count());
  return d.Hex();
}

// The registrar keeps no iterable state, so probe it: registration and
// price for every domain, every company domain and every host's registered
// domain.
std::string RegistrarDigest(const World& w) {
  WorldDigest d;
  const registrar::SimRegistrar& reg = w.registrar_client();
  d.U64(reg.registered_count());
  auto probe = [&](const dns::Name& name) {
    d.Name(name);
    d.U64(reg.IsRegistered(name) ? 1 : 0);
    const std::optional<double> price = reg.PriceUsd(name);
    d.F64(price.value_or(-1.0));
  };
  for (const DomainTruth& t : w.domains()) probe(t.name);
  for (const CountryRuntime& rt : w.country_runtime()) {
    for (const NationalCompany& c : rt.companies) probe(c.domain);
  }
  for (const NsHost& host : w.ns_hosts()) {
    if (auto reg_domain = w.psl().RegisteredDomain(host.hostname)) {
      probe(*reg_domain);
    }
  }
  return d.Hex();
}

struct GoldenWorld {
  const char* domains;
  const char* pdns;
  const char* zones;
  const char* endpoints;
  const char* registrar;
};

void ExpectGolden(World& w, const GoldenWorld& golden) {
  EXPECT_EQ(DomainsDigest(w), golden.domains);
  EXPECT_EQ(PdnsDigest(w), golden.pdns);
  EXPECT_EQ(ZonesDigest(w), golden.zones);
  EXPECT_EQ(EndpointsDigest(w), golden.endpoints);
  EXPECT_EQ(RegistrarDigest(w), golden.registrar);
}

TEST(WorldGoldenTest, DigestPinned) {
  {
    // Scale 0.05 reaches both lifecycle hot paths: provider demand
    // (global-provider epochs) and Zipf draws over >= 2 national companies.
    WorldConfig config;
    config.scale = 0.05;
    auto w = BuildWorld(config);
    bool provider_epochs = false, later_company = false;
    for (const DomainTruth& t : w->domains()) {
      for (const NsEpoch& e : t.epochs) {
        provider_epochs |= e.style == DeployStyle::kGlobal;
        later_company |= e.style == DeployStyle::kNational &&
                         e.national_company >= 1;
      }
    }
    EXPECT_TRUE(provider_epochs);
    EXPECT_TRUE(later_company);
    ExpectGolden(*w, {"671c68c06523d7e7", "9ebe2c0d0c045d95",
                      "d47e51c037b922fe", "7b28a8b0867acf59",
                      "ff6555c3d4542704"});
  }
  {
    WorldConfig config;
    config.scale = 0.02;
    config.chaos = simnet::ChaosProfile::Hostile();
    auto w = BuildWorld(config);
    ExpectGolden(*w, {"0d9cd1d98a43c930", "5a8480832e4e4b2e",
                      "ad021bb0fd2ba599", "59e8d675274fe545",
                      "69379457a6f12d56"});
  }
}

}  // namespace
}  // namespace govdns::worldgen

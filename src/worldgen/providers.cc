#include "worldgen/providers.h"

#include <algorithm>
#include <map>

#include "util/status.h"
#include "worldgen/countries.h"

namespace govdns::worldgen {

namespace {

// Vanity-name pool used for Cloudflare-style hostnames.
constexpr const char* kWordPool[] = {
    "ada",   "alex",  "amber", "amy",   "anna",  "beth",  "carl",  "cody",
    "cora",  "dahlia","dana",  "dean",  "elle",  "emma",  "erin",  "fred",
    "gail",  "gina",  "hank",  "iris",  "ivan",  "jean",  "jill",  "kate",
    "kurt",  "lana",  "leah",  "liam",  "lola",  "mark",  "mira",  "nash",
    "nina",  "noah",  "olga",  "omar",  "pete",  "rosa",  "ruth",  "sara",
    "seth",  "tess",  "tim",   "uma",   "vera",  "walt",  "wren",  "zara",
};
constexpr int kWordPoolSize = static_cast<int>(std::size(kWordPool));

std::vector<ProviderSpec> BuildProviders() {
  std::vector<ProviderSpec> p;
  auto add = [&](ProviderSpec spec) { p.push_back(std::move(spec)); };

  // --- The big clouds -----------------------------------------------------
  add({.display = "Amazon Route 53",
       .group_key = "AWS DNS",
       .naming = NamingStyle::kAws,
       .ns_domains = {"com", "net", "org", "co.uk"},  // awsdns families
       .start_year = 2010,
       .end_year = 0,
       .domains_2011 = 5,
       .domains_2020 = 5193,
       .small_country_affinity = 1.0,
       .coverage_2011 = 0.04,
       .coverage_2020 = 0.42,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 128,
       .num_prefixes = 8,
       .num_asns = 1,
       .in_table2 = true,
       .vanity_fraction = 0.02});
  add({.display = "Cloudflare",
       .group_key = "cloudflare.com",
       .naming = NamingStyle::kWordPool,
       .ns_domains = {"cloudflare.com"},
       .start_year = 2010,
       .end_year = 0,
       .domains_2011 = 12,
       .domains_2020 = 4136,
       .small_country_affinity = 1.6,
       .coverage_2011 = 0.07,
       .coverage_2020 = 0.47,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = kWordPoolSize,
       .num_prefixes = 6,
       .num_asns = 1,
       .in_table2 = true,
       .vanity_fraction = 0.0});
  add({.display = "Azure DNS",
       .group_key = "Azure DNS",
       .naming = NamingStyle::kAzure,
       .ns_domains = {"com", "net", "org", "info"},  // azure-dns families
       .start_year = 2016,
       .end_year = 0,
       .domains_2011 = 0,
       .domains_2020 = 1574,
       .small_country_affinity = 0.8,
       .coverage_2011 = 0.0,
       .coverage_2020 = 0.23,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 64,
       .num_prefixes = 8,
       .num_asns = 1,
       .in_table2 = true,
       .vanity_fraction = 0.02});

  // --- Managed-DNS specialists --------------------------------------------
  add({.display = "GoDaddy",
       .group_key = "domaincontrol.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"domaincontrol.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 283,
       .domains_2020 = 1582,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.4,
       .coverage_2020 = 0.39,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 80,
       .num_prefixes = 4,
       .num_asns = 1,
       .in_table2 = true,
       .vanity_fraction = 0.01});
  add({.display = "DNSPod",
       .group_key = "dnspod.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"dnspod.net"},
       .start_year = 2007,
       .end_year = 0,
       .domains_2011 = 373,
       .domains_2020 = 700,
       .small_country_affinity = 1.0,
       .coverage_2011 = 1.0,
       .coverage_2020 = 1.0,
       .country_focus = "cn",
       .ns_per_customer = 2,
       .pool_size = 24,
       .num_prefixes = 4,
       .num_asns = 2,
       .in_table2 = true,
       .vanity_fraction = 0.0});
  add({.display = "DNSMadeEasy",
       .group_key = "dnsmadeeasy.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"dnsmadeeasy.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 89,
       .domains_2020 = 254,
       .small_country_affinity = 1.2,
       .coverage_2011 = 0.1,
       .coverage_2020 = 0.11,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 16,
       .num_prefixes = 6,
       .num_asns = 2,
       .in_table2 = true,
       .vanity_fraction = 0.03});
  add({.display = "Dyn",
       .group_key = "dynect.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"dynect.net"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 7,
       .domains_2020 = 170,
       .small_country_affinity = 0.9,
       .coverage_2011 = 0.03,
       .coverage_2020 = 0.13,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 8,
       .num_prefixes = 4,
       .num_asns = 2,
       .in_table2 = true,
       .vanity_fraction = 0.05});
  add({.display = "UltraDNS",
       .group_key = "ultradns.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"ultradns.net"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 15,
       .domains_2020 = 66,
       .small_country_affinity = 0.7,
       .coverage_2011 = 0.04,
       .coverage_2020 = 0.06,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 8,
       .num_prefixes = 4,
       .num_asns = 2,
       .in_table2 = true,
       .vanity_fraction = 0.05});

  // --- US shared-hosting wave (dominant in 2011) ---------------------------
  add({.display = "Hostgator (websitewelcome)",
       .group_key = "websitewelcome.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"websitewelcome.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 424,
       .domains_2020 = 745,
       .small_country_affinity = 2.2,
       .coverage_2011 = 0.45,
       .coverage_2020 = 0.31,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 120,
       .num_prefixes = 3,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "Hostgator",
       .group_key = "Hostgator",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"hostgator.com", "hostgator.com.br"},
       .start_year = 2006,
       .end_year = 0,
       .domains_2011 = 183,
       .domains_2020 = 1536,
       .small_country_affinity = 1.7,
       .coverage_2011 = 0.26,
       .coverage_2020 = 0.34,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 60,
       .num_prefixes = 3,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "ZoneEdit",
       .group_key = "zoneedit.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"zoneedit.com"},
       .start_year = 2000,
       .end_year = 0,
       .domains_2011 = 182,
       .domains_2020 = 110,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.28,
       .coverage_2020 = 0.1,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 20,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "DreamHost",
       .group_key = "dreamhost.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"dreamhost.com"},
       .start_year = 2002,
       .end_year = 0,
       .domains_2011 = 243,
       .domains_2020 = 290,
       .small_country_affinity = 1.6,
       .coverage_2011 = 0.26,
       .coverage_2020 = 0.12,
       .country_focus = "",
       .ns_per_customer = 3,
       .pool_size = 3,
       .num_prefixes = 3,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "Bluehost",
       .group_key = "bluehost.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"bluehost.com"},
       .start_year = 2004,
       .end_year = 0,
       .domains_2011 = 134,
       .domains_2020 = 432,
       .small_country_affinity = 2.4,
       .coverage_2011 = 0.26,
       .coverage_2020 = 0.36,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 2,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "IX Web Hosting",
       .group_key = "ixwebhosting.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"ixwebhosting.com"},
       .start_year = 2002,
       .end_year = 2019,
       .domains_2011 = 98,
       .domains_2020 = 12,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.24,
       .coverage_2020 = 0.04,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 12,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "HostMonster",
       .group_key = "hostmonster.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"hostmonster.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 103,
       .domains_2020 = 75,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.23,
       .coverage_2020 = 0.07,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 2,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "EveryDNS",
       .group_key = "everydns.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"everydns.net"},
       .start_year = 2001,
       .end_year = 2011,  // shut down; customers forced to churn
       .domains_2011 = 259,
       .domains_2020 = 0,
       .small_country_affinity = 1.6,
       .coverage_2011 = 0.22,
       .coverage_2020 = 0.0,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 4,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "PipeDNS",
       .group_key = "pipedns.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"pipedns.com"},
       .start_year = 2004,
       .end_year = 2018,
       .domains_2011 = 48,
       .domains_2020 = 8,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.21,
       .coverage_2020 = 0.03,
       .country_focus = "",
       .ns_per_customer = 3,
       .pool_size = 6,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "Rackspace (stabletransit)",
       .group_key = "stabletransit.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"stabletransit.com"},
       .start_year = 2006,
       .end_year = 0,
       .domains_2011 = 57,
       .domains_2020 = 55,
       .small_country_affinity = 1.2,
       .coverage_2011 = 0.19,
       .coverage_2020 = 0.09,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 4,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});

  // --- The 2013+ generation ------------------------------------------------
  add({.display = "DigitalOcean",
       .group_key = "digitalocean.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"digitalocean.com"},
       .start_year = 2013,
       .end_year = 0,
       .domains_2011 = 0,
       .domains_2020 = 429,
       .small_country_affinity = 1.6,
       .coverage_2011 = 0.0,
       .coverage_2020 = 0.28,
       .country_focus = "",
       .ns_per_customer = 3,
       .pool_size = 3,
       .num_prefixes = 3,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "Microsoft Online",
       .group_key = "microsoftonline.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"microsoftonline.com"},
       .start_year = 2012,
       .end_year = 0,
       .domains_2011 = 0,
       .domains_2020 = 135,
       .small_country_affinity = 1.5,
       .coverage_2011 = 0.0,
       .coverage_2020 = 0.25,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 8,
       .num_prefixes = 4,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "Wix",
       .group_key = "wixdns.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"wixdns.net"},
       .start_year = 2013,
       .end_year = 0,
       .domains_2011 = 0,
       .domains_2020 = 324,
       .small_country_affinity = 1.8,
       .coverage_2011 = 0.0,
       .coverage_2020 = 0.22,
       .country_focus = "",
       .ns_per_customer = 2,
       .pool_size = 10,
       .num_prefixes = 2,
       .num_asns = 1,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "ClouDNS",
       .group_key = "cloudns.net",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"cloudns.net"},
       .start_year = 2010,
       .end_year = 0,
       .domains_2011 = 10,
       .domains_2020 = 225,
       .small_country_affinity = 1.7,
       .coverage_2011 = 0.05,
       .coverage_2020 = 0.22,
       .country_focus = "",
       .ns_per_customer = 4,
       .pool_size = 20,
       .num_prefixes = 4,
       .num_asns = 2,
       .in_table2 = false,
       .vanity_fraction = 0.0});

  // --- Chinese registrar/hosting giants (gov.cn's dominant providers) -----
  add({.display = "HiChina (Alibaba)",
       .group_key = "hichina.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"hichina.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 4200,
       .domains_2020 = 11000,
       .small_country_affinity = 1.0,
       .coverage_2011 = 1.0,
       .coverage_2020 = 1.0,
       .country_focus = "cn",
       .ns_per_customer = 2,
       .pool_size = 32,
       .num_prefixes = 8,
       .num_asns = 2,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "XinNet (xincache)",
       .group_key = "xincache.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"xincache.com"},
       .start_year = 2005,
       .end_year = 0,
       .domains_2011 = 3000,
       .domains_2020 = 7700,
       .small_country_affinity = 1.0,
       .coverage_2011 = 1.0,
       .coverage_2020 = 1.0,
       .country_focus = "cn",
       .ns_per_customer = 2,
       .pool_size = 16,
       .num_prefixes = 4,
       .num_asns = 2,
       .in_table2 = false,
       .vanity_fraction = 0.0});
  add({.display = "DNS-DIY",
       .group_key = "dns-diy.com",
       .naming = NamingStyle::kNumberedPool,
       .ns_domains = {"dns-diy.com"},
       .start_year = 2006,
       .end_year = 0,
       .domains_2011 = 1700,
       .domains_2020 = 4200,
       .small_country_affinity = 1.0,
       .coverage_2011 = 1.0,
       .coverage_2020 = 1.0,
       .country_focus = "cn",
       .ns_per_customer = 2,
       .pool_size = 12,
       .num_prefixes = 3,
       .num_asns = 2,
       .in_table2 = false,
       .vanity_fraction = 0.0});

  return p;
}

const std::vector<ProviderSpec>& ProviderVector() {
  static const std::vector<ProviderSpec> kProviders = BuildProviders();
  return kProviders;
}

}  // namespace

std::span<const ProviderSpec> Providers() { return ProviderVector(); }

int ProviderIndexByGroupKey(const std::string& group_key) {
  static const std::map<std::string, int> kIndex = [] {
    std::map<std::string, int> m;
    const auto& providers = ProviderVector();
    for (int i = 0; i < static_cast<int>(providers.size()); ++i) {
      m[providers[i].group_key] = i;
    }
    return m;
  }();
  auto it = kIndex.find(group_key);
  return it == kIndex.end() ? -1 : it->second;
}

dns::Name ProviderHostname(const ProviderSpec& spec, int i) {
  GOVDNS_CHECK(i >= 0);
  switch (spec.naming) {
    case NamingStyle::kNumberedPool: {
      GOVDNS_CHECK(i < spec.pool_size);
      // Round-robin across the provider's ns domains (hostgator.com /
      // hostgator.com.br).
      const std::string& base = spec.ns_domains[i % spec.ns_domains.size()];
      int ordinal = i / static_cast<int>(spec.ns_domains.size()) + 1;
      return dns::Name::FromString("ns" + std::to_string(ordinal) + "." + base);
    }
    case NamingStyle::kWordPool: {
      GOVDNS_CHECK(i < spec.pool_size && i < kWordPoolSize);
      return dns::Name::FromString(std::string(kWordPool[i]) + ".ns." +
                                   spec.ns_domains[0]);
    }
    case NamingStyle::kAws: {
      // ns-{n}.awsdns-{nn}.{family}; family cycles com/net/org/co.uk.
      int family = i % static_cast<int>(spec.ns_domains.size());
      int shard = (i / static_cast<int>(spec.ns_domains.size())) % 64;
      int host = i % 2048;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "ns-%d.awsdns-%02d.", host, shard);
      return dns::Name::FromString(std::string(buf) + spec.ns_domains[family]);
    }
    case NamingStyle::kAzure: {
      int family = i % static_cast<int>(spec.ns_domains.size());
      int shard = (i / static_cast<int>(spec.ns_domains.size())) % 100;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "ns%d-%02d.azure-dns.", family + 1,
                    shard);
      return dns::Name::FromString(std::string(buf) + spec.ns_domains[family]);
    }
  }
  GOVDNS_CHECK(false);
  return dns::Name::Root();
}

std::vector<dns::Name> PickCustomerNs(const ProviderSpec& spec,
                                      util::Rng& rng) {
  std::vector<dns::Name> out;
  switch (spec.naming) {
    case NamingStyle::kAws:
    case NamingStyle::kAzure: {
      // One hostname per family; families differ by construction.
      int families = static_cast<int>(spec.ns_domains.size());
      int base = static_cast<int>(rng.UniformU64(spec.pool_size / families)) *
                 families;
      for (int f = 0; f < spec.ns_per_customer; ++f) {
        out.push_back(ProviderHostname(spec, base + f));
      }
      break;
    }
    case NamingStyle::kNumberedPool:
    case NamingStyle::kWordPool: {
      // A contiguous run starting at a random slot (GoDaddy-style nsNN/nsMM
      // pairing) — deterministic per customer, shared across customers that
      // draw the same slot.
      int n = spec.ns_per_customer;
      GOVDNS_CHECK(spec.pool_size >= n);
      int start = static_cast<int>(rng.UniformU64(spec.pool_size - n + 1));
      for (int k = 0; k < n; ++k) {
        out.push_back(ProviderHostname(spec, start + k));
      }
      break;
    }
  }
  return out;
}

std::vector<double> CountryDemandWeights(const ProviderSpec& spec, int year) {
  const auto countries = Countries();
  const auto top10 = Top10CountryCodes();
  const double frac = std::clamp((year - 2011) / 9.0, 0.0, 1.0);
  const double coverage =
      spec.coverage_2011 + (spec.coverage_2020 - spec.coverage_2011) * frac;
  std::vector<double> weights(countries.size(), 0.0);
  for (size_t c = 0; c < countries.size(); ++c) {
    const std::string_view code = countries[c].code;
    if (!spec.country_focus.empty()) {
      if (spec.country_focus != code) continue;
    } else {
      const double u =
          double(util::HashString(std::string(spec.group_key) + "|" +
                                  countries[c].code) >>
                 11) *
          0x1.0p-53;
      if (u >= coverage) continue;
    }
    const bool top = std::any_of(top10.begin(), top10.end(),
                                 [&](const char* t) { return code == t; });
    weights[c] = top ? 1.0 : spec.small_country_affinity;
  }
  return weights;
}

}  // namespace govdns::worldgen

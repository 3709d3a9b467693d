// Third-party DNS provider pool.
//
// Each named provider reproduces one row of the paper's Tables II/III: its
// nameserver naming convention (AWS's ns-N.awsdns-NN.TLD pattern, pooled
// vanity names at Cloudflare, a fixed ns1/ns2 pair at small shared hosts),
// the domains its NS hostnames live under, its adoption trajectory between
// 2011 and 2020, regional focus (DNSPod and the big Chinese registrars serve
// only gov.cn customers), and its network topology (how many /24 prefixes
// and ASNs its nameserver fleet spans — the input to Table I's diversity
// numbers for provider-hosted domains).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "util/rng.h"

namespace govdns::worldgen {

enum class NamingStyle : uint8_t {
  kNumberedPool,  // ns{i}.{domain}; customers draw a pair from the pool
  kWordPool,      // {word}.ns.{domain} (Cloudflare-style vanity pool)
  kAws,           // ns-{n}.awsdns-{nn}.{com|net|org|co.uk}, one per family
  kAzure,         // ns1-{nn}.azure-dns.{com|net|org|info}, one per family
};

struct ProviderSpec {
  const char* display;    // "Cloudflare"
  const char* group_key;  // aggregation key used in the tables, e.g.
                          // "cloudflare.com" or "AWS DNS" (grouped families)
  NamingStyle naming;
  // Domains the provider's NS hostnames live under. For kAws/kAzure these
  // are the per-family base domains; otherwise usually a single entry.
  std::vector<std::string> ns_domains;

  int start_year;  // first year customers can adopt it
  int end_year;    // last year it operates (0 = still alive in 2021);
                   // EveryDNS's 2011 shutdown makes its customers churn

  // Target number of government domains using it, at the paper's global
  // scale, in 2011 and 2020. The generator linearly interpolates between
  // the anchor years (zero before start_year) and fills adoption
  // demand-driven, so these anchors land close to the reported counts.
  double domains_2011;
  double domains_2020;

  // >1 biases adoption toward countries with few domains (cheap shared
  // hosts show up in far more countries per domain than the big clouds).
  double small_country_affinity;

  // Fraction of countries that ever adopt this provider, at the anchor
  // years (linearly interpolated; the gate is a deterministic per-country
  // hash, so coverage grows monotonically). Calibrates Table III's
  // countries-per-provider: 52 for the 2011 leader, 85 for 2020's.
  double coverage_2011 = 1.0;
  double coverage_2020 = 1.0;

  // Empty = global; a ccTLD code restricts adoption to that country.
  std::string country_focus;

  int ns_per_customer;  // how many of its NS a customer lists
  int pool_size;        // hostnames in the pool (kNumberedPool/kWordPool)

  int num_prefixes;  // /24s the NS fleet spans
  int num_asns;      // ASNs the fleet spans

  bool in_table2;  // one of the paper's "major providers" (Table II)

  // Fraction of customers fronting the provider with vanity NS names in
  // their own zone; only the SOA MNAME/RNAME betrays the provider (this is
  // what the SOA-based matching ablation measures).
  double vanity_fraction;
};

// The named provider table (global + Chinese regional providers).
std::span<const ProviderSpec> Providers();

// Index by group_key; -1 if absent.
int ProviderIndexByGroupKey(const std::string& group_key);

// Generates the i-th NS hostname of a provider's pool, following its
// naming style. `i` must be < pool size (for pooled styles).
dns::Name ProviderHostname(const ProviderSpec& spec, int i);

// Picks the NS hostnames a new customer is assigned, deterministic in rng.
std::vector<dns::Name> PickCustomerNs(const ProviderSpec& spec,
                                      util::Rng& rng);

// The weight with which each country's domains compete for `spec`'s
// customer demand in `year`, indexed like Countries(); 0 when the country
// does not buy from the provider that year. A focused provider sells only
// in its focus country. For a global one, a deterministic per-(provider,
// country) coin HashString(group_key + "|" + code) decides whether the
// market buys at all: it does while the coin is below the provider's
// coverage that year, so markets open monotonically over the decade
// (Table III calibration). Buying top-10 countries weigh 1.0, the rest
// small_country_affinity.
std::vector<double> CountryDemandWeights(const ProviderSpec& spec, int year);

}  // namespace govdns::worldgen

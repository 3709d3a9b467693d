#include "core/cut_cache.h"

#include <algorithm>

namespace govdns::core {

SharedCutCache::SharedCutCache(size_t stripes, size_t max_negatives_per_stripe)
    : max_negatives_per_stripe_(std::max<size_t>(1, max_negatives_per_stripe)) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

SharedCutCache::Stripe& SharedCutCache::StripeFor(const dns::Name& cut) const {
  return *stripes_[dns::Name::Hash{}(cut) % stripes_.size()];
}

std::optional<SharedCutCache::Entry> SharedCutCache::Lookup(
    const dns::Name& cut) const {
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  auto it = stripe.entries.find(cut);
  if (it == stripe.entries.end()) {
    ++stripe.stats.misses;
    return std::nullopt;
  }
  if (it->second.reachable) {
    ++stripe.stats.hits;
  } else {
    ++stripe.stats.negative_hits;
  }
  return it->second;
}

void SharedCutCache::Publish(const dns::Name& cut, Entry entry) {
  if (trace_log_ != nullptr) {
    trace_log_->Record(cut.ToString(), /*reachable=*/true,
                       static_cast<uint32_t>(entry.ns_names.size()),
                       static_cast<uint32_t>(entry.addresses.size()));
  }
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  auto it = stripe.entries.find(cut);
  if (it != stripe.entries.end() && !it->second.reachable) {
    --stripe.negatives;  // a retried cut came back to life
  }
  stripe.entries[cut] = std::move(entry);
  ++stripe.stats.publishes;
}

size_t SharedCutCache::EvictNegativesLocked(Stripe& stripe, uint64_t now_ms) {
  if (stripe.negatives < max_negatives_per_stripe_) return 0;
  size_t evicted = 0;
  // Expired negatives are pure garbage — drop them all first.
  for (auto it = stripe.entries.begin(); it != stripe.entries.end();) {
    if (!it->second.reachable && it->second.expires_ms <= now_ms) {
      it = stripe.entries.erase(it);
      --stripe.negatives;
      ++evicted;
    } else {
      ++it;
    }
  }
  // Still full: drop the earliest-expiring live negatives until one slot
  // frees up. The victim order is (expires_ms, canonical name) — the key
  // tiebreak is explicit, not an artifact of std::map iteration order, so
  // same-expiry ties evict identically even if the container ever changes
  // (pinned by CutCacheCkptTest.NegativeEvictionTiebreakIsStable).
  while (stripe.negatives >= max_negatives_per_stripe_) {
    auto victim = stripe.entries.end();
    for (auto it = stripe.entries.begin(); it != stripe.entries.end(); ++it) {
      if (it->second.reachable) continue;
      if (victim == stripe.entries.end() ||
          it->second.expires_ms < victim->second.expires_ms ||
          (it->second.expires_ms == victim->second.expires_ms &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim == stripe.entries.end()) break;
    stripe.entries.erase(victim);
    --stripe.negatives;
    ++evicted;
  }
  return evicted;
}

void SharedCutCache::PublishUnreachable(const dns::Name& cut,
                                        std::vector<dns::Name> ns_names,
                                        uint64_t expires_ms, uint64_t now_ms) {
  Entry entry;
  entry.ns_names = std::move(ns_names);
  entry.reachable = false;
  entry.expires_ms = expires_ms;
  if (trace_log_ != nullptr) {
    trace_log_->Record(cut.ToString(), /*reachable=*/false,
                       static_cast<uint32_t>(entry.ns_names.size()),
                       /*addr_count=*/0);
  }
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  auto it = stripe.entries.find(cut);
  const bool replacing_negative =
      it != stripe.entries.end() && !it->second.reachable;
  if (!replacing_negative) {
    stripe.stats.negative_evictions += EvictNegativesLocked(stripe, now_ms);
  }
  stripe.entries[cut] = std::move(entry);
  if (!replacing_negative) ++stripe.negatives;
  ++stripe.stats.negative_publishes;
}

void SharedCutCache::ChargeInfra(const dns::Name& zone,
                                 const ResolverCounters& effort) {
  Stripe& stripe = StripeFor(zone);
  std::lock_guard lock(stripe.mu);
  stripe.stats.infra += effort;
}

size_t SharedCutCache::size() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->entries.size();
  }
  return total;
}

void SharedCutCache::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->entries.clear();
    stripe->negatives = 0;
  }
}

std::vector<std::pair<dns::Name, SharedCutCache::Entry>>
SharedCutCache::Export() const {
  std::vector<std::pair<dns::Name, Entry>> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (const auto& [cut, entry] : stripe->entries) {
      out.emplace_back(cut, entry);
    }
  }
  // Stripe order depends on the hash layout; name order is canonical.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

size_t SharedCutCache::Restore(
    const std::vector<std::pair<dns::Name, Entry>>& entries) {
  size_t restored = 0;
  for (const auto& [cut, entry] : entries) {
    if (!entry.reachable) continue;  // negatives never survive a restart
    Stripe& stripe = StripeFor(cut);
    std::lock_guard lock(stripe.mu);
    auto it = stripe.entries.find(cut);
    if (it != stripe.entries.end()) continue;  // live data wins over snapshot
    stripe.entries.emplace(cut, entry);
    ++restored;
  }
  return restored;
}

CutCacheStats SharedCutCache::stats() const {
  CutCacheStats total;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    const CutCacheStats& s = stripe->stats;
    total.hits += s.hits;
    total.misses += s.misses;
    total.negative_hits += s.negative_hits;
    total.publishes += s.publishes;
    total.negative_publishes += s.negative_publishes;
    total.negative_evictions += s.negative_evictions;
    total.infra += s.infra;
  }
  return total;
}

}  // namespace govdns::core

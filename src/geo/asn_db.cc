#include "geo/asn_db.h"

#include <algorithm>

namespace govdns::geo {

void AsnDatabase::Add(const Cidr& block, uint32_t asn,
                      std::string organization) {
  const uint32_t first = block.network().bits();
  const uint32_t last = static_cast<uint32_t>(first + (block.size() - 1));
  auto [it, inserted] = by_len_[block.prefix_len()].insert_or_assign(
      first, AsnInfo{asn, std::move(organization)});
  // Re-registering a prefix updates the node ranges_ already points at.
  if (!inserted) return;
  if (ranges_.empty() || ranges_.back().last < first) {
    ranges_.push_back({first, last, &it->second});
  } else {
    Flatten();
  }
}

void AsnDatabase::Flatten() {
  struct Prefix {
    uint32_t first, last;
    int len;
    const AsnInfo* info;
  };
  std::vector<Prefix> prefixes;
  for (int len = 0; len <= 32; ++len) {
    const uint64_t size = uint64_t{1} << (32 - len);
    for (const auto& [network, info] : by_len_[len]) {
      prefixes.push_back({network, static_cast<uint32_t>(network + (size - 1)),
                          len, &info});
    }
  }
  // CIDR blocks are nested or disjoint: in (start, shorter first) order a
  // stack of the open enclosing blocks yields, for every address, the
  // innermost block covering it.
  std::sort(prefixes.begin(), prefixes.end(),
            [](const Prefix& a, const Prefix& b) {
              return a.first != b.first ? a.first < b.first : a.len < b.len;
            });
  ranges_.clear();
  std::vector<const Prefix*> open;
  uint64_t cursor = 0;  // first address not yet emitted
  // Emits [cursor, last] for the innermost open block.
  auto emit_until = [&](uint64_t last) {
    if (cursor > last) return;  // an inner block already reached `last`
    ranges_.push_back({static_cast<uint32_t>(cursor),
                       static_cast<uint32_t>(last), open.back()->info});
    cursor = last + 1;
  };
  for (const Prefix& p : prefixes) {
    while (!open.empty() && open.back()->last < p.first) {
      emit_until(open.back()->last);
      open.pop_back();
    }
    if (!open.empty() && p.first > cursor) emit_until(uint64_t{p.first} - 1);
    cursor = p.first;
    open.push_back(&p);
  }
  while (!open.empty()) {
    emit_until(open.back()->last);
    open.pop_back();
  }
}

const AsnInfo* AsnDatabase::Lookup(IPv4 ip) const {
  const uint32_t bits = ip.bits();
  // The last range starting at or before `ip`.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), bits,
      [](uint32_t v, const Range& r) { return v < r.first; });
  if (it == ranges_.begin()) return nullptr;
  --it;
  return bits <= it->last ? it->info : nullptr;
}

size_t AsnDatabase::prefix_count() const {
  size_t total = 0;
  for (const auto& table : by_len_) total += table.size();
  return total;
}

AddressAllocator::AddressAllocator(AsnDatabase* db)
    : db_(db),
      // Start in 10/8-adjacent space well away from 0; purely synthetic.
      next_network_(IPv4(11, 0, 0, 0).bits()) {
  GOVDNS_CHECK(db != nullptr);
}

Cidr AddressAllocator::AllocateBlock(int prefix_len,
                                     const std::string& organization,
                                     std::optional<uint32_t> reuse_asn) {
  GOVDNS_CHECK(prefix_len >= 16 && prefix_len <= 24);
  uint64_t size = uint64_t{1} << (32 - prefix_len);
  // Align the cursor to the block size.
  next_network_ = (next_network_ + size - 1) & ~(size - 1);
  GOVDNS_CHECK(next_network_ + size <= (uint64_t{1} << 32));
  Cidr block(IPv4(static_cast<uint32_t>(next_network_)), prefix_len);
  next_network_ += size;
  uint32_t asn = reuse_asn.value_or(next_asn_++);
  db_->Add(block, asn, organization);
  return block;
}

IPv4 AddressAllocator::HostInBlock(const Cidr& block, uint32_t index) {
  uint64_t offset = uint64_t{index} + 1;  // skip network address .0
  GOVDNS_CHECK(offset < block.size());
  return IPv4(block.network().bits() + static_cast<uint32_t>(offset));
}

}  // namespace govdns::geo

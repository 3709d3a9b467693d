#include "geo/asn_db.h"

namespace govdns::geo {

void AsnDatabase::Add(const Cidr& block, uint32_t asn,
                      std::string organization) {
  by_len_[block.prefix_len()][block.network().bits()] =
      AsnInfo{asn, std::move(organization)};
}

const AsnInfo* AsnDatabase::Lookup(IPv4 ip) const {
  for (int len = 32; len >= 0; --len) {
    const auto& table = by_len_[len];
    if (table.empty()) continue;
    uint32_t mask = len == 0 ? 0 : (~uint32_t{0} << (32 - len));
    auto it = table.find(ip.bits() & mask);
    if (it != table.end()) return &it->second;
  }
  return nullptr;
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

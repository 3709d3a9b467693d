// ASN database with longest-prefix-match lookup.
//
// Plays the role of MaxMind's GeoIP2 ASN database in the paper's diversity
// analysis (Table I): given a nameserver's IPv4 address, report the
// autonomous system it belongs to. Also hands out address space to the world
// generator via AddressAllocator.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "geo/ipv4.h"
#include "util/status.h"

namespace govdns::geo {

struct AsnInfo {
  uint32_t asn = 0;
  std::string organization;

  friend bool operator==(const AsnInfo&, const AsnInfo&) = default;
};

// Immutable-after-build prefix database. Lookups return the most specific
// (longest) registered prefix containing the address.
class AsnDatabase {
 public:
  // Registering a block past every registered address (what
  // AddressAllocator does) costs O(log n); any other Add re-flattens the
  // whole table in O(n log n).
  void Add(const Cidr& block, uint32_t asn, std::string organization);

  // Longest-prefix match in one binary search; null if no registered block
  // covers `ip`. Points into the database (no copy) and stays valid until
  // the next Add.
  const AsnInfo* Lookup(IPv4 ip) const;

  size_t prefix_count() const;

 private:
  // A maximal address run whose longest covering prefix is `info`.
  struct Range {
    uint32_t first = 0;
    uint32_t last = 0;
    const AsnInfo* info = nullptr;
  };

  // Recomputes ranges_ from by_len_.
  void Flatten();

  // One ordered map per prefix length: the registered prefixes themselves.
  std::map<uint32_t, AsnInfo> by_len_[33];
  // The flattened longest-prefix table: disjoint, ascending ranges.
  std::vector<Range> ranges_;
};

// Sequentially carves address space out of a pool of /16 super-blocks and
// registers each carved block in the AsnDatabase. The world generator asks
// for one block per operator (government network, hosting provider, ...).
class AddressAllocator {
 public:
  explicit AddressAllocator(AsnDatabase* db);

  // Allocates a fresh /`prefix_len` block (prefix_len in [16, 24]) for the
  // given organization, assigning it a new ASN unless `reuse_asn` is set.
  Cidr AllocateBlock(int prefix_len, const std::string& organization,
                     std::optional<uint32_t> reuse_asn = std::nullopt);

  // Returns the i-th host address inside a previously allocated block.
  // Skips .0; aborts if the index exceeds the block size.
  static IPv4 HostInBlock(const Cidr& block, uint32_t index);

  uint32_t last_asn() const { return next_asn_ - 1; }

 private:
  AsnDatabase* db_;
  uint64_t next_network_;  // next unallocated address (host order)
  uint32_t next_asn_ = 64512;
};

}  // namespace govdns::geo

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "geo/asn_db.h"
#include "geo/ipv4.h"
#include "util/rng.h"

namespace govdns::geo {
namespace {

TEST(IPv4Test, FormatAndParse) {
  IPv4 ip(192, 0, 2, 33);
  EXPECT_EQ(ip.ToString(), "192.0.2.33");
  auto parsed = IPv4::Parse("192.0.2.33");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ip);
}

TEST(IPv4Test, ParseRejectsGarbage) {
  EXPECT_FALSE(IPv4::Parse("").ok());
  EXPECT_FALSE(IPv4::Parse("1.2.3").ok());
  EXPECT_FALSE(IPv4::Parse("1.2.3.256").ok());
  EXPECT_FALSE(IPv4::Parse("1.2.3.4x").ok());
}

TEST(IPv4Test, Slash24ZeroesLowOctet) {
  EXPECT_EQ(IPv4(10, 1, 2, 3).Slash24(), IPv4(10, 1, 2, 0));
  EXPECT_EQ(IPv4(10, 1, 2, 0).Slash24(), IPv4(10, 1, 2, 0));
  EXPECT_NE(IPv4(10, 1, 2, 3).Slash24(), IPv4(10, 1, 3, 3).Slash24());
}

TEST(IPv4Test, OrderingFollowsNumericValue) {
  EXPECT_LT(IPv4(1, 0, 0, 0), IPv4(2, 0, 0, 0));
  EXPECT_LT(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2));
}

TEST(CidrTest, ContainsAndSize) {
  Cidr block(IPv4(192, 0, 2, 0), 24);
  EXPECT_TRUE(block.Contains(IPv4(192, 0, 2, 255)));
  EXPECT_FALSE(block.Contains(IPv4(192, 0, 3, 0)));
  EXPECT_EQ(block.size(), 256u);
  EXPECT_EQ(block.ToString(), "192.0.2.0/24");
}

TEST(CidrTest, NormalizesHostBits) {
  Cidr block(IPv4(192, 0, 2, 77), 24);
  EXPECT_EQ(block.network(), IPv4(192, 0, 2, 0));
}

TEST(CidrTest, ParseRoundTrip) {
  auto block = Cidr::Parse("10.20.0.0/16");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->prefix_len(), 16);
  EXPECT_TRUE(block->Contains(IPv4(10, 20, 255, 1)));
  EXPECT_FALSE(Cidr::Parse("10.20.0.0").ok());
  EXPECT_FALSE(Cidr::Parse("10.20.0.0/33").ok());
}

TEST(AsnDatabaseTest, LongestPrefixWins) {
  AsnDatabase db;
  db.Add(Cidr(IPv4(10, 0, 0, 0), 8), 100, "Big ISP");
  db.Add(Cidr(IPv4(10, 5, 0, 0), 16), 200, "Customer");
  db.Add(Cidr(IPv4(10, 5, 7, 0), 24), 300, "Sub-customer");

  EXPECT_EQ(db.Lookup(IPv4(10, 1, 1, 1))->asn, 100u);
  EXPECT_EQ(db.Lookup(IPv4(10, 5, 1, 1))->asn, 200u);
  EXPECT_EQ(db.Lookup(IPv4(10, 5, 7, 9))->asn, 300u);
  EXPECT_EQ(db.Lookup(IPv4(10, 5, 7, 9))->organization, "Sub-customer");
}

TEST(AsnDatabaseTest, MissReturnsNullopt) {
  AsnDatabase db;
  db.Add(Cidr(IPv4(10, 0, 0, 0), 8), 100, "x");
  EXPECT_EQ(db.Lookup(IPv4(11, 0, 0, 1)), nullptr);
}

TEST(AsnDatabaseTest, PrefixCount) {
  AsnDatabase db;
  EXPECT_EQ(db.prefix_count(), 0u);
  db.Add(Cidr(IPv4(10, 0, 0, 0), 8), 1, "a");
  db.Add(Cidr(IPv4(10, 0, 0, 0), 24), 2, "b");
  EXPECT_EQ(db.prefix_count(), 2u);
}

TEST(AsnDatabaseTest, FlatTableMatchesLongestPrefixScan) {
  // Nested and disjoint blocks registered in random order (every Add past
  // the end and every re-flatten), checked against a direct scan.
  util::Rng rng(77);
  AsnDatabase db;
  std::vector<std::pair<Cidr, uint32_t>> added;
  auto reference = [&](IPv4 ip) -> std::optional<uint32_t> {
    int best_len = -1;
    std::optional<uint32_t> best;
    for (const auto& [block, asn] : added) {
      if (block.Contains(ip) && block.prefix_len() >= best_len) {
        best_len = block.prefix_len();
        best = asn;  // a re-registered prefix keeps its latest ASN
      }
    }
    return best;
  };
  auto random_ip = [&] {
    // Mostly inside 10/8 so blocks nest; sometimes anywhere, incl. 0/255.
    switch (rng.UniformU64(4)) {
      case 0: return IPv4(static_cast<uint32_t>(rng.NextU64()));
      case 1: return IPv4(rng.Bernoulli(0.5) ? 0u : ~0u);
      default:
        return IPv4(10, static_cast<uint8_t>(rng.UniformU64(4)),
                    static_cast<uint8_t>(rng.UniformU64(256)),
                    static_cast<uint8_t>(rng.UniformU64(256)));
    }
  };
  for (int i = 0; i < 300; ++i) {
    const int len = static_cast<int>(rng.UniformU64(33));
    const Cidr block(random_ip(), len);
    const uint32_t asn = 1000 + static_cast<uint32_t>(i);
    db.Add(block, asn, "org");
    added.emplace_back(block, asn);
    for (int probe = 0; probe < 50; ++probe) {
      const IPv4 ip = random_ip();
      const AsnInfo* got = db.Lookup(ip);
      const std::optional<uint32_t> want = reference(ip);
      ASSERT_EQ(got != nullptr, want.has_value()) << ip.ToString();
      if (got != nullptr) {
        ASSERT_EQ(got->asn, *want) << ip.ToString();
      }
    }
  }
}

TEST(AddressAllocatorTest, BlocksAreDisjointAndRegistered) {
  AsnDatabase db;
  AddressAllocator alloc(&db);
  Cidr a = alloc.AllocateBlock(24, "org-a");
  uint32_t asn_a = alloc.last_asn();
  Cidr b = alloc.AllocateBlock(24, "org-b");
  uint32_t asn_b = alloc.last_asn();
  EXPECT_NE(a.network(), b.network());
  EXPECT_NE(asn_a, asn_b);
  EXPECT_FALSE(a.Contains(b.network()));

  auto info = db.Lookup(AddressAllocator::HostInBlock(a, 3));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->asn, asn_a);
  EXPECT_EQ(info->organization, "org-a");
}

TEST(AddressAllocatorTest, ReuseAsnGroupsBlocks) {
  AsnDatabase db;
  AddressAllocator alloc(&db);
  alloc.AllocateBlock(24, "org");
  uint32_t asn = alloc.last_asn();
  Cidr b = alloc.AllocateBlock(24, "org", asn);
  EXPECT_EQ(db.Lookup(b.network())->asn, asn);
}

TEST(AddressAllocatorTest, HostInBlockSkipsNetworkAddress) {
  AsnDatabase db;
  AddressAllocator alloc(&db);
  Cidr block = alloc.AllocateBlock(24, "org");
  EXPECT_EQ(AddressAllocator::HostInBlock(block, 0).bits(),
            block.network().bits() + 1);
}

TEST(AddressAllocatorTest, AlignmentForMixedSizes) {
  AsnDatabase db;
  AddressAllocator alloc(&db);
  alloc.AllocateBlock(24, "small");
  Cidr big = alloc.AllocateBlock(16, "big");
  // A /16 must start on a /16 boundary.
  EXPECT_EQ(big.network().bits() & 0xFFFF, 0u);
}

}  // namespace
}  // namespace govdns::geo

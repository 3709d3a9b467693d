#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "util/rng.h"

namespace govdns::dns {
namespace {

std::string Hex(const uint8_t* data, size_t len) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kDigits[data[i] >> 4];
    out += kDigits[data[i] & 0xF];
  }
  return out;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  return Hex(bytes.data(), bytes.size());
}

TEST(WireWriterTest, Primitives) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  ASSERT_EQ(w.size(), 7u);
  WireReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, TruncationDetected) {
  std::vector<uint8_t> buf = {0x12};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadU16().ok());
  EXPECT_FALSE(WireReader(buf).ReadU32().ok());
}

TEST(WireNameTest, UncompressedRoundTrip) {
  // A fresh writer has no earlier suffix to point at: the name goes out in
  // full, label by label.
  WireWriter w;
  Name name = Name::FromString("www.gov.au");
  w.WriteName(name);
  EXPECT_EQ(w.size(), name.WireLength());
  EXPECT_EQ(w.buffer(), (std::vector<uint8_t>{3, 'w', 'w', 'w', 3, 'g', 'o',
                                              'v', 2, 'a', 'u', 0}));
  WireReader r(w.buffer());
  auto decoded = r.ReadName();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, name);
}

TEST(WireNameTest, RootName) {
  WireWriter w;
  w.WriteName(Name::Root());
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.buffer()[0], 0);
  WireReader r(w.buffer());
  EXPECT_TRUE(r.ReadName()->IsRoot());
}

TEST(WireNameTest, CompressionEmitsPointer) {
  WireWriter w;
  Name a = Name::FromString("ns1.gov.cn");
  Name b = Name::FromString("ns2.gov.cn");
  w.WriteName(a);
  size_t first = w.size();
  w.WriteName(b);
  // Second name: "ns2" label (4 bytes) + 2-byte pointer to "gov.cn".
  EXPECT_EQ(w.size() - first, 4u + 2u);

  WireReader r(w.buffer());
  EXPECT_EQ(*r.ReadName(), a);
  EXPECT_EQ(*r.ReadName(), b);
}

TEST(WireNameTest, FullSuffixCompression) {
  WireWriter w;
  Name a = Name::FromString("gov.cn");
  w.WriteName(a);
  size_t first = w.size();
  w.WriteName(a);  // identical name: a bare pointer
  EXPECT_EQ(w.size() - first, 2u);
  WireReader r(w.buffer());
  EXPECT_EQ(*r.ReadName(), a);
  EXPECT_EQ(*r.ReadName(), a);
}

TEST(WireNameTest, PointerLoopRejected) {
  // A pointer that points at itself.
  std::vector<uint8_t> buf = {0xC0, 0x00};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, ForwardPointerRejected) {
  // Pointer to offset 4, beyond its own position.
  std::vector<uint8_t> buf = {0xC0, 0x04, 0, 0, 3, 'c', 'o', 'm', 0};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, ReservedLabelTypeRejected) {
  std::vector<uint8_t> buf = {0x80, 0x01};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, LabelOctetsOutsideAlphabetRejected) {
  // '\0' separates labels in a stored name, so a wire label carrying it
  // (or '.', or any octet >= 0x80) must never decode.
  const std::vector<std::vector<uint8_t>> bad = {
      {3, 'a', 0x00, 'b', 0}, {3, 'a', '.', 'b', 0}, {3, 'a', 0x80, 'b', 0},
      {1, 0xFF, 0},           {1, 0x00, 0},          {2, 'o', 'k', 1, ' ', 0},
  };
  for (const auto& buf : bad) {
    WireReader r(buf);
    EXPECT_FALSE(r.ReadName().ok()) << Hex(buf);
  }
}

TEST(WireNameTest, UppercaseLabelsDecodeLowercased) {
  const std::vector<uint8_t> buf = {3, 'W', 'w', 'W', 3, 'G', 'o', 'V',
                                    2, 'A', 'u', 0,   1, 'X', 0xC0, 4};
  WireReader r(buf);
  auto first = r.ReadName();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(), "www.gov.au");
  EXPECT_EQ(first->CanonicalKey(), std::string("au\0gov\0www", 10));
  auto second = r.ReadName();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToString(), "x.gov.au");
  EXPECT_TRUE(r.AtEnd());
}

// Three 63-octet labels at offset 0 (193 wire octets), then a prefix label
// of `prefix_len` octets pointing at them.
std::vector<uint8_t> NameAcrossPointer(size_t prefix_len) {
  std::vector<uint8_t> buf;
  for (int i = 0; i < 3; ++i) {
    buf.push_back(63);
    buf.insert(buf.end(), 63, static_cast<uint8_t>('a' + i));
  }
  buf.push_back(0);
  buf.push_back(static_cast<uint8_t>(prefix_len));
  buf.insert(buf.end(), prefix_len, 'p');
  buf.push_back(0xC0);
  buf.push_back(0x00);
  return buf;
}

TEST(WireNameTest, LengthLimitHoldsAcrossPointers) {
  {
    const auto buf = NameAcrossPointer(61);  // 62 + 193 = 255 octets
    WireReader r(buf);
    ASSERT_TRUE(r.ReadName().ok());
    auto name = r.ReadName();
    ASSERT_TRUE(name.ok()) << name.status().ToString();
    EXPECT_EQ(name->WireLength(), 255u);
    EXPECT_EQ(name->LabelCount(), 4u);
    EXPECT_TRUE(r.AtEnd());
  }
  {
    const auto buf = NameAcrossPointer(62);  // 63 + 193 = 256 octets
    WireReader r(buf);
    ASSERT_TRUE(r.ReadName().ok());
    EXPECT_FALSE(r.ReadName().ok());
  }
}

// "a" at offset 0, then a chain of `depth` pointers, each pointing at the
// one before it. Returns the buffer; the chain's head is its last 2 octets.
std::vector<uint8_t> PointerChain(int depth) {
  std::vector<uint8_t> buf = {1, 'a', 0};
  size_t prev = 0;
  for (int i = 0; i < depth; ++i) {
    const size_t at = buf.size();
    buf.push_back(static_cast<uint8_t>(0xC0 | (prev >> 8)));
    buf.push_back(static_cast<uint8_t>(prev & 0xFF));
    prev = at;
  }
  return buf;
}

util::StatusOr<Name> ReadChainHead(const std::vector<uint8_t>& buf) {
  WireReader r(buf);
  std::vector<uint8_t> skip(buf.size() - 2);
  GOVDNS_CHECK(r.ReadBytes(skip.data(), skip.size()).ok());
  return r.ReadName();
}

TEST(WireNameTest, PointerDepthLimit) {
  auto at_limit = ReadChainHead(PointerChain(32));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->ToString(), "a");
  EXPECT_FALSE(ReadChainHead(PointerChain(33)).ok());
}

TEST(WireNameTest, SelfAndForwardPointersAfterLabelsRejected) {
  const std::vector<uint8_t> self = {1, 'a', 0xC0, 0x02};
  EXPECT_FALSE(WireReader(self).ReadName().ok());
  const std::vector<uint8_t> forward = {1, 'a', 0xC0, 0x04, 0};
  EXPECT_FALSE(WireReader(forward).ReadName().ok());
  // A backward pointer landing on a forward one is still rejected.
  const std::vector<uint8_t> via = {0xC0, 0x04, 1, 'b', 0xC0, 0x00};
  WireReader r(via);
  std::vector<uint8_t> skip(2);
  ASSERT_TRUE(r.ReadBytes(skip.data(), skip.size()).ok());
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireRecordTest, ARecordRoundTrip) {
  ResourceRecord rr = MakeA(Name::FromString("www.gov.au"),
                            geo::IPv4(192, 0, 2, 1), 3600);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(WireRecordTest, SoaRoundTrip) {
  ResourceRecord rr = MakeSoa(Name::FromString("gov.au"),
                              Name::FromString("ns1.gov.au"),
                              Name::FromString("hostmaster.gov.au"), 42);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(WireRecordTest, TxtRoundTrip) {
  ResourceRecord rr = MakeTxt(Name::FromString("gov.au"), "v=spf1 -all");
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(WireRecordTest, RdlengthMismatchRejected) {
  // A record claiming 5 bytes of A rdata.
  WireWriter w;
  w.WriteName(Name::FromString("x.com"));
  w.WriteU16(1);   // type A
  w.WriteU16(1);   // class IN
  w.WriteU32(60);  // ttl
  w.WriteU16(5);   // WRONG rdlength
  w.WriteU32(0x01020304);
  w.WriteU8(0xFF);
  WireReader r(w.buffer());
  EXPECT_FALSE(r.ReadRecord().ok());
}

// ---------------------------------------------------------------------------
// Pinned encoder bytes
// ---------------------------------------------------------------------------

// A referral with shared suffixes, mixed-case input and name-bearing NS,
// SOA and MX rdata. Pins that compression points at the first emitted
// occurrence of the longest known suffix, and that rdata names compress.
TEST(WireGoldenTest, ReferralMessageBytesPinned) {
  Message m;
  m.header.id = 0x1234;
  m.header.qr = true;
  m.questions.push_back(
      {Name::FromString("WWW.Example.GOV.au"), RRType::kA, RRClass::kIN});
  const Name zone = Name::FromString("example.Gov.AU");
  m.authority.push_back(MakeNs(zone, Name::FromString("NS1.example.gov.au")));
  m.authority.push_back(MakeNs(zone, Name::FromString("ns.Provider.net")));
  m.authority.push_back(MakeSoa(Name::FromString("gov.au"),
                                Name::FromString("ns.gov.au"),
                                Name::FromString("hostmaster.GOV.au"), 2022));
  ResourceRecord mx;
  mx.name = zone;
  mx.ttl = 300;
  mx.rdata = MxRdata{10, Name::FromString("mail.provider.NET")};
  m.additional.push_back(mx);
  m.additional.push_back(
      MakeA(Name::FromString("ns1.example.gov.au"), geo::IPv4(192, 0, 2, 1)));
  ASSERT_TRUE(m.IsReferral());

  const std::vector<uint8_t> wire = m.Encode();
  EXPECT_EQ(Hex(wire),
            "12348000000100000003000203777777076578616d706c6503676f7602617500"
            "00010001c0100002000100000e100006036e7331c010c0100002000100000e10"
            "0011026e730870726f7669646572036e657400c0180006000100000e10002602"
            "6e73c0180a686f73746d6173746572c018000007e600001c2000000384001275"
            "000000012cc010000f00010000012c0009000a046d61696cc045c03000010001"
            "00000e100004c0000201");
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
}

// Only suffixes that start at offset <= 0x3FFF are remembered: a 14-bit
// pointer cannot address anything later.
TEST(WireGoldenTest, PointerOffsetLimitPinned) {
  WireWriter w;
  w.WriteName(Name::FromString("a.gov.au"));  // gov.au at offset 2
  const std::vector<uint8_t> pad(0x3FFF - w.size(), 0);
  w.WriteBytes(pad.data(), pad.size());
  ASSERT_EQ(w.size(), 0x3FFFu);
  w.WriteName(Name::FromString("c.d.gov.au"));    // c at 0x3FFF, d at 0x4001
  w.WriteName(Name::FromString("d.gov.au"));      // d.gov.au was not recorded
  w.WriteName(Name::FromString("c.d.gov.au"));    // pointer to 0x3FFF
  w.WriteName(Name::FromString("x.c.d.gov.au"));  // x not recorded
  w.WriteName(Name::FromString("x.c.d.gov.au"));
  const std::vector<uint8_t>& buf = w.buffer();
  EXPECT_EQ(Hex(buf.data() + 0x3FFF, buf.size() - 0x3FFF),
            "01630164c002"  // c d -> gov.au
            "0164c002"      // d -> gov.au
            "ffff"          // -> c.d.gov.au
            "0178ffff"      // x -> c.d.gov.au
            "0178ffff");    // x -> c.d.gov.au again: x was never recorded
  WireReader r(buf);
  EXPECT_EQ(*r.ReadName(), Name::FromString("a.gov.au"));
  std::vector<uint8_t> skip(pad.size());
  ASSERT_TRUE(r.ReadBytes(skip.data(), skip.size()).ok());
  for (const char* text :
       {"c.d.gov.au", "d.gov.au", "c.d.gov.au", "x.c.d.gov.au", "x.c.d.gov.au"}) {
    auto name = r.ReadName();
    ASSERT_TRUE(name.ok()) << text;
    EXPECT_EQ(*name, Name::FromString(text));
  }
  EXPECT_TRUE(r.AtEnd());
}

// ---------------------------------------------------------------------------
// Whole-message properties
// ---------------------------------------------------------------------------

Message RandomMessage(util::Rng& rng) {
  static const char* kHosts[] = {
      "www.gov.au",   "ns1.gov.cn",        "moe.gov.cn",
      "a.nic.com",    "tim.ns.cloudflare.com", "ns-3.awsdns-01.co.uk",
      "deep.sub.zone.gov.br",
  };
  auto random_name = [&] {
    return Name::FromString(kHosts[rng.UniformU64(std::size(kHosts))]);
  };
  Message m;
  m.header.id = static_cast<uint16_t>(rng.NextU64());
  m.header.qr = rng.Bernoulli(0.5);
  m.header.aa = rng.Bernoulli(0.5);
  m.header.rd = rng.Bernoulli(0.5);
  m.header.rcode = rng.Bernoulli(0.2) ? Rcode::kNxDomain : Rcode::kNoError;
  m.questions.push_back(
      {random_name(), rng.Bernoulli(0.5) ? RRType::kNS : RRType::kA,
       RRClass::kIN});
  auto random_rr = [&]() -> ResourceRecord {
    switch (rng.UniformU64(4)) {
      case 0:
        return MakeA(random_name(),
                     geo::IPv4(static_cast<uint32_t>(rng.NextU64())),
                     static_cast<uint32_t>(rng.UniformU64(86400)));
      case 1:
        return MakeNs(random_name(), random_name());
      case 2:
        return MakeCname(random_name(), random_name());
      default:
        return MakeSoa(random_name(), random_name(), random_name(),
                       static_cast<uint32_t>(rng.NextU64()));
    }
  };
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.answers.push_back(random_rr());
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.authority.push_back(random_rr());
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.additional.push_back(random_rr());
  return m;
}

class MessageRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(MessageRoundTripProperty, EncodeDecodeIdentity) {
  util::Rng rng(GetParam() * 31337);
  for (int i = 0; i < 60; ++i) {
    Message m = RandomMessage(rng);
    auto wire = m.Encode();
    auto decoded = Message::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, m);
  }
}

TEST_P(MessageRoundTripProperty, TruncatedPrefixesNeverCrash) {
  util::Rng rng(GetParam() * 7919);
  Message m = RandomMessage(rng);
  auto wire = m.Encode();
  // Every strict prefix must decode cleanly or fail cleanly — never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto decoded = Message::Decode(wire.data(), len);
    if (decoded.ok()) {
      // Only possible if trailing records were absent; counts must agree.
      auto reencoded = decoded->Encode();
      EXPECT_LE(reencoded.size(), wire.size());
    }
  }
}

TEST_P(MessageRoundTripProperty, BitFlipsNeverCrash) {
  util::Rng rng(GetParam() * 104729);
  Message m = RandomMessage(rng);
  auto wire = m.Encode();
  for (int i = 0; i < 200; ++i) {
    auto corrupted = wire;
    size_t pos = rng.UniformU64(corrupted.size());
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    auto decoded = Message::Decode(corrupted);  // must not crash or hang
    (void)decoded;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTripProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace govdns::dns

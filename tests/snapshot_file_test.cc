// Tests for the GVSN snapshot container (ckpt/snapshot_file.h) and the
// PdnsSnapshot image built on it (pdns/snapshot_io.h): container round-trip
// and every rejection mode (wrong fingerprint/version, truncation, corrupt
// payloads, misaligned sections), the file being byte-for-byte the frozen
// image and its pinned on-disk bytes, kFull's interior walk over crafted
// files whose CRCs are all valid, and the mining byte-identity contract
// across substrates and worker counts. The lookup oracle lives in
// pdns_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "ckpt/snapshot_file.h"
#include "core/mining.h"
#include "dns/name.h"
#include "pdns/db.h"
#include "pdns/snapshot_io.h"
#include "util/status.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;
using dns::Name;
using dns::RRType;
using util::DayFromYmd;

constexpr uint64_t kFingerprint = 0xFEEDFACE12345678ull;

// The file SnapshotFileTest.WrittenBytesArePinned must keep writing.
constexpr size_t kPinnedSize = 830;
constexpr uint32_t kPinnedCrc = 0xd32dcf5e;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_snapfile_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---- container: round trip ------------------------------------------------

TEST(SnapshotContainerTest, RoundTripsSectionsAligned) {
  const std::string dir = TempDir("roundtrip");
  const std::string path = dir + "/snap.gvsn";
  ckpt::SnapshotFileWriter w(/*version=*/7, kFingerprint);
  w.AddSection(1, "alpha");
  w.AddSection(2, std::string(1000, 'x'));
  w.AddSection(9, "");  // empty sections are legal
  ASSERT_TRUE(w.WriteTo(dir, path).ok());

  for (auto validation :
       {ckpt::SnapshotValidation::kFast, ckpt::SnapshotValidation::kFull}) {
    auto view =
        ckpt::SnapshotFileView::Open(path, /*expected_version=*/7,
                                     kFingerprint, validation);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->section_count(), 3u);
    EXPECT_EQ(view->fingerprint(), kFingerprint);
    auto s1 = view->Section(1);
    auto s2 = view->Section(2);
    auto s9 = view->Section(9);
    ASSERT_TRUE(s1.ok() && s2.ok() && s9.ok());
    EXPECT_EQ(*s1, "alpha");
    EXPECT_EQ(*s2, std::string(1000, 'x'));
    EXPECT_EQ(*s9, "");
    EXPECT_FALSE(view->Section(42).ok());  // kNotFound, not UB
    EXPECT_EQ(view->Section(42).status().code(), util::ErrorCode::kNotFound);
  }

  // The read fallback serves identical bytes without mmap.
  auto fallback = ckpt::SnapshotFileView::OpenReadOnly(
      path, 7, kFingerprint, ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->mapped());
  EXPECT_EQ(*fallback->Section(1), "alpha");

  // Non-empty sections start at 64-byte-aligned offsets in the image.
  const std::string image = ReadFile(path);
  EXPECT_NE(image.find("alpha"), std::string::npos);
  EXPECT_EQ(image.find("alpha") % ckpt::kSnapshotSectionAlign, 0u);
  EXPECT_EQ(image.find(std::string(64, 'x')) % ckpt::kSnapshotSectionAlign,
            0u);
  fs::remove_all(dir);
}

// ---- container: rejection modes -------------------------------------------

struct ContainerFixture {
  std::string dir, path, image;

  explicit ContainerFixture(const std::string& tag) {
    dir = TempDir(tag);
    path = dir + "/snap.gvsn";
    ckpt::SnapshotFileWriter w(/*version=*/3, kFingerprint);
    w.AddSection(1, "abc");
    w.AddSection(2, std::string(100, 'y'));
    image = w.Assemble();
    WriteFile(path, image);
  }
  ~ContainerFixture() { fs::remove_all(dir); }

  util::Status Open(uint32_t version = 3, uint64_t fp = kFingerprint) const {
    return ckpt::SnapshotFileView::Open(path, version, fp,
                                        ckpt::SnapshotValidation::kFull)
        .status();
  }
};

TEST(SnapshotContainerTest, RejectsWrongFingerprint) {
  ContainerFixture f("fp");
  EXPECT_TRUE(f.Open().ok());
  auto status = f.Open(3, kFingerprint ^ 1);
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsWrongVersion) {
  ContainerFixture f("ver");
  auto status = f.Open(4);
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsMissingFileAsNotFound) {
  auto status = ckpt::SnapshotFileView::Open(
                    "/nonexistent/snap.gvsn", 3, kFingerprint,
                    ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  ContainerFixture f("trunc");
  // Every truncation point must reject cleanly — header, table, payload.
  for (size_t keep : {size_t(0), size_t(10), size_t(31), size_t(40),
                      ckpt::kSnapshotHeaderSize + 2 * 32 + 5,
                      f.image.size() - 1}) {
    WriteFile(f.path, f.image.substr(0, keep));
    auto status = f.Open();
    EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss) << "keep=" << keep;
  }
}

TEST(SnapshotContainerTest, RejectsCorruptMagicAndHeader) {
  ContainerFixture f("magic");
  std::string bad = f.image;
  bad[0] = 'X';  // magic
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);

  bad = f.image;
  bad[13] ^= 0x40;  // section count, caught by the header CRC
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsCorruptTable) {
  ContainerFixture f("table");
  std::string bad = f.image;
  bad[ckpt::kSnapshotHeaderSize + 8] ^= 0x01;  // section 1's offset
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, FullValidationCatchesPayloadCorruption) {
  ContainerFixture f("payload");
  std::string bad = f.image;
  bad[bad.size() - 1] ^= 0x01;  // inside the last section's payload
  WriteFile(f.path, bad);
  // kFast trusts payload bytes (O(1) open contract) ...
  EXPECT_TRUE(ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                           ckpt::SnapshotValidation::kFast)
                  .ok());
  // ... kFull walks every payload CRC and rejects.
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

// Re-stamps the table CRC (header offset 24) and header CRC (offset 28)
// after tampering with table bytes, so the tampered field itself — not a
// CRC mismatch — must trigger the rejection.
void RestampCrcs(std::string* image, size_t table_bytes) {
  const uint32_t table_crc =
      ckpt::Crc32({image->data() + ckpt::kSnapshotHeaderSize, table_bytes});
  std::memcpy(image->data() + 24, &table_crc, 4);
  const uint32_t header_crc = ckpt::Crc32({image->data(), 28});
  std::memcpy(image->data() + 28, &header_crc, 4);
}

TEST(SnapshotContainerTest, RejectsMisalignedSectionOffset) {
  ContainerFixture f("misalign");
  std::string bad = f.image;
  // Section 1 ("abc", 3 bytes at offset 96 with 61 bytes of padding after):
  // shift its offset by 8 — still in bounds, no longer 64-byte aligned.
  uint64_t off = 0;
  std::memcpy(&off, bad.data() + ckpt::kSnapshotHeaderSize + 8, 8);
  off += 8;
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize + 8, &off, 8);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsOutOfBoundsSection) {
  ContainerFixture f("oob");
  std::string bad = f.image;
  uint64_t len = 1 << 20;  // far past EOF
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize + 16, &len, 8);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsDuplicateSectionIds) {
  ContainerFixture f("dup");
  std::string bad = f.image;
  // Rewrite section 2's id to 1.
  const uint32_t one = 1;
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize +
                  ckpt::kSnapshotTableEntrySize,
              &one, 4);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

// ---- pdns snapshot: the file is the frozen image -------------------------

// A deterministic pseudo-random government namespace: a few hundred owners
// under two ccTLD seeds with NS/A/CNAME records across the study years.
pdns::PdnsDatabase RandomDatabase(uint32_t seed) {
  std::mt19937 rng(seed);
  pdns::PdnsDatabase db(/*merge_gap_days=*/30);
  const std::vector<std::string> tlds = {"gov.xx", "gov.yy"};
  const std::vector<std::string> hosts = {"www",  "mail", "portal", "moe",
                                          "mof",  "city", "health", "tax",
                                          "stat", "reg"};
  const std::vector<std::string> ns_pool = {
      "ns1.provider-a.net", "ns2.provider-a.net", "ns1.provider-b.org",
      "dns.local.gov.xx",   "dns.local.gov.yy"};
  std::uniform_int_distribution<int> tld_d(0, int(tlds.size()) - 1);
  std::uniform_int_distribution<int> host_d(0, int(hosts.size()) - 1);
  std::uniform_int_distribution<int> depth_d(0, 2);
  std::uniform_int_distribution<int> ns_d(0, int(ns_pool.size()) - 1);
  std::uniform_int_distribution<int> year_d(2011, 2020);
  std::uniform_int_distribution<int> day_d(1, 27);
  std::uniform_int_distribution<int> span_d(0, 400);
  std::uniform_int_distribution<int> type_d(0, 3);

  for (int i = 0; i < 400; ++i) {
    Name owner = Name::FromString(tlds[tld_d(rng)]);
    const int depth = depth_d(rng);
    for (int d = 0; d < depth; ++d) owner = owner.Child(hosts[host_d(rng)]);
    const auto first = DayFromYmd(year_d(rng), 1 + (i % 12), day_d(rng));
    const util::DayInterval seen{first, first + span_d(rng)};
    switch (type_d(rng)) {
      case 0:
      case 1:  // NS-heavy, like the real corpus
        db.ObserveInterval(owner, RRType::kNS, ns_pool[ns_d(rng)], seen);
        break;
      case 2:
        db.ObserveInterval(owner, RRType::kA, "192.0.2." + std::to_string(i % 250),
                           seen);
        break;
      default:
        db.ObserveInterval(owner, RRType::kCNAME, "cdn.provider-a.net", seen);
        break;
    }
  }
  return db;
}

struct PdnsFileFixture {
  std::string dir, path;
  pdns::PdnsSnapshot frozen;

  explicit PdnsFileFixture(const std::string& tag, uint32_t seed = 1234) {
    dir = TempDir(tag);
    path = dir + "/pdns.gvsn";
    frozen = RandomDatabase(seed).Freeze();
    auto status =
        pdns::WritePdnsSnapshotFile(frozen, kFingerprint, dir, path);
    GOVDNS_CHECK(status.ok());
  }
  ~PdnsFileFixture() { fs::remove_all(dir); }
};

TEST(SnapshotFileTest, FileSectionsAreTheFrozenImage) {
  PdnsFileFixture f("image");
  auto mapped = pdns::PdnsSnapshot::Open(f.path, kFingerprint,
                                         ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (uint32_t id = pdns::kSecPdnsMeta; id <= pdns::kSecPdnsRdata; ++id) {
    EXPECT_EQ(mapped->section(id), f.frozen.section(id)) << "section " << id;
  }
  // A move keeps the bound views valid: the owned image does not relocate.
  const std::string_view keys = f.frozen.section(pdns::kSecPdnsNameKeys);
  const pdns::PdnsSnapshot moved = std::move(f.frozen);
  EXPECT_EQ(moved.section(pdns::kSecPdnsNameKeys).data(), keys.data());
  EXPECT_EQ(moved.section(pdns::kSecPdnsNameKeys),
            mapped->section(pdns::kSecPdnsNameKeys));
}

// A fixed, hand-built database whose GVSN file must never change: its size
// and CRC come from the format's original writer, so any drift in section
// layout, key encoding, entry packing or rdata dedup order — anything that
// would strand existing files — fails here.
TEST(SnapshotFileTest, WrittenBytesArePinned) {
  pdns::PdnsDatabase db(/*merge_gap_days=*/30);
  const Name gov_xx = Name::FromString("gov.xx");
  const Name health = Name::FromString("health.gov.xx");
  db.ObserveInterval(gov_xx, RRType::kNS, "ns1.gov.xx", {100, 400});
  db.ObserveInterval(gov_xx, RRType::kNS, "ns2.provider.net", {150, 900}, 2);
  db.ObserveInterval(Name::FromString("www.gov.xx"), RRType::kA, "192.0.2.1",
                     {200, 210});
  db.ObserveInterval(health, RRType::kNS, "ns2.provider.net", {300, 1300});
  db.ObserveInterval(health, RRType::kNS, "ns2.provider.net", {1500, 1600});
  db.ObserveInterval(Name::FromString("xgov.xx"), RRType::kCNAME,
                     "cdn.provider.net", {50, 60});
  db.Observe(Name::FromString("gov.yy"), RRType::kMX, "mail.gov.yy", 77, 3);

  const std::string dir = TempDir("pinned");
  const std::string path = dir + "/pdns.gvsn";
  ASSERT_TRUE(
      pdns::WritePdnsSnapshotFile(db.Freeze(), kFingerprint, dir, path).ok());
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(bytes.size(), kPinnedSize);
  EXPECT_EQ(ckpt::Crc32(bytes), kPinnedCrc);
  fs::remove_all(dir);
}

// Writes the fixture's sections back through SnapshotFileWriter with
// section `id` edited, so every CRC is valid and only kFull's interior walk
// can tell the file is corrupt; returns the code of opening it under kFull.
util::ErrorCode OpenCrafted(const std::string& tag, uint32_t id,
                            const std::function<void(std::string&)>& edit) {
  PdnsFileFixture f(tag);
  auto view = ckpt::SnapshotFileView::Open(
      f.path, pdns::kPdnsSnapshotFormatVersion, kFingerprint,
      ckpt::SnapshotValidation::kFull);
  GOVDNS_CHECK(view.ok());
  ckpt::SnapshotFileWriter w(pdns::kPdnsSnapshotFormatVersion, kFingerprint);
  for (uint32_t s = pdns::kSecPdnsMeta; s <= pdns::kSecPdnsRdata; ++s) {
    std::string bytes(*view->Section(s));
    if (s == id) edit(bytes);
    w.AddSection(s, std::move(bytes));
  }
  WriteFile(f.path, w.Assemble());
  return pdns::PdnsSnapshot::Open(f.path, kFingerprint,
                                  ckpt::SnapshotValidation::kFull)
      .status()
      .code();
}

// Overwrites the first entry's field at `offset` with `value`.
template <typename T>
std::function<void(std::string&)> PokeFirstEntry(size_t offset, T value) {
  return [=](std::string& b) {
    std::memcpy(b.data() + offset, &value, sizeof value);
  };
}

TEST(SnapshotFileTest, FullValidationRejectsRdataOutsideItsSection) {
  EXPECT_EQ(OpenCrafted("craft_rdata", pdns::kSecPdnsEntries,
                        PokeFirstEntry(offsetof(pdns::RawPdnsEntry, rdata_off),
                                       uint64_t{1} << 40)),
            util::ErrorCode::kDataLoss);
}

TEST(SnapshotFileTest, FullValidationRejectsUnknownRRType) {
  EXPECT_EQ(OpenCrafted("craft_type", pdns::kSecPdnsEntries,
                        PokeFirstEntry(offsetof(pdns::RawPdnsEntry, type),
                                       uint32_t{999})),
            util::ErrorCode::kDataLoss);
}

TEST(SnapshotFileTest, FullValidationRejectsNonMonotonicEntryFenceposts) {
  // Swapping fenceposts 1 and 2 (where owners 0 and 1 end) leaves both in
  // range but out of order.
  EXPECT_EQ(OpenCrafted("craft_fence", pdns::kSecPdnsEntryOffsets,
                        [](std::string& b) {
                          std::swap_ranges(b.begin() + 8, b.begin() + 16,
                                           b.begin() + 16);
                        }),
            util::ErrorCode::kDataLoss);
}

TEST(SnapshotFileTest, FullValidationRejectsBadNameKey) {
  // A leading NUL makes the first key's rightmost label empty.
  EXPECT_EQ(OpenCrafted("craft_key", pdns::kSecPdnsNameKeys,
                        [](std::string& b) { b[0] = '\0'; }),
            util::ErrorCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsWrongFingerprintTruncationAndCorruption) {
  PdnsFileFixture f("reject");
  auto open_full = [](const std::string& path, uint64_t fingerprint) {
    return pdns::PdnsSnapshot::Open(path, fingerprint,
                                    ckpt::SnapshotValidation::kFull);
  };
  EXPECT_FALSE(pdns::PdnsSnapshot::Open(f.path, kFingerprint ^ 1).ok());
  EXPECT_FALSE(open_full(f.path, kFingerprint ^ 1).ok());

  const std::string image = ReadFile(f.path);
  const std::string tampered_path = f.dir + "/tampered.gvsn";
  for (size_t keep :
       {size_t(0), size_t(16), image.size() / 2, image.size() - 3}) {
    WriteFile(tampered_path, image.substr(0, keep));
    EXPECT_FALSE(pdns::PdnsSnapshot::Open(tampered_path, kFingerprint).ok())
        << "keep=" << keep;
    EXPECT_FALSE(open_full(tampered_path, kFingerprint).ok());
  }

  // Flip one byte inside every section payload (extents read straight from
  // the section table; inter-section padding is deliberately excluded — no
  // CRC covers it). kFull validation must reject every one.
  std::mt19937 rng(7);
  uint32_t section_count = 0;
  std::memcpy(&section_count, image.data() + 12, 4);
  ASSERT_EQ(section_count, 6u);
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry =
        image.data() + ckpt::kSnapshotHeaderSize + i * ckpt::kSnapshotTableEntrySize;
    uint64_t off = 0, len = 0;
    std::memcpy(&off, entry + 8, 8);
    std::memcpy(&len, entry + 16, 8);
    if (len == 0) continue;
    std::uniform_int_distribution<uint64_t> pos_d(off, off + len - 1);
    std::string bad = image;
    bad[pos_d(rng)] ^= 0x20;
    WriteFile(tampered_path, bad);
    EXPECT_FALSE(open_full(tampered_path, kFingerprint).ok()) << "section " << i;
  }
}

// ---- pdns snapshot: mining identity ---------------------------------------

TEST(SnapshotFileTest, MiningIsByteIdenticalAcrossSubstratesAndWorkers) {
  PdnsFileFixture f("mine");
  pdns::PdnsDatabase db = RandomDatabase(1234);  // same seed as the fixture
  const std::vector<core::SeedDomain> seeds = {
      {0, Name::FromString("gov.xx"), core::SeedVerification::kRegistryPolicy,
       false},
      {1, Name::FromString("gov.yy"), core::SeedVerification::kRegistryPolicy,
       false}};
  core::MiningConfig config;

  core::PdnsMiner db_miner(&db, config);
  const auto baseline = db_miner.Mine(seeds);
  EXPECT_GT(baseline.domains.size(), 0u);

  auto mapped = pdns::PdnsSnapshot::Open(f.path, kFingerprint,
                                         ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(mapped.ok());

  for (int workers : {1, 4}) {
    core::MinerOptions opts;
    opts.workers = workers;
    core::PdnsMiner miner(config, opts);
    EXPECT_EQ(miner.MineSnapshot(f.frozen, seeds), baseline)
        << "frozen w=" << workers;
    EXPECT_EQ(miner.MineSnapshot(*mapped, seeds), baseline)
        << "mapped w=" << workers;
  }
}

}  // namespace
}  // namespace govdns

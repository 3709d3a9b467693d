// Relocatable, offset-indexed, checksummed snapshot container (DESIGN.md
// §6i): the generic file format under the PdnsSnapshot image.
//
// Layout (all integers little-endian, fixed width — never varint, so a
// mapped reader needs zero decoding):
//
//   header (32 bytes):
//     magic "GVSN" | endian u32 (0x01020304) | format version u32 |
//     section count u32 | fingerprint u64 | table crc u32 | header crc u32
//   section table (32 bytes per section):
//     section id u32 | reserved u32 (0) | file offset u64 | length u64 |
//     payload crc u32 | reserved u32 (0)
//   section payloads, each starting at a 64-byte-aligned file offset,
//   zero-padded between sections.
//
// Relocatable: every pointer in the file is a file offset, never an
// address, so the bytes are valid at whatever address mmap chooses.
// Checksummed: header and table CRCs are always verified on open (O(1));
// per-section payload CRCs are stored always but verified only under
// kFull validation — verifying them is O(file size) and would defeat the
// O(1) mapped-open guarantee, so the fast path trusts the kernel's page
// cache and the atomic-rename publish protocol instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace govdns::ckpt {

inline constexpr uint32_t kSnapshotEndianMarker = 0x01020304u;
inline constexpr size_t kSnapshotHeaderSize = 32;
inline constexpr size_t kSnapshotTableEntrySize = 32;
inline constexpr size_t kSnapshotSectionAlign = 64;

// Accumulates sections in memory, then publishes the file atomically
// (tmp + fsync + rename + dir fsync, shared with the GVCK journal).
class SnapshotFileWriter {
 public:
  // `version` is the caller's payload format version (bumped when section
  // contents change shape); `fingerprint` is the world/config identity a
  // reader must present to open the file.
  SnapshotFileWriter(uint32_t version, uint64_t fingerprint)
      : version_(version), fingerprint_(fingerprint) {}

  // Section ids must be unique per file; order of addition is preserved.
  void AddSection(uint32_t id, std::string bytes);

  // Assembles header + table + aligned payloads and writes `path`
  // durably/atomically. `dir` is the directory containing `path`.
  util::Status WriteTo(const std::string& dir, const std::string& path) const;

  // The assembled file image (for tests and in-memory round-trips).
  std::string Assemble() const;

 private:
  uint32_t version_;
  uint64_t fingerprint_;
  std::vector<std::pair<uint32_t, std::string>> sections_;
};

enum class SnapshotValidation {
  kFast,  // header + section table CRCs, bounds, alignment — O(1)
  kFull,  // kFast plus every section payload CRC — O(file size)
};

// Read-only view over an opened snapshot file. Owns the mapping; section
// views point into it, so the view must outlive every string_view it hands
// out.
class SnapshotFileView {
 public:
  // Validates the container against the expected identity. Every failure is
  // a clean kDataLoss (kNotFound for a missing file), never UB: bounds,
  // alignment, duplicate ids, and CRCs are all checked before any section
  // is served.
  static util::StatusOr<SnapshotFileView> Open(const std::string& path,
                                               uint32_t expected_version,
                                               uint64_t expected_fingerprint,
                                               SnapshotValidation validation);

  // As Open but never mmaps (always the read fallback) — for benchmarks and
  // filesystems without mmap.
  static util::StatusOr<SnapshotFileView> OpenReadOnly(
      const std::string& path, uint32_t expected_version,
      uint64_t expected_fingerprint, SnapshotValidation validation);

  // The payload bytes of section `id`; kNotFound if the file has no such
  // section. The returned view is 64-byte aligned relative to the file
  // start (and to the mapping, since mmap returns page-aligned addresses).
  util::StatusOr<std::string_view> Section(uint32_t id) const;

  size_t section_count() const { return sections_.size(); }
  // True when served by an actual mmap rather than the read fallback.
  bool mapped() const { return file_.mapped(); }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  static util::StatusOr<SnapshotFileView> Validate(
      util::MappedFile file, const std::string& path, uint32_t expected_version,
      uint64_t expected_fingerprint, SnapshotValidation validation);

  struct SectionRef {
    uint32_t id = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  util::MappedFile file_;
  uint64_t fingerprint_ = 0;
  std::vector<SectionRef> sections_;
};

}  // namespace govdns::ckpt

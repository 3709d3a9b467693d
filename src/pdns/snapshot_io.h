// The frozen PDNS snapshot: one flat image, the same bytes in memory and on
// disk.
//
// A snapshot is six GVSN sections (ckpt/snapshot_file.h) — counts, canonical
// name keys, name-key fenceposts, per-owner entry fenceposts, packed
// fixed-width entry records, and the deduplicated rdata blob — all indexed
// by 64-bit offsets. PdnsDatabase::Freeze() lowers its map straight into
// those sections inside one owned, 64-byte-aligned buffer;
// PdnsSnapshot::Open binds the very same view fields over a mmapped GVSN
// file with zero parsing (open cost is O(1) in world size). Either way,
// names binary-search as raw canonical keys and entries come out as
// non-owning PdnsEntryView records, and WritePdnsSnapshotFile writes the
// frozen sections as they lie, so the file IS the frozen image.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "ckpt/snapshot_file.h"
#include "dns/name.h"
#include "pdns/db.h"
#include "util/status.h"

namespace govdns::pdns {

// Bumped when the section shapes below change; openers reject other
// versions before touching any payload.
inline constexpr uint32_t kPdnsSnapshotFormatVersion = 1;

// Section ids inside the GVSN container.
inline constexpr uint32_t kSecPdnsMeta = 1;         // counts (varint codec)
inline constexpr uint32_t kSecPdnsNameKeys = 2;     // concatenated keys
inline constexpr uint32_t kSecPdnsNameOffsets = 3;  // (names+1) x u64
inline constexpr uint32_t kSecPdnsEntryOffsets = 4; // (names+1) x u64
inline constexpr uint32_t kSecPdnsEntries = 5;      // entries x RawPdnsEntry
inline constexpr uint32_t kSecPdnsRdata = 6;        // concatenated rdata

// One entry as it lies in the image: fixed width, natural alignment, rdata
// referenced by offset into the rdata section. 32 bytes so four entries
// share a cache line during subtree scans.
struct RawPdnsEntry {
  uint64_t rdata_off = 0;
  uint32_t rdata_len = 0;
  uint32_t type = 0;  // dns::RRType
  int32_t seen_first = 0;
  int32_t seen_last = 0;
  uint64_t count = 0;
};
static_assert(sizeof(RawPdnsEntry) == 32, "file format is 32-byte entries");

// Immutable flat-index view of a PDNS database. Owner names sit in
// canonical order (which clusters a suffix's subtree into a contiguous run)
// and entries are grouped by owner, so a wildcard search is two binary
// searches plus a contiguous scan. Later Observe() calls on the source
// database do not affect a snapshot. Move-only; the bound views survive a
// move because neither the owned buffer nor the mapping relocates.
class PdnsSnapshot {
 public:
  // The empty snapshot: what freezing an empty database yields.
  PdnsSnapshot();

  // O(1) open: container CRCs, section bounds and fencepost boundaries
  // only. kFull also verifies every payload CRC and walks the interior in
  // O(file size) — fenceposts monotonic, name keys parseable and strictly
  // increasing, entry types known, every rdata extent inside the rdata
  // section — so a file it accepts can be served without trusting its
  // writer. Every failure is kDataLoss (kNotFound for a missing file).
  static util::StatusOr<PdnsSnapshot> Open(
      const std::string& path, uint64_t fingerprint,
      ckpt::SnapshotValidation validation = ckpt::SnapshotValidation::kFast);

  size_t name_count() const { return name_count_; }
  size_t entry_count() const { return entry_count_; }
  // True when served by an actual mmap (not a frozen image or the read
  // fallback).
  bool mapped() const { return view_.mapped(); }

  // Payload bytes of section `id` (kSecPdnsMeta..kSecPdnsRdata), exactly as
  // a GVSN file stores them.
  std::string_view section(uint32_t id) const;

  // Raw canonical key of name i (dns::Name::CanonicalKey bytes).
  std::string_view name_key(size_t i) const {
    return keys_.substr(name_offsets_[i],
                        name_offsets_[i + 1] - name_offsets_[i]);
  }
  // Materializes name i.
  dns::Name name(size_t i) const;

  // Iterable range of PdnsEntryView over a run of entries.
  class EntryRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PdnsEntryView;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PdnsEntryView;

      Iterator(const RawPdnsEntry* raw, std::string_view rdata)
          : raw_(raw), rdata_(rdata) {}
      PdnsEntryView operator*() const;
      Iterator& operator++() {
        ++raw_;
        return *this;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.raw_ == b.raw_;
      }

     private:
      const RawPdnsEntry* raw_;
      std::string_view rdata_;
    };

    EntryRange(const RawPdnsEntry* begin, const RawPdnsEntry* end,
               std::string_view rdata)
        : begin_(begin), end_(end), rdata_(rdata) {}
    Iterator begin() const { return {begin_, rdata_}; }
    Iterator end() const { return {end_, rdata_}; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

   private:
    const RawPdnsEntry* begin_;
    const RawPdnsEntry* end_;
    std::string_view rdata_;
  };

  // Entries owned by name(i), in the source database's per-owner order.
  EntryRange entries(size_t i) const { return EntriesInNameRange(i, i + 1); }

  // Every entry of every owner in the name-index range [lo, hi), as one
  // flat run — the per-owner grouping collapsed. This is the substrate of
  // the miner's intern pre-pass (DESIGN.md §6j), which only needs each
  // entry's (type, rdata, seen) and not which owner it belongs to.
  EntryRange EntriesInNameRange(size_t lo, size_t hi) const {
    return {raw_entries_ + entry_offsets_[lo],
            raw_entries_ + entry_offsets_[hi], rdata_};
  }

  // Owner-index half-open range [lo, hi) of names equal to or under
  // `suffix`, by binary search over the raw keys. Valid because canonical
  // order keeps the subtree contiguous: any name >= suffix that is not in
  // the subtree differs from suffix in one of its rightmost
  // LabelCount(suffix) labels and therefore sorts after every subtree
  // member.
  std::pair<size_t, size_t> WildcardNameRange(const dns::Name& suffix) const;

  // Allocation-free wildcard search: invokes `visit(entry)` for every
  // subtree entry matching `query`, in canonical order.
  template <typename Visitor>
  void VisitWildcard(const dns::Name& suffix, const Query& query,
                     Visitor&& visit) const {
    const auto [lo, hi] = WildcardNameRange(suffix);
    for (const PdnsEntryView entry : EntriesInNameRange(lo, hi)) {
      if (EntryMatches(entry, query)) visit(entry);
    }
  }

 private:
  friend class PdnsDatabase;  // Freeze() builds the image

  struct AlignedDelete {
    void operator()(char* p) const;
  };
  // Section payloads, indexed by section id - 1.
  using Sections = std::array<std::string_view, kSecPdnsRdata>;

  // Copies `parts` into one owned buffer laid out as a GVSN file lays out
  // its sections, and binds the view over it.
  static PdnsSnapshot FromImage(const Sections& parts);
  static util::StatusOr<PdnsSnapshot> FromView(
      ckpt::SnapshotFileView view, const std::string& path,
      ckpt::SnapshotValidation validation);
  // Binds the view fields over `sections`, checking what O(1) can.
  util::Status Bind(const Sections& sections, const std::string& path);
  // The O(file size) interior walk behind SnapshotValidation::kFull.
  util::Status CheckInterior(const std::string& path) const;

  // At most one of these holds the bytes (neither for the empty snapshot).
  ckpt::SnapshotFileView view_;                 // opened from a file
  std::unique_ptr<char, AlignedDelete> image_;  // frozen in memory
  Sections sections_;
  size_t name_count_ = 0;
  size_t entry_count_ = 0;
  std::string_view keys_;
  // 64-bit fenceposts, deliberately: a uint32_t index here silently wraps
  // once a swept-up world crosses 4Gi entries — the same truncation class
  // the ckpt serializer fixed (serial.h).
  const uint64_t* name_offsets_ = nullptr;   // name_count_ + 1
  const uint64_t* entry_offsets_ = nullptr;  // name_count_ + 1
  const RawPdnsEntry* raw_entries_ = nullptr;
  std::string_view rdata_;
};

// perfbench/bench.cc still spells the file-backed name, and the benchmark
// harness changes only together with its baseline.
using MappedPdnsSnapshot = PdnsSnapshot;

// Publishes the snapshot's sections atomically (tmp + fsync + rename) at
// `path` inside directory `dir`. `fingerprint` is the world/config identity
// readers must present.
util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                   uint64_t fingerprint,
                                   const std::string& dir,
                                   const std::string& path);

}  // namespace govdns::pdns

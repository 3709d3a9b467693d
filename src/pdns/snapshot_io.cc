#include "pdns/snapshot_io.h"

#include <bit>
#include <cstring>
#include <new>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ckpt/serial.h"
#include "dns/rr.h"

namespace govdns::pdns {

namespace {

constexpr std::align_val_t kImageAlign{ckpt::kSnapshotSectionAlign};

util::Status Corrupt(const std::string& path, const std::string& what) {
  return util::DataLossError("pdns snapshot " + path + ": " + what);
}

bool KnownRRType(uint32_t t) {
  switch (static_cast<dns::RRType>(t)) {
    case dns::RRType::kA:
    case dns::RRType::kNS:
    case dns::RRType::kCNAME:
    case dns::RRType::kSOA:
    case dns::RRType::kPTR:
    case dns::RRType::kMX:
    case dns::RRType::kTXT:
    case dns::RRType::kAAAA:
      return true;
  }
  return false;
}

template <typename T>
std::string_view Bytes(const std::vector<T>& values) {
  return {reinterpret_cast<const char*>(values.data()),
          values.size() * sizeof(T)};
}

}  // namespace

PdnsSnapshot PdnsDatabase::Freeze() const {
  // The map iterates in canonical order and each owner's entries keep their
  // order, so the image's searches are entry-for-entry the map-backed ones.
  std::string keys;
  std::vector<uint64_t> name_offsets, entry_offsets;
  name_offsets.reserve(by_name_.size() + 1);
  entry_offsets.reserve(by_name_.size() + 1);
  name_offsets.push_back(0);
  entry_offsets.push_back(0);
  std::vector<RawPdnsEntry> raw;
  raw.reserve(entry_count_);
  // rdata strings repeat heavily (one NS host serves many zones), so the
  // blob stores each distinct string once, first appearance first —
  // deterministic, and typically shrinks the image severalfold.
  std::string rdata;
  std::unordered_map<std::string_view, uint64_t> rdata_at;
  rdata_at.reserve(entry_count_);  // never rehash mid-freeze
  for (const auto& [name, entries] : by_name_) {
    keys += name.CanonicalKey();
    name_offsets.push_back(keys.size());
    for (const PdnsEntry& entry : entries) {
      const auto [it, inserted] = rdata_at.emplace(entry.rdata, rdata.size());
      if (inserted) rdata += entry.rdata;
      raw.push_back({it->second, static_cast<uint32_t>(entry.rdata.size()),
                     static_cast<uint32_t>(entry.type), entry.seen.first,
                     entry.seen.last, entry.count});
    }
    entry_offsets.push_back(raw.size());
  }
  ckpt::Writer meta;
  meta.Size(by_name_.size());
  meta.Size(raw.size());
  const std::string meta_bytes = std::move(meta).Take();
  return PdnsSnapshot::FromImage({meta_bytes, keys, Bytes(name_offsets),
                                  Bytes(entry_offsets), Bytes(raw), rdata});
}

void PdnsSnapshot::AlignedDelete::operator()(char* p) const {
  ::operator delete(p, kImageAlign);
}

PdnsSnapshot::PdnsSnapshot() {
  // The image of an empty database, in static storage: two zero counts and
  // one zero fencepost per fencepost section.
  alignas(uint64_t) static constexpr char kZeroFencepost[sizeof(uint64_t)] = {};
  static constexpr char kZeroCounts[2] = {};
  const std::string_view fence(kZeroFencepost, sizeof kZeroFencepost);
  GOVDNS_CHECK(Bind({std::string_view(kZeroCounts, sizeof kZeroCounts), {},
                     fence, fence, {}, {}},
                    "(empty)")
                   .ok());
}

PdnsSnapshot PdnsSnapshot::FromImage(const Sections& parts) {
  // Section i starts at a 64-byte-aligned offset, exactly as in a GVSN file
  // (whose header and table also end on a 64-byte boundary), so the typed
  // views Bind makes are as aligned as over a mapping.
  std::array<size_t, std::tuple_size_v<Sections>> offset;
  size_t size = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    offset[i] = (size + ckpt::kSnapshotSectionAlign - 1) /
                ckpt::kSnapshotSectionAlign * ckpt::kSnapshotSectionAlign;
    size = offset[i] + parts[i].size();
  }
  PdnsSnapshot snap;
  snap.image_.reset(static_cast<char*>(::operator new(size, kImageAlign)));
  Sections sections;
  for (size_t i = 0; i < parts.size(); ++i) {
    char* dst = snap.image_.get() + offset[i];
    if (!parts[i].empty()) std::memcpy(dst, parts[i].data(), parts[i].size());
    sections[i] = {dst, parts[i].size()};
  }
  GOVDNS_CHECK(snap.Bind(sections, "(frozen)").ok());
  return snap;
}

util::StatusOr<PdnsSnapshot> PdnsSnapshot::Open(
    const std::string& path, uint64_t fingerprint,
    ckpt::SnapshotValidation validation) {
  auto view = ckpt::SnapshotFileView::Open(path, kPdnsSnapshotFormatVersion,
                                           fingerprint, validation);
  if (!view.ok()) return view.status();
  return FromView(*std::move(view), path, validation);
}

util::StatusOr<PdnsSnapshot> PdnsSnapshot::FromView(
    ckpt::SnapshotFileView view, const std::string& path,
    ckpt::SnapshotValidation validation) {
  if (std::endian::native != std::endian::little) {
    return util::InternalError(
        "snapshot files are little-endian; this host is not");
  }
  Sections sections;
  for (uint32_t id = kSecPdnsMeta; id <= kSecPdnsRdata; ++id) {
    auto section = view.Section(id);
    if (!section.ok()) return section.status();
    sections[id - 1] = *section;
  }
  PdnsSnapshot out;
  if (util::Status s = out.Bind(sections, path); !s.ok()) return s;
  if (validation == ckpt::SnapshotValidation::kFull) {
    if (util::Status s = out.CheckInterior(path); !s.ok()) return s;
  }
  // The mapping does not move with the view, so the bound fields stay valid.
  out.view_ = std::move(view);
  return out;
}

util::Status PdnsSnapshot::Bind(const Sections& sections,
                                const std::string& path) {
  ckpt::Reader r(sections[kSecPdnsMeta - 1]);
  uint64_t name_count = 0, entry_count = 0;
  if (!r.Size(&name_count) || !r.Size(&entry_count) || !r.AtEnd()) {
    return Corrupt(path, "bad meta section");
  }
  const std::string_view keys = sections[kSecPdnsNameKeys - 1];
  const std::string_view name_off = sections[kSecPdnsNameOffsets - 1];
  const std::string_view entry_off = sections[kSecPdnsEntryOffsets - 1];
  const std::string_view entry_bytes = sections[kSecPdnsEntries - 1];
  const uint64_t fenceposts = name_count + 1;
  if (fenceposts == 0 || name_off.size() / sizeof(uint64_t) != fenceposts ||
      name_off.size() % sizeof(uint64_t) != 0 ||
      entry_off.size() != name_off.size()) {
    return Corrupt(path, "fencepost section size mismatch");
  }
  if (entry_bytes.size() / sizeof(RawPdnsEntry) != entry_count ||
      entry_bytes.size() % sizeof(RawPdnsEntry) != 0) {
    return Corrupt(path, "entry section size mismatch");
  }
  // Sections start 64-byte aligned (the container checks; FromImage lays
  // them out so), so these casts honor the types' natural alignment.
  const auto* name_offsets = reinterpret_cast<const uint64_t*>(name_off.data());
  const auto* entry_offsets =
      reinterpret_cast<const uint64_t*>(entry_off.data());
  // O(1) boundary checks always; the interior is CheckInterior's (kFull).
  if (name_offsets[0] != 0 || name_offsets[name_count] != keys.size() ||
      entry_offsets[0] != 0 || entry_offsets[name_count] != entry_count) {
    return Corrupt(path, "fencepost boundaries inconsistent");
  }
  sections_ = sections;
  name_count_ = static_cast<size_t>(name_count);
  entry_count_ = static_cast<size_t>(entry_count);
  keys_ = keys;
  name_offsets_ = name_offsets;
  entry_offsets_ = entry_offsets;
  raw_entries_ = reinterpret_cast<const RawPdnsEntry*>(entry_bytes.data());
  rdata_ = sections[kSecPdnsRdata - 1];
  return util::Status::Ok();
}

util::Status PdnsSnapshot::CheckInterior(const std::string& path) const {
  for (size_t i = 0; i < name_count_; ++i) {
    if (name_offsets_[i] > name_offsets_[i + 1] ||
        entry_offsets_[i] > entry_offsets_[i + 1]) {
      return Corrupt(path, "fenceposts not monotonic");
    }
  }
  // Monotonic between checked boundaries, so every key is in range.
  for (size_t i = 0; i < name_count_; ++i) {
    const auto name = dns::Name::FromCanonicalKey(name_key(i));
    if (!name.ok()) {
      return Corrupt(path, "bad name key: " + name.status().ToString());
    }
    if (i > 0 && !(name_key(i - 1) < name_key(i))) {
      return Corrupt(path, "name keys not strictly increasing");
    }
  }
  for (size_t e = 0; e < entry_count_; ++e) {
    const RawPdnsEntry& raw = raw_entries_[e];
    if (!KnownRRType(raw.type)) return Corrupt(path, "bad rrtype in entry");
    if (raw.rdata_off > rdata_.size() ||
        raw.rdata_len > rdata_.size() - raw.rdata_off) {
      return Corrupt(path, "entry rdata outside the rdata section");
    }
    if (raw.seen_first > raw.seen_last) {
      return Corrupt(path, "entry seen interval inverted");
    }
  }
  return util::Status::Ok();
}

std::string_view PdnsSnapshot::section(uint32_t id) const {
  GOVDNS_CHECK(id >= kSecPdnsMeta && id <= kSecPdnsRdata);
  return sections_[id - 1];
}

dns::Name PdnsSnapshot::name(size_t i) const {
  auto parsed = dns::Name::FromCanonicalKey(name_key(i));
  GOVDNS_CHECK(parsed.ok());
  return *std::move(parsed);
}

PdnsEntryView PdnsSnapshot::EntryRange::Iterator::operator*() const {
  PdnsEntryView v;
  v.type = static_cast<dns::RRType>(raw_->type);
  v.rdata = rdata_.substr(raw_->rdata_off, raw_->rdata_len);
  v.seen = {raw_->seen_first, raw_->seen_last};
  v.count = raw_->count;
  return v;
}

std::pair<size_t, size_t> PdnsSnapshot::WildcardNameRange(
    const dns::Name& suffix) const {
  if (suffix.IsRoot()) return {0, name_count_};
  const std::string key = suffix.CanonicalKey();
  // lower_bound over the key array: first name key >= suffix key.
  size_t lo = 0, hi = name_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (name_key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // A name is in the subtree iff its key is `key` or `key` + '\0' + more
  // (the '\0' pins the label boundary). Within [lo, end) the subtree is a
  // prefix, so its end is a partition point.
  auto in_subtree = [&](size_t i) {
    const std::string_view k = name_key(i);
    return k.size() >= key.size() && k.substr(0, key.size()) == key &&
           (k.size() == key.size() || k[key.size()] == '\0');
  };
  size_t begin = lo;
  hi = name_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (in_subtree(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {begin, lo};
}

util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                   uint64_t fingerprint,
                                   const std::string& dir,
                                   const std::string& path) {
  if (std::endian::native != std::endian::little) {
    return util::InternalError(
        "snapshot files are little-endian; writing on a big-endian host is "
        "not supported");
  }
  ckpt::SnapshotFileWriter file(kPdnsSnapshotFormatVersion, fingerprint);
  for (uint32_t id = kSecPdnsMeta; id <= kSecPdnsRdata; ++id) {
    file.AddSection(id, std::string(snap.section(id)));
  }
  return file.WriteTo(dir, path);
}

}  // namespace govdns::pdns

// DNS domain names.
//
// A Name is stored as one flat string, its canonical key: the labels
// rightmost-first, joined by '\0' ("www.gov.au" -> "au\0gov\0www"; the root
// -> ""), plus a label count. Names are stored lowercased: DNS comparison is
// ASCII case-insensitive (RFC 1035 §2.3.3) and nothing in this codebase
// needs to preserve the original case. Because '\0' sorts below every legal
// label byte, comparing two keys bytewise is canonical DNS order, the
// subdomain test is a prefix test plus a label boundary, and a parent or
// suffix is a key prefix (DESIGN.md §6l).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace govdns::dns {

// The stored form of one label octet: letters fold to lowercase; digits,
// '-' and '_' map to themselves; every other octet (including '\0', '.' and
// anything >= 0x80) maps to 0, meaning "not legal in a label".
inline constexpr std::array<char, 256> kLabelOctetFold = [] {
  std::array<char, 256> fold{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 'a' && c <= 'z') fold[c] = static_cast<char>(c);
    if (c >= 'A' && c <= 'Z') fold[c] = static_cast<char>(c - 'A' + 'a');
    if (c >= '0' && c <= '9') fold[c] = static_cast<char>(c);
    if (c == '-' || c == '_') fold[c] = static_cast<char>(c);
  }
  return fold;
}();

class Name {
 public:
  // The root name (zero labels).
  Name() = default;

  // Parses presentation format. Accepts an optional trailing dot; "." is the
  // root. Rejects empty labels, labels > 63 octets, and names > 255 octets.
  static util::StatusOr<Name> Parse(std::string_view text);

  // Parses or aborts; for literals known to be valid at compile time.
  static Name FromString(std::string_view text);

  static Name Root() { return Name(); }

  // Builds from labels ordered leftmost-first (e.g. {"www", "gov", "au"}).
  static util::StatusOr<Name> FromLabels(const std::vector<std::string>& labels);

  bool IsRoot() const { return key_.empty(); }
  size_t LabelCount() const { return label_count_; }
  // Label i counted from the left ("www.gov.au".Label(0) == "www"). The
  // view points into this name and dies with it.
  std::string_view Label(size_t i) const;

  // Presentation format without trailing dot; "." for the root.
  std::string ToString() const;

  // True if *this is `other` or a descendant of it. Every name is a
  // subdomain of the root.
  bool IsSubdomainOf(const Name& other) const {
    const size_t n = other.key_.size();
    return key_.size() >= n && key_.compare(0, n, other.key_) == 0 &&
           (n == 0 || key_.size() == n || key_[n] == '\0');
  }
  // Strict descendant (excludes equality).
  bool IsProperSubdomainOf(const Name& other) const {
    return label_count_ > other.label_count_ && IsSubdomainOf(other);
  }

  // Name with the leftmost label removed. Aborts on the root.
  Name Parent() const;

  // New name with `label` prepended ("mail" + "gov.au" -> "mail.gov.au").
  // Aborts if the label is invalid or the result exceeds length limits.
  Name Child(std::string_view label) const;

  // Keeps only the `count` rightmost labels ("a.b.gov.au".Suffix(2) ->
  // "gov.au"). count must be <= LabelCount().
  Name Suffix(size_t count) const;

  // Total wire length in octets: sum of (1 + label size) + 1 root byte.
  size_t WireLength() const { return key_.empty() ? 1 : key_.size() + 2; }

  // The stored flat sort key (see the file comment). Plain memcmp /
  // string_view order on keys equals operator<=>, which is what lets a
  // memory-mapped snapshot binary-search names without materializing a
  // single Name (pdns/snapshot_io.h).
  const std::string& CanonicalKey() const { return key_; }
  // Inverse of CanonicalKey; rejects malformed keys (empty or invalid
  // labels, over-long names) rather than aborting, since keys arrive from
  // disk.
  static util::StatusOr<Name> FromCanonicalKey(std::string_view key);

  // Lexicographic by label from the right (canonical DNS ordering); equal
  // names compare equal. Usable as std::map key.
  std::strong_ordering operator<=>(const Name& other) const {
    return key_ <=> other.key_;
  }
  bool operator==(const Name& other) const { return key_ == other.key_; }

  struct Hash {
    size_t operator()(const Name& n) const;
  };

 private:
  friend class WireReader;  // builds decoded keys straight from a datagram

  Name(std::string key, size_t label_count)
      : key_(std::move(key)), label_count_(static_cast<uint8_t>(label_count)) {}

  std::string key_;
  uint8_t label_count_ = 0;  // <= 127: every label costs >= 2 wire octets
};

// True if `label` is a legal DNS label for our purposes: 1-63 octets of
// letters, digits, hyphen, or underscore (seen in real NS hostnames).
bool IsValidLabel(std::string_view label);

std::ostream& operator<<(std::ostream& os, const Name& name);

}  // namespace govdns::dns

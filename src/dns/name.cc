#include "dns/name.h"

#include <ostream>

#include "util/rng.h"

namespace govdns::dns {

namespace {

constexpr size_t kMaxWireLength = 255;
constexpr size_t kMaxLabelLength = 63;

// Appends `label`, the key's next label (keys run rightmost-first), in
// stored (lowercase) form and counts it. False if the label is empty,
// over-long, or holds an octet outside the label alphabet.
bool AppendLabel(std::string_view label, std::string* key, size_t* count) {
  if (label.empty() || label.size() > kMaxLabelLength) return false;
  if ((*count)++ > 0) key->push_back('\0');
  for (char c : label) {
    const char folded = kLabelOctetFold[static_cast<unsigned char>(c)];
    if (folded == 0) return false;
    key->push_back(folded);
  }
  return true;
}

// Calls fn(label) for each label of `key`, leftmost-first (the key stores
// them rightmost-first, so this walks it back to front).
template <typename Fn>
void ForEachLabelLeftmostFirst(std::string_view key, Fn fn) {
  if (key.empty()) return;
  size_t end = key.size();
  for (size_t i = key.size(); i-- > 0;) {
    if (key[i] == '\0') {
      fn(key.substr(i + 1, end - i - 1));
      end = i;
    }
  }
  fn(key.substr(0, end));
}

}  // namespace

bool IsValidLabel(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLength) return false;
  for (char c : label) {
    if (kLabelOctetFold[static_cast<unsigned char>(c)] == 0) return false;
  }
  return true;
}

util::StatusOr<Name> Name::Parse(std::string_view text) {
  if (text.empty()) return util::ParseError("empty name");
  if (text == ".") return Name();
  if (text.back() == '.') text.remove_suffix(1);
  // The key has exactly as many octets as the dotted text: n labels and
  // n - 1 separators either way, only the label order is reversed.
  if (text.size() + 2 > kMaxWireLength) {
    return util::ParseError("name exceeds 255 octets");
  }
  std::string key;
  key.reserve(text.size());
  size_t count = 0;
  size_t end = text.size();
  for (size_t i = text.size() + 1; i-- > 0;) {
    if (i == 0 || text[i - 1] == '.') {
      if (!AppendLabel(text.substr(i, end - i), &key, &count)) {
        return util::ParseError("bad label in name: " + std::string(text));
      }
      end = i - (i > 0 ? 1 : 0);
    }
  }
  return Name(std::move(key), count);
}

Name Name::FromString(std::string_view text) {
  auto parsed = Parse(text);
  GOVDNS_CHECK(parsed.ok());
  return *std::move(parsed);
}

util::StatusOr<Name> Name::FromLabels(const std::vector<std::string>& labels) {
  std::string key;
  size_t count = 0;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    if (!AppendLabel(*it, &key, &count)) {
      return util::ParseError("invalid label: " + *it);
    }
  }
  if (key.size() + 2 > kMaxWireLength) {
    return util::ParseError("name exceeds 255 octets");
  }
  return Name(std::move(key), count);
}

util::StatusOr<Name> Name::FromCanonicalKey(std::string_view key) {
  if (key.empty()) return Name();
  if (key.size() + 2 > kMaxWireLength) {
    return util::ParseError("name exceeds 255 octets");
  }
  std::string folded;
  folded.reserve(key.size());
  size_t count = 0;
  size_t start = 0;
  for (size_t i = 0; i <= key.size(); ++i) {
    if (i == key.size() || key[i] == '\0') {
      if (!AppendLabel(key.substr(start, i - start), &folded, &count)) {
        return util::ParseError("invalid label in canonical key");
      }
      start = i + 1;
    }
  }
  return Name(std::move(folded), count);
}

std::string_view Name::Label(size_t i) const {
  GOVDNS_CHECK(i < label_count_);
  // Label i from the left is segment i from the end of the key.
  const std::string_view key = key_;
  size_t end = key.size();
  for (;;) {
    const size_t sep = key.rfind('\0', end - 1);
    const size_t start = sep == std::string_view::npos ? 0 : sep + 1;
    if (i-- == 0) return key.substr(start, end - start);
    end = sep;
  }
}

std::string Name::ToString() const {
  if (key_.empty()) return ".";
  std::string out;
  out.reserve(key_.size());
  ForEachLabelLeftmostFirst(key_, [&](std::string_view label) {
    if (!out.empty()) out.push_back('.');
    out.append(label);
  });
  return out;
}

Name Name::Parent() const {
  GOVDNS_CHECK(label_count_ > 0);
  const size_t sep = key_.rfind('\0');
  return Name(sep == std::string::npos ? std::string() : key_.substr(0, sep),
              label_count_ - 1);
}

Name Name::Child(std::string_view label) const {
  std::string key;
  key.reserve(key_.size() + 1 + label.size());
  key = key_;
  size_t count = label_count_;
  GOVDNS_CHECK(AppendLabel(label, &key, &count));
  GOVDNS_CHECK(key.size() + 2 <= kMaxWireLength);
  return Name(std::move(key), count);
}

Name Name::Suffix(size_t count) const {
  GOVDNS_CHECK(count <= label_count_);
  if (count == label_count_) return *this;
  size_t end = 0;
  for (size_t seen = 0; seen < count; ++end) {
    if (key_[end] == '\0' && ++seen == count) break;
  }
  return Name(key_.substr(0, end), count);
}

size_t Name::Hash::operator()(const Name& n) const {
  // Labels hashed leftmost-first, each seeding the next. SharedCutCache
  // picks a stripe by Hash % stripes, so these values are pinned
  // (NameGoldenTest.HashValuesPinned).
  uint64_t h = 0xcbf29ce484222325ULL;
  ForEachLabelLeftmostFirst(n.key_, [&](std::string_view label) {
    h = util::HashString(label, h);
  });
  return static_cast<size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.ToString();
}

}  // namespace govdns::dns

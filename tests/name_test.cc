#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "dns/name.h"
#include "util/rng.h"
#include "util/strings.h"

namespace govdns::dns {
namespace {

TEST(NameTest, ParseBasic) {
  auto name = Name::Parse("www.gov.au");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->LabelCount(), 3u);
  EXPECT_EQ(name->Label(0), "www");
  EXPECT_EQ(name->Label(2), "au");
  EXPECT_EQ(name->ToString(), "www.gov.au");
}

TEST(NameTest, ParseRoot) {
  auto root = Name::Parse(".");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsRoot());
  EXPECT_EQ(root->ToString(), ".");
}

TEST(NameTest, ParseTrailingDot) {
  auto name = Name::Parse("gov.cn.");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "gov.cn");
}

TEST(NameTest, ParseLowercases) {
  EXPECT_EQ(Name::FromString("WWW.Gov.AU").ToString(), "www.gov.au");
}

TEST(NameTest, ParseRejectsBadInput) {
  EXPECT_FALSE(Name::Parse("").ok());
  EXPECT_FALSE(Name::Parse("a..b").ok());
  EXPECT_FALSE(Name::Parse("has space.com").ok());
  EXPECT_FALSE(Name::Parse(std::string(64, 'a') + ".com").ok());  // label>63
}

TEST(NameTest, ParseRejectsOverlongName) {
  std::string long_name;
  for (int i = 0; i < 30; ++i) long_name += "aaaaaaaaa.";  // 300 octets
  long_name += "com";
  EXPECT_FALSE(Name::Parse(long_name).ok());
}

TEST(NameTest, AcceptsUnderscoreAndHyphen) {
  EXPECT_TRUE(Name::Parse("_dmarc.example.com").ok());
  EXPECT_TRUE(Name::Parse("awsdns-03.co.uk").ok());
}

TEST(NameTest, SubdomainRelations) {
  Name root = Name::Root();
  Name au = Name::FromString("au");
  Name gov_au = Name::FromString("gov.au");
  Name www = Name::FromString("www.gov.au");

  EXPECT_TRUE(www.IsSubdomainOf(gov_au));
  EXPECT_TRUE(www.IsSubdomainOf(au));
  EXPECT_TRUE(www.IsSubdomainOf(root));
  EXPECT_TRUE(www.IsSubdomainOf(www));
  EXPECT_FALSE(gov_au.IsSubdomainOf(www));
  EXPECT_TRUE(www.IsProperSubdomainOf(gov_au));
  EXPECT_FALSE(www.IsProperSubdomainOf(www));
}

TEST(NameTest, SubdomainIsLabelWiseNotStringWise) {
  // "ngov.au" must not count as a subdomain of "gov.au".
  EXPECT_FALSE(Name::FromString("ngov.au").IsSubdomainOf(
      Name::FromString("gov.au")));
  EXPECT_FALSE(Name::FromString("gov.au").IsSubdomainOf(
      Name::FromString("ov.au")));
}

TEST(NameTest, ParentChildSuffix) {
  Name www = Name::FromString("www.gov.au");
  EXPECT_EQ(www.Parent().ToString(), "gov.au");
  EXPECT_EQ(www.Parent().Parent().ToString(), "au");
  EXPECT_EQ(Name::FromString("gov.au").Child("moe").ToString(), "moe.gov.au");
  EXPECT_EQ(www.Suffix(2).ToString(), "gov.au");
  EXPECT_EQ(www.Suffix(0).ToString(), ".");
  EXPECT_EQ(www.Suffix(3), www);
}

TEST(NameTest, WireLength) {
  EXPECT_EQ(Name::Root().WireLength(), 1u);
  EXPECT_EQ(Name::FromString("gov.au").WireLength(), 1u + 4 + 3);  // 3gov2au0
}

TEST(NameTest, CanonicalOrderingByRightmostLabel) {
  // a.gov.au < b.gov.au, and all *.gov.au sort between gov.au and gova.au.
  Name gov_au = Name::FromString("gov.au");
  Name a = Name::FromString("a.gov.au");
  Name b = Name::FromString("b.gov.au");
  Name gova = Name::FromString("gova.au");
  EXPECT_LT(gov_au, a);
  EXPECT_LT(a, b);
  EXPECT_LT(b, gova);
}

TEST(NameTest, EqualityIgnoresSourceCase) {
  EXPECT_EQ(Name::FromString("NS1.Gov.CN"), Name::FromString("ns1.gov.cn"));
}

TEST(NameTest, HashConsistentWithEquality) {
  Name::Hash hash;
  EXPECT_EQ(hash(Name::FromString("a.b.c")), hash(Name::FromString("A.b.C")));
  EXPECT_NE(hash(Name::FromString("a.b.c")), hash(Name::FromString("a.b.d")));
}

TEST(NameTest, FromLabels) {
  auto name = Name::FromLabels({"www", "gov", "au"});
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "www.gov.au");
  EXPECT_FALSE(Name::FromLabels({"ok", ""}).ok());
}

// Pinned values. SharedCutCache picks a stripe by Hash % stripes and evicts
// per stripe, so a changed hash would change which cut a run keeps.
TEST(NameGoldenTest, HashValuesPinned) {
  const std::pair<const char*, uint64_t> kCases[] = {
      {".", 14695981039346656037ULL},
      {"au", 17551619989559365302ULL},
      {"gov.au", 7594238488373093633ULL},
      {"www.gov.au", 2277836919702085715ULL},
      {"WWW.Gov.AU", 2277836919702085715ULL},
      {"_dmarc.example.com", 11382946316598531938ULL},
      {"ns-3.awsdns-01.co.uk", 2846722759873801568ULL},
      {"a.b.c.d.e.f.g", 16357184676749645734ULL},
  };
  Name::Hash hash;
  for (const auto& [text, want] : kCases) {
    EXPECT_EQ(static_cast<uint64_t>(hash(Name::FromString(text))), want)
        << text;
  }
}

TEST(NameGoldenTest, CanonicalKeyBytesPinned) {
  using namespace std::string_literals;
  EXPECT_EQ(Name::Root().CanonicalKey(), ""s);
  EXPECT_EQ(Name::FromString("au").CanonicalKey(), "au"s);
  EXPECT_EQ(Name::FromString("WWW.Gov.AU").CanonicalKey(), "au\0gov\0www"s);
  EXPECT_EQ(Name::FromString("_dmarc.a-b.example.com").CanonicalKey(),
            "com\0example\0a-b\0_dmarc"s);
}

// Property sweep: ordering is a strict weak order consistent with equality.
class NameOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(NameOrderProperty, TotalOrderOnRandomNames) {
  util::Rng rng(GetParam());
  std::vector<Name> names;
  static const char* kLabels[] = {"a", "b", "ns1", "gov", "cn", "au", "www"};
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> labels;
    int n = 1 + static_cast<int>(rng.UniformU64(4));
    for (int j = 0; j < n; ++j) {
      labels.push_back(kLabels[rng.UniformU64(std::size(kLabels))]);
    }
    names.push_back(*Name::FromLabels(std::move(labels)));
  }
  std::sort(names.begin(), names.end());
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    // Sorted: no element greater than its successor.
    EXPECT_FALSE(names[i + 1] < names[i]);
    // Consistency: equal iff neither is less.
    bool eq = names[i] == names[i + 1];
    bool neither_less = !(names[i] < names[i + 1]) && !(names[i + 1] < names[i]);
    EXPECT_EQ(eq, neither_less);
  }
  // Subdomains are contiguous after their ancestor in canonical order.
  for (size_t i = 0; i < names.size(); ++i) {
    bool in_run = false, run_ended = false;
    for (size_t j = i + 1; j < names.size(); ++j) {
      bool sub = names[j].IsSubdomainOf(names[i]);
      if (sub) {
        EXPECT_FALSE(run_ended) << names[j].ToString() << " under "
                                << names[i].ToString() << " after a gap";
        in_run = true;
      } else if (in_run) {
        run_ended = true;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property sweep: parse/format round trip.
class NameRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(NameRoundTripProperty, ParseFormatRoundTrip) {
  util::Rng rng(GetParam() * 977);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::string> labels;
    int n = 1 + static_cast<int>(rng.UniformU64(5));
    for (int j = 0; j < n; ++j) {
      std::string label;
      int len = 1 + static_cast<int>(rng.UniformU64(12));
      for (int k = 0; k < len; ++k) {
        label += static_cast<char>('a' + rng.UniformU64(26));
      }
      labels.push_back(std::move(label));
    }
    auto name = Name::FromLabels(labels);
    ASSERT_TRUE(name.ok());
    auto reparsed = Name::Parse(name->ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(*name, *reparsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameRoundTripProperty,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Model-based check: the flat Name against a label-list reference model
// ---------------------------------------------------------------------------

// The reference: labels leftmost-first, lowercase, compared label by label
// from the right. Every operation is the obvious one on that list.
using Labels = std::vector<std::string>;

int ModelCompare(const Labels& a, const Labels& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 1; i <= n; ++i) {
    const int cmp = a[a.size() - i].compare(b[b.size() - i]);
    if (cmp != 0) return cmp < 0 ? -1 : 1;
  }
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

bool ModelIsSubdomainOf(const Labels& a, const Labels& b) {
  return b.size() <= a.size() && std::equal(b.rbegin(), b.rend(), a.rbegin());
}

Labels ModelSuffix(const Labels& a, size_t count) {
  return Labels(a.end() - static_cast<std::ptrdiff_t>(count), a.end());
}

size_t ModelWireLength(const Labels& a) {
  size_t len = 1;
  for (const std::string& label : a) len += 1 + label.size();
  return len;
}

std::string ModelToString(const Labels& a) {
  if (a.empty()) return ".";
  std::string out;
  for (const std::string& label : a) {
    if (!out.empty()) out += '.';
    out += label;
  }
  return out;
}

std::string ModelKey(const Labels& a) {
  std::string key;
  for (auto it = a.rbegin(); it != a.rend(); ++it) {
    if (it != a.rbegin()) key += '\0';
    key += *it;
  }
  return key;
}

uint64_t ModelHash(const Labels& a) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& label : a) h = util::HashString(label, h);
  return h;
}

// Lookalike labels (prefixes of one another, '-', '_', digits, mixed case)
// plus the 63-octet maximum, drawn into names that sometimes extend an
// earlier name (so subdomain relations are common) and sometimes run up to
// the 255-octet limit.
std::vector<Labels> RandomModelNames(util::Rng& rng, size_t count) {
  static const char* kPool[] = {"go", "gov", "gova", "GoV", "a-b", "_x", "a",
                                "0",  "9",   "123",  "au",  "cn",  "ns1", "b"};
  const std::string long_a(63, 'a');
  const std::string long_z = std::string(62, 'z') + "9";
  auto random_label = [&]() -> std::string {
    const uint64_t pick = rng.UniformU64(std::size(kPool) + 2);
    if (pick == std::size(kPool)) return long_a;
    if (pick == std::size(kPool) + 1) return long_z;
    return kPool[pick];
  };
  std::vector<Labels> names = {{}};
  while (names.size() < count) {
    Labels labels;
    if (rng.Bernoulli(0.5)) labels = names[rng.UniformU64(names.size())];
    const bool near_limit = rng.Bernoulli(0.15);
    size_t extra = near_limit ? 200 : 1 + rng.UniformU64(4);
    while (extra-- > 0) {
      std::string label = random_label();
      Labels longer = labels;
      longer.insert(longer.begin(), label);
      if (ModelWireLength(longer) > 255) {
        // Top up with one exactly-fitting label, if one fits.
        const size_t room = 255 - ModelWireLength(labels);
        if (room >= 2) {
          labels.insert(labels.begin(), std::string(std::min<size_t>(room - 1, 63), 'q'));
        }
        break;
      }
      labels = std::move(longer);
    }
    names.push_back(std::move(labels));
  }
  return names;
}

class NameModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(NameModelProperty, FlatNameMatchesLabelListModel) {
  util::Rng rng(GetParam() * 7723);
  std::vector<Labels> model = RandomModelNames(rng, 80);
  std::vector<Name> names;
  for (Labels& labels : model) {
    // Built both from text and from labels; the model keeps the lowercase.
    auto from_labels = Name::FromLabels(labels);
    ASSERT_TRUE(from_labels.ok()) << ModelToString(labels);
    for (std::string& label : labels) label = util::ToLower(label);
    auto parsed = Name::Parse(ModelToString(labels));
    ASSERT_TRUE(parsed.ok()) << ModelToString(labels);
    ASSERT_EQ(*parsed, *from_labels);
    names.push_back(*std::move(parsed));
  }

  Name::Hash hash;
  for (size_t i = 0; i < names.size(); ++i) {
    const Name& n = names[i];
    const Labels& m = model[i];
    SCOPED_TRACE(ModelToString(m));
    EXPECT_EQ(n.ToString(), ModelToString(m));
    EXPECT_EQ(n.LabelCount(), m.size());
    EXPECT_EQ(n.IsRoot(), m.empty());
    EXPECT_EQ(n.WireLength(), ModelWireLength(m));
    EXPECT_LE(n.WireLength(), 255u);
    EXPECT_EQ(n.CanonicalKey(), ModelKey(m));
    EXPECT_EQ(static_cast<uint64_t>(hash(n)), ModelHash(m));
    auto round_trip = Name::FromCanonicalKey(n.CanonicalKey());
    ASSERT_TRUE(round_trip.ok());
    EXPECT_EQ(*round_trip, n);
    EXPECT_EQ(round_trip->LabelCount(), n.LabelCount());
    for (size_t l = 0; l < m.size(); ++l) EXPECT_EQ(n.Label(l), m[l]);
    for (size_t k = 0; k <= m.size(); ++k) {
      const Name suffix = n.Suffix(k);
      EXPECT_EQ(suffix.ToString(), ModelToString(ModelSuffix(m, k)));
      EXPECT_EQ(suffix.LabelCount(), k);
    }
    if (!m.empty()) {
      const Name parent = n.Parent();
      EXPECT_EQ(parent.ToString(), ModelToString(ModelSuffix(m, m.size() - 1)));
      EXPECT_EQ(parent.LabelCount(), m.size() - 1);
      EXPECT_EQ(parent.Child(m[0]), n);
    }
    if (ModelWireLength(m) + 4 <= 255) {
      const Name child = n.Child("X-1");
      Labels child_model = m;
      child_model.insert(child_model.begin(), "x-1");
      EXPECT_EQ(child.ToString(), ModelToString(child_model));
      EXPECT_EQ(child.LabelCount(), child_model.size());
      EXPECT_EQ(child.CanonicalKey(), ModelKey(child_model));
    }
  }

  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      const Name& a = names[i];
      const Name& b = names[j];
      const int want = ModelCompare(model[i], model[j]);
      const auto got = a <=> b;
      EXPECT_EQ(got < 0, want < 0) << a << " vs " << b;
      EXPECT_EQ(got > 0, want > 0) << a << " vs " << b;
      EXPECT_EQ(a == b, want == 0) << a << " vs " << b;
      if (a == b) {
        EXPECT_EQ(hash(a), hash(b));
      }
      const bool sub = ModelIsSubdomainOf(model[i], model[j]);
      EXPECT_EQ(a.IsSubdomainOf(b), sub) << a << " under " << b;
      EXPECT_EQ(a.IsProperSubdomainOf(b), sub && model[i] != model[j])
          << a << " under " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameModelProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace govdns::dns

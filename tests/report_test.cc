#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string_view>

#include "core/export.h"
#include "core/report.h"
#include "worldgen/adapter.h"

namespace govdns::core {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Round-trip exact rendering of a double, so a one-ulp drift shows.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Render(const std::vector<YearlyCounts>& rows) {
  std::string out;
  for (const YearlyCounts& r : rows) {
    out += std::to_string(r.year) + " domains=" + std::to_string(r.domains) +
           " countries=" + std::to_string(r.countries) +
           " ns=" + std::to_string(r.nameservers) + "\n";
  }
  return out;
}

std::string Render(const std::vector<D1nsChurnRow>& rows) {
  std::string out;
  for (const D1nsChurnRow& r : rows) {
    out += std::to_string(r.year) + " d1ns=" + std::to_string(r.d1ns_total) +
           " overlap=" + Exact(r.pct_overlap_2011) +
           " new=" + Exact(r.pct_new_vs_prev) +
           " gone=" + Exact(r.pct_2011_cohort_gone) + "\n";
  }
  return out;
}

std::string Render(const std::vector<PrivateShareRow>& rows) {
  std::string out;
  for (const PrivateShareRow& r : rows) {
    out += std::to_string(r.year) + " d1ns=" + Exact(r.pct_d1ns_private) +
           " all=" + Exact(r.pct_all_private) + "\n";
  }
  return out;
}

std::string Render(const ProviderYearTable& table) {
  std::string out = std::to_string(table.year) +
                    " total_domains=" + std::to_string(table.total_domains) +
                    " total_groups=" + std::to_string(table.total_groups) +
                    "\n";
  for (const ProviderYearRow& r : table.rows) {
    out += r.group_key + "|" + r.display + " " + std::to_string(r.year) + " " +
           std::to_string(r.domains) + " " + std::to_string(r.d1p) + " " +
           std::to_string(r.groups) + " " + std::to_string(r.countries) +
           (r.major ? " major" : "") + "\n";
  }
  return out;
}

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    worldgen::WorldConfig config;
    config.scale = 0.015;
    world_ = worldgen::BuildWorld(config).release();
    bound_ = new worldgen::BoundStudy(worldgen::MakeStudy(*world_));
    bound_->study->RunAll();
  }
  static void TearDownTestSuite() {
    delete bound_;
    delete world_;
  }
  static worldgen::World* world_;
  static worldgen::BoundStudy* bound_;
};

worldgen::World* ReportTest::world_ = nullptr;
worldgen::BoundStudy* ReportTest::bound_ = nullptr;

TEST_F(ReportTest, BuildReportAggregatesAllSections) {
  StudyReport report = BuildReport(*bound_->study, {"cn", "br"});
  EXPECT_EQ(report.selection.total, 193);
  ASSERT_EQ(report.pdns_per_year.size(), 10u);
  EXPECT_GT(report.pdns_per_year.back().domains,
            report.pdns_per_year.front().domains);
  EXPECT_GT(report.funnel.queried, 0);
  EXPECT_GT(report.replication.domains_considered, 0);
  ASSERT_EQ(report.diversity.size(), 3u);  // Total + 2 countries
  EXPECT_EQ(report.diversity[0].label, "Total");
  EXPECT_EQ(report.providers_first_year.year, 2011);
  EXPECT_EQ(report.providers_last_year.year, 2020);
  EXPECT_GT(report.delegations.domains_considered, 0);
  EXPECT_GT(report.consistency.comparable, 0);
}

TEST_F(ReportTest, ReportIsInternallyConsistent) {
  StudyReport report = BuildReport(*bound_->study, {});
  // The funnel narrows monotonically.
  EXPECT_GE(report.funnel.queried, report.funnel.parent_responded);
  EXPECT_GE(report.funnel.parent_responded, report.funnel.parent_has_records);
  EXPECT_GE(report.funnel.parent_has_records,
            report.funnel.child_authoritative);
  // Replication and delegation analyses agree on the denominator.
  EXPECT_EQ(report.replication.domains_considered,
            report.delegations.domains_considered);
  // Defects never exceed the domains considered.
  EXPECT_LE(report.delegations.partially_defective +
                report.delegations.fully_defective,
            report.delegations.domains_considered);
  // Comparable consistency domains are a subset of responsive domains.
  EXPECT_LE(report.consistency.comparable,
            report.funnel.parent_has_records);
}

TEST_F(ReportTest, PrintReportMentionsEverySection) {
  StudyReport report = BuildReport(*bound_->study, {"cn"});
  std::ostringstream os;
  PrintReport(report, os);
  std::string text = os.str();
  for (const char* needle :
       {"selection:", "passive DNS:", "replication", "providers",
        "defective delegations", "parent/child consistency"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// A study in which no parent had records (say, every domain quarantined)
// divides nothing by zero: its shares print as 0.0%, never "nan%".
TEST(PrintReportTest, EmptyActiveDatasetPrintsNoNan) {
  const ActiveDataset empty = ActiveDataset::Build({}, {}, {});
  const geo::AsnDatabase asn_db;
  const registrar::PublicSuffixList psl;
  const registrar::SimRegistrar registrar(1);
  StudyReport report;
  report.pdns_per_year = CountPerYear(MinedDataset());
  report.funnel = empty.ComputeFunnel();
  report.replication = AnalyzeReplication(empty);
  report.diversity = AnalyzeDiversity(empty, asn_db, {"cn"});
  report.delegations = AnalyzeDelegations(empty);
  report.hijack = AnalyzeHijackRisk(empty, psl, registrar);
  report.consistency = AnalyzeConsistency(empty);
  report.resilience = BuildResilienceReport(empty);
  report.quarantine = BuildQuarantineReport(empty);
  std::ostringstream os;
  PrintReport(report, os);
  const std::string text = os.str();
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("partial: 0.0%, full: 0.0%"), std::string::npos)
      << text;
}

// The report's bytes, pinned at the commit before the aggregates moved onto
// dense id-indexed arrays: any change to an aggregate's arithmetic or row
// order shows here. The field-by-field pins below name the aggregate.
TEST_F(ReportTest, ExportedJsonAndTextArePinned) {
  StudyReport report = BuildReport(*bound_->study, {"cn", "br"});
  const std::string json = ExportReportJson(report);
  std::ostringstream os;
  PrintReport(report, os);
  const std::string text = os.str();
  EXPECT_EQ(json.size(), 18829u);
  EXPECT_EQ(Fnv1a(json), 13863892356236386818ull);
  EXPECT_EQ(text.size(), 1702u);
  EXPECT_EQ(Fnv1a(text), 12702055317297737569ull);
}

TEST_F(ReportTest, CountPerYearIsPinned) {
  EXPECT_EQ(Render(CountPerYear(bound_->study->mined())),
            "2011 domains=1665 countries=193 ns=1624\n"
            "2012 domains=1909 countries=193 ns=1862\n"
            "2013 domains=2054 countries=193 ns=1968\n"
            "2014 domains=2197 countries=193 ns=2060\n"
            "2015 domains=2414 countries=193 ns=2262\n"
            "2016 domains=2540 countries=193 ns=2336\n"
            "2017 domains=2682 countries=193 ns=2391\n"
            "2018 domains=2864 countries=193 ns=2466\n"
            "2019 domains=3003 countries=193 ns=2574\n"
            "2020 domains=2969 countries=193 ns=2858\n");
}

TEST_F(ReportTest, D1nsChurnIsPinned) {
  EXPECT_EQ(Render(D1nsChurn(bound_->study->mined())),
            "2011 d1ns=121 overlap=0 new=0 gone=0\n"
            "2012 d1ns=145 overlap=0.81379310344827582 new=0.18620689655172415"
            " gone=0\n"
            "2013 d1ns=123 overlap=0.71544715447154472 new=0.081300813008130079"
            " gone=0.19834710743801653\n"
            "2014 d1ns=107 overlap=0.57009345794392519 new=0.13084112149532709"
            " gone=0.39669421487603307\n"
            "2015 d1ns=91 overlap=0.43956043956043955 new=0.19780219780219779"
            " gone=0.52892561983471076\n"
            "2016 d1ns=81 overlap=0.37037037037037035 new=0.14814814814814814"
            " gone=0.62809917355371903\n"
            "2017 d1ns=70 overlap=0.24285714285714285 new=0.17142857142857143"
            " gone=0.6776859504132231\n"
            "2018 d1ns=74 overlap=0.16216216216216217 new=0.3108108108108108"
            " gone=0.73553719008264462\n"
            "2019 d1ns=80 overlap=0.13750000000000001 new=0.29999999999999999"
            " gone=0.76033057851239672\n"
            "2020 d1ns=107 overlap=0.084112149532710276 new=0.40186915887850466"
            " gone=0.78512396694214881\n");
}

TEST_F(ReportTest, PrivateShareIsPinned) {
  EXPECT_EQ(
      Render(PrivateShare(bound_->study->mined(), bound_->study->seeds())),
      "2011 d1ns=0.95041322314049592 all=0.55975975975975978\n"
      "2012 d1ns=0.93793103448275861 all=0.53640649554740705\n"
      "2013 d1ns=0.93495934959349591 all=0.50632911392405067\n"
      "2014 d1ns=0.89719626168224298 all=0.47837960855712336\n"
      "2015 d1ns=0.90109890109890112 all=0.46064623032311514\n"
      "2016 d1ns=0.90123456790123457 all=0.42952755905511814\n"
      "2017 d1ns=0.95714285714285718 all=0.40790454884414618\n"
      "2018 d1ns=0.91891891891891897 all=0.38791899441340782\n"
      "2019 d1ns=0.86250000000000004 all=0.38361638361638362\n"
      "2020 d1ns=0.71028037383177567 all=0.40788144156281575\n");
}

TEST_F(ReportTest, ProviderTablesArePinned) {
  const ProviderMatcher matcher(DefaultProviderRules());
  const ProviderAnalyzer analyzer(&matcher, bound_->study->inputs().countries);
  const MinedDataset& mined = bound_->study->mined();
  EXPECT_EQ(Render(analyzer.Analyze(mined, mined.config.first_year)),
            "2011 total_domains=1665 total_groups=32\n"
            "AWS DNS|Amazon 2011 0 0 0 0 major\n"
            "Azure DNS|Azure 2011 0 0 0 0 major\n"
            "cloudflare.com|Cloudflare 2011 0 0 0 0 major\n"
            "dnspod.net|DNSPod 2011 6 6 1 1 major\n"
            "dnsmadeeasy.com|DNSMadeEasy 2011 1 1 1 1 major\n"
            "dynect.net|Dyn 2011 0 0 0 0 major\n"
            "domaincontrol.com|GoDaddy 2011 4 3 3 3 major\n"
            "ultradns.net|UltraDNS 2011 0 0 0 0 major\n"
            "websitewelcome.com|websitewelcome.com 2011 6 6 4 5\n"
            "Hostgator|Hostgator 2011 3 3 2 2\n"
            "zoneedit.com|zoneedit.com 2011 3 3 3 3\n"
            "dreamhost.com|dreamhost.com 2011 4 4 4 4\n"
            "bluehost.com|bluehost.com 2011 2 2 2 2\n"
            "ixwebhosting.com|ixwebhosting.com 2011 1 1 1 1\n"
            "hostmonster.com|hostmonster.com 2011 2 2 2 2\n"
            "everydns.net|everydns.net 2011 4 4 2 2\n"
            "pipedns.com|pipedns.com 2011 0 0 0 0\n"
            "stabletransit.com|stabletransit.com 2011 0 0 0 0\n"
            "digitalocean.com|digitalocean.com 2011 0 0 0 0\n"
            "microsoftonline.com|microsoftonline.com 2011 0 0 0 0\n"
            "wixdns.net|wixdns.net 2011 0 0 0 0\n"
            "cloudns.net|cloudns.net 2011 0 0 0 0\n"
            "hichina.com|HiChina 2011 63 55 1 1\n"
            "xincache.com|XinNet 2011 45 42 1 1\n"
            "dns-diy.com|DNS-DIY 2011 25 25 1 1\n");
  EXPECT_EQ(Render(analyzer.Analyze(mined, mined.config.last_year)),
            "2020 total_domains=2969 total_groups=32\n"
            "AWS DNS|Amazon 2020 80 61 13 22 major\n"
            "Azure DNS|Azure 2020 24 19 7 9 major\n"
            "cloudflare.com|Cloudflare 2020 67 55 13 24 major\n"
            "dnspod.net|DNSPod 2020 12 7 1 1 major\n"
            "dnsmadeeasy.com|DNSMadeEasy 2020 3 3 2 2 major\n"
            "dynect.net|Dyn 2020 2 1 2 2 major\n"
            "domaincontrol.com|GoDaddy 2020 24 21 14 17 major\n"
            "ultradns.net|UltraDNS 2020 0 0 0 0 major\n"
            "websitewelcome.com|websitewelcome.com 2020 11 9 5 6\n"
            "Hostgator|Hostgator 2020 24 16 9 10\n"
            "zoneedit.com|zoneedit.com 2020 2 2 2 2\n"
            "dreamhost.com|dreamhost.com 2020 5 4 5 5\n"
            "bluehost.com|bluehost.com 2020 7 6 4 6\n"
            "ixwebhosting.com|ixwebhosting.com 2020 0 0 0 0\n"
            "hostmonster.com|hostmonster.com 2020 1 1 1 1\n"
            "everydns.net|everydns.net 2020 0 0 0 0\n"
            "pipedns.com|pipedns.com 2020 0 0 0 0\n"
            "stabletransit.com|stabletransit.com 2020 0 0 0 0\n"
            "digitalocean.com|digitalocean.com 2020 6 6 5 5\n"
            "microsoftonline.com|microsoftonline.com 2020 2 2 2 2\n"
            "wixdns.net|wixdns.net 2020 4 4 3 3\n"
            "cloudns.net|cloudns.net 2020 3 2 3 3\n"
            "hichina.com|HiChina 2020 166 120 1 1\n"
            "xincache.com|XinNet 2020 98 77 1 1\n"
            "dns-diy.com|DNS-DIY 2020 48 42 1 1\n");
}

}  // namespace
}  // namespace govdns::core

/// Tests for the Section 5 machinery: term extraction, router-level
/// filtering, given-name matching (with the possessive rule), per-suffix
/// selection thresholds, the city-name guard, type classification and
/// device-term co-occurrence.

#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "core/cooccur.hpp"
#include "core/names.hpp"
#include "core/terms.hpp"

namespace rdns::core {
namespace {

using util::CivilDate;

void add(PtrCorpus& corpus, const char* ip, const char* hostname) {
  corpus.on_row(CivilDate{2021, 1, 1}, net::Ipv4Addr::must_parse(ip),
                dns::DnsName::must_parse(hostname));
}

TEST(Terms, ExtractionMatchesRegexSemantics) {
  EXPECT_EQ(extract_terms("brians-iphone-12.wifi.uni.edu"),
            (std::vector<std::string>{"brians", "iphone", "wifi", "uni", "edu"}));
}

TEST(Terms, RouterLevelDetection) {
  EXPECT_TRUE(looks_router_level(extract_terms("et-0-0-1.core1.jackson.someisp.net")));
  EXPECT_TRUE(looks_router_level(extract_terms("north-gw.uni.edu")));
  EXPECT_FALSE(looks_router_level(extract_terms("brians-iphone.wifi.uni.edu")));
}

TEST(Names, Top50ListMatchesPaperFigure2) {
  const auto& names = top_given_names();
  EXPECT_EQ(names.size(), 50u);
  EXPECT_EQ(names.front(), "jacob");
  // Spot-check names from the Fig. 2 x-axis.
  for (const char* n : {"michael", "emma", "brandon", "jackson", "madison", "brian"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
  }
}

TEST(Names, MatchingIncludesPossessive) {
  EXPECT_EQ(match_given_names({"brians", "iphone"}), (std::vector<std::string>{"brian"}));
  EXPECT_EQ(match_given_names({"brian"}), (std::vector<std::string>{"brian"}));
  EXPECT_EQ(match_given_names({"james"}), (std::vector<std::string>{"james"}));  // not jame+s
  EXPECT_TRUE(match_given_names({"xyz", "host"}).empty());
}

TEST(Names, ShortTermsNeverMatch) {
  // "we considered terms of three or more characters".
  EXPECT_TRUE(match_given_names({"al", "jo"}).empty());
}

TEST(Names, CityTermMatchesAsName) {
  // jackson the city is indistinguishable from jackson the name at the
  // term level — the guard lives at the suffix-statistics level.
  EXPECT_EQ(match_given_names({"jackson"}), (std::vector<std::string>{"jackson"}));
}

PtrCorpus leaky_corpus(int unique_names, const char* suffix = "leaky.edu") {
  PtrCorpus corpus;
  const auto& names = top_given_names();
  for (int i = 0; i < unique_names; ++i) {
    const std::string host = names[static_cast<std::size_t>(i)] + "s-iphone." +
                             std::string{"wifi."} + suffix;
    corpus.on_row(CivilDate{2021, 1, 1},
                  net::Ipv4Addr{0x0A000001u + static_cast<std::uint32_t>(i)},
                  dns::DnsName::must_parse(host));
  }
  return corpus;
}

TEST(Leaks, SelectsSuffixAboveThresholds) {
  const PtrCorpus corpus = leaky_corpus(50);
  LeakConfig config;  // defaults: 50 unique names, ratio 0.1
  const auto result = identify_leaking_networks(corpus, config);
  ASSERT_EQ(result.identified.size(), 1u);
  EXPECT_EQ(result.identified[0], "leaky.edu");
  const auto& stats = result.suffixes.at("leaky.edu");
  EXPECT_EQ(stats.unique_names.size(), 50u);
  EXPECT_EQ(stats.records, 50u);
  EXPECT_DOUBLE_EQ(stats.ratio(), 1.0);
}

TEST(Leaks, BelowUniqueNameThresholdRejected) {
  const PtrCorpus corpus = leaky_corpus(49);
  const auto result = identify_leaking_networks(corpus, LeakConfig{});
  EXPECT_TRUE(result.identified.empty());
  EXPECT_FALSE(result.suffixes.at("leaky.edu").identified);
}

TEST(Leaks, RatioThresholdRejectsDilutedSuffixes) {
  PtrCorpus corpus = leaky_corpus(50);
  // Dilute with 600 name-bearing but repetitive records: 50 names over 650
  // records -> ratio ~0.077 < 0.1.
  for (int i = 0; i < 600; ++i) {
    add(corpus, ("10.0.2." + std::to_string(i % 250 + 1)).c_str(),
        ("jacobs-ipad-" + std::to_string(i) + ".wifi.leaky.edu").c_str());
  }
  const auto result = identify_leaking_networks(corpus, LeakConfig{});
  EXPECT_TRUE(result.identified.empty());
}

TEST(Leaks, CityNameGuardRejectsRouterNetworks) {
  // A transit network where the only "names" are city labels in router
  // hostnames that slip past the generic-term filter: few UNIQUE name
  // matches -> rejected by step 5 without any city enumeration.
  PtrCorpus corpus;
  for (int i = 0; i < 300; ++i) {
    add(corpus, ("10.9.0." + std::to_string(i % 250 + 1)).c_str(),
        ("po" + std::to_string(i) + ".jackson.citydecoy.org").c_str());
  }
  const auto result = identify_leaking_networks(corpus, LeakConfig{});
  EXPECT_TRUE(result.identified.empty());
  const auto& stats = result.suffixes.at("citydecoy.org");
  EXPECT_EQ(stats.unique_names.size(), 1u);  // only "jackson"
}

TEST(Leaks, RouterTermRecordsExcludedEntirely) {
  PtrCorpus corpus;
  // Router-level records with a real given name embedded are still dropped
  // by step 2 (the generic-term filter).
  for (int i = 0; i < 60; ++i) {
    add(corpus, ("10.9.1." + std::to_string(i + 1)).c_str(),
        (top_given_names()[static_cast<std::size_t>(i % 50)] + "-core.uplink.isp.net").c_str());
  }
  const auto result = identify_leaking_networks(corpus, LeakConfig{});
  EXPECT_TRUE(result.suffixes.empty());
}

TEST(Leaks, Figure2CountsAllVersusFiltered) {
  PtrCorpus corpus = leaky_corpus(50, "big.edu");
  // A small network below thresholds also contributes matches.
  add(corpus, "10.7.0.1", "brians-iphone.small-shop.com");
  const auto result = identify_leaking_networks(corpus, LeakConfig{});
  ASSERT_EQ(result.identified.size(), 1u);
  EXPECT_EQ(result.matches_per_name.at("brian"), 2u);           // both networks
  EXPECT_EQ(result.filtered_matches_per_name.at("brian"), 1u);  // identified only
}

TEST(Leaks, CountNameMatchesOverCorpus) {
  PtrCorpus corpus;
  add(corpus, "10.0.0.1", "brians-iphone.x.edu");
  add(corpus, "10.0.0.2", "emmas-ipad.x.edu");
  add(corpus, "10.0.0.3", "host-3.x.edu");
  const auto counts = count_name_matches(corpus);
  EXPECT_EQ(counts.at("brian"), 1u);
  EXPECT_EQ(counts.at("emma"), 1u);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(Corpus, RestrictionFiltersRows) {
  PtrCorpus corpus;
  corpus.restrict_to({net::Prefix::must_parse("10.0.0.0/24")});
  add(corpus, "10.0.0.1", "in.x.edu");
  add(corpus, "10.0.1.1", "out.x.edu");
  EXPECT_EQ(corpus.distinct_hostnames(), 1u);
  EXPECT_EQ(corpus.total_observations(), 1u);
}

TEST(Corpus, AggregatesDuplicates) {
  PtrCorpus corpus;
  add(corpus, "10.0.0.1", "brians-iphone.x.edu");
  add(corpus, "10.0.0.2", "Brians-iPhone.x.edu");  // same canonical name
  EXPECT_EQ(corpus.distinct_hostnames(), 1u);
  EXPECT_EQ(corpus.total_observations(), 2u);
  EXPECT_EQ(corpus.entries().begin()->second.observations, 2u);
}

TEST(Corpus, TermFrequencies) {
  PtrCorpus corpus;
  add(corpus, "10.0.0.1", "brians-iphone.x.edu");
  add(corpus, "10.0.0.2", "emmas-iphone.x.edu");
  const auto freq = corpus.term_frequencies();
  EXPECT_EQ(freq.count("iphone"), 2);
  EXPECT_EQ(freq.count("brians"), 1);
}

struct ClassifyCase {
  const char* suffix;
  NetworkType expected;
};

/// Names each case after its input: the default printer dumps the struct's
/// bytes, pointers included, so test names would change with every build.
void PrintTo(const ClassifyCase& c, std::ostream* os) { *os << '"' << c.suffix << '"'; }

class Classify : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(Classify, AssignsType) {
  EXPECT_EQ(classify_suffix(GetParam().suffix), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Classify,
    ::testing::Values(ClassifyCase{"uni.edu", NetworkType::Academic},
                      ClassifyCase{"college.ac.uk", NetworkType::Academic},
                      ClassifyCase{"cedar-university.nl", NetworkType::Academic},
                      ClassifyCase{"agency.gov", NetworkType::Government},
                      ClassifyCase{"lakeshore-broadband.net", NetworkType::Isp},
                      ClassifyCase{"some-telecom.net", NetworkType::Isp},
                      ClassifyCase{"mega-corp.com", NetworkType::Enterprise},
                      ClassifyCase{"widget-systems.com", NetworkType::Enterprise},
                      ClassifyCase{"mystery.xyz", NetworkType::Other}));

TEST(Classify, BreakdownPercentages) {
  const auto breakdown = classify_all({"a.edu", "b.edu", "c-broadband.net", "d-corp.com"});
  EXPECT_EQ(breakdown.total, 4u);
  EXPECT_DOUBLE_EQ(breakdown.percent(NetworkType::Academic), 50.0);
  EXPECT_DOUBLE_EQ(breakdown.percent(NetworkType::Isp), 25.0);
  EXPECT_DOUBLE_EQ(breakdown.percent(NetworkType::Government), 0.0);
}

TEST(Cooccur, DeviceTermListMatchesFig3) {
  const auto& terms = device_terms();
  EXPECT_EQ(terms.size(), 14u);
  EXPECT_EQ(terms.front(), "ipad");
  EXPECT_EQ(terms.back(), "roku");
}

TEST(Cooccur, CountsTermsAlongsideNamesOnly) {
  PtrCorpus corpus;
  add(corpus, "10.0.0.1", "brians-iphone.x.edu");   // name + device term
  add(corpus, "10.0.0.2", "iphone-lab-3.x.edu");    // device term, no name
  add(corpus, "10.0.0.3", "emmas-mbp.y.com");       // identified? depends on list
  const auto result = count_device_terms(corpus, {"x.edu"});
  EXPECT_EQ(result.all_matches.at("iphone"), 1u);   // only the named one
  EXPECT_EQ(result.all_matches.at("mbp"), 1u);
  EXPECT_EQ(result.filtered_matches.at("iphone"), 1u);
  EXPECT_EQ(result.filtered_matches.at("mbp"), 0u);  // y.com not identified
  EXPECT_EQ(result.total_all, 2u);
  EXPECT_EQ(result.total_filtered, 1u);
}

TEST(Cooccur, FrequentTermDiscovery) {
  PtrCorpus corpus;
  for (int i = 0; i < 120; ++i) {
    add(corpus, ("10.0.0." + std::to_string(i % 250 + 1)).c_str(),
        ("brians-iphone-" + std::to_string(i) + ".x.edu").c_str());
  }
  const auto frequent = frequent_cooccurring_terms(corpus, 100);
  // "iphone" (and the suffix terms) appear >= 100 times; "brians" is the
  // matched name itself and must be excluded.
  bool found_iphone = false;
  for (const auto& [term, count] : frequent) {
    EXPECT_NE(term, "brians");
    EXPECT_NE(term, "brian");
    if (term == "iphone") found_iphone = true;
  }
  EXPECT_TRUE(found_iphone);
}

}  // namespace
}  // namespace rdns::core

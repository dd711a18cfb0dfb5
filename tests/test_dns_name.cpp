/// Tests for dns/name.hpp: parsing, validation, case-insensitive
/// comparison, canonical ordering and registered-domain extraction (the
/// paper's TLD+1 network index).

#include "dns/name.hpp"

#include <gtest/gtest.h>

namespace rdns::dns {
namespace {

TEST(DnsName, ParseBasics) {
  const DnsName n = DnsName::must_parse("www.Example.COM");
  EXPECT_EQ(n.label_count(), 3u);
  EXPECT_EQ(n.to_string(), "www.Example.COM");          // case preserved
  EXPECT_EQ(n.to_canonical_string(), "www.example.com"); // canonical lowercase
}

TEST(DnsName, RootForms) {
  EXPECT_TRUE(DnsName::must_parse("").is_root());
  EXPECT_TRUE(DnsName::must_parse(".").is_root());
  EXPECT_EQ(DnsName{}.to_string(), ".");
  EXPECT_EQ(DnsName{}.wire_length(), 1u);
}

TEST(DnsName, TrailingDotTolerated) {
  EXPECT_EQ(DnsName::must_parse("example.com."), DnsName::must_parse("example.com"));
}

TEST(DnsName, RejectsMalformed) {
  EXPECT_FALSE(DnsName::parse("a..b").has_value());
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".com").has_value());  // label > 63
  EXPECT_FALSE(DnsName::parse("bad char.com").has_value());
  // Total name > 255 octets.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcdef.";
  long_name += "com";
  EXPECT_FALSE(DnsName::parse(long_name).has_value());
}

TEST(DnsName, UnderscoreTolerated) {
  // Real-world PTR data contains underscores.
  EXPECT_TRUE(DnsName::parse("_dmarc.example.com").has_value());
}

TEST(DnsName, CaseInsensitiveEquality) {
  EXPECT_EQ(DnsName::must_parse("BRIANS-IPHONE.X.EDU"),
            DnsName::must_parse("brians-iphone.x.edu"));
  EXPECT_FALSE(DnsName::must_parse("a.x.edu") == DnsName::must_parse("b.x.edu"));
}

TEST(DnsName, EndsWith) {
  const DnsName n = DnsName::must_parse("host.cs.uni.edu");
  EXPECT_TRUE(n.ends_with(DnsName::must_parse("uni.edu")));
  EXPECT_TRUE(n.ends_with(DnsName::must_parse("UNI.EDU")));
  EXPECT_TRUE(n.ends_with(DnsName{}));  // every name ends with the root
  EXPECT_FALSE(n.ends_with(DnsName::must_parse("other.edu")));
  EXPECT_FALSE(DnsName::must_parse("edu").ends_with(n));
}

TEST(DnsName, PrependConcatSuffix) {
  const DnsName base = DnsName::must_parse("wifi.x.edu");
  EXPECT_EQ(base.prepend("brians-ipad").to_string(), "brians-ipad.wifi.x.edu");
  EXPECT_EQ(DnsName::must_parse("a.b").concat(DnsName::must_parse("c.d")).to_string(),
            "a.b.c.d");
  EXPECT_EQ(base.suffix(1).to_string(), "x.edu");
  EXPECT_EQ(base.suffix(3).to_string(), ".");
  EXPECT_THROW((void)base.suffix(4), std::out_of_range);
}

TEST(DnsName, CanonicalOrderingGroupsChildren) {
  // Right-to-left label ordering: children sort adjacent to their parent.
  const DnsName apex = DnsName::must_parse("x.edu");
  const DnsName child = DnsName::must_parse("a.x.edu");
  const DnsName other = DnsName::must_parse("y.edu");
  EXPECT_LT(apex, child);
  EXPECT_LT(child, other);
}

/// registered_domain drives the paper's per-suffix (TLD+1) indexing.
struct RegDomainCase {
  const char* input;
  const char* expected;
};

/// Names each case after its input: the default printer dumps the struct's
/// bytes, pointers included, so test names would change with every build.
void PrintTo(const RegDomainCase& c, std::ostream* os) { *os << '"' << c.input << '"'; }

class RegisteredDomain : public ::testing::TestWithParam<RegDomainCase> {};

TEST_P(RegisteredDomain, Extracts) {
  EXPECT_EQ(DnsName::must_parse(GetParam().input).registered_domain().to_canonical_string(),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RegisteredDomain,
    ::testing::Values(RegDomainCase{"brians-iphone.wifi.uni.edu", "uni.edu"},
                      RegDomainCase{"uni.edu", "uni.edu"},
                      RegDomainCase{"edu", "edu"},
                      RegDomainCase{"host.dept.college.ac.uk", "college.ac.uk"},
                      RegDomainCase{"a.b.c.someisp.com", "someisp.com"},
                      RegDomainCase{"x.co.jp", "x.co.jp"}));

TEST(DnsName, WireLength) {
  // 3www7example3com0 -> 1+3 + 1+7 + 1+3 + 1 = 17.
  EXPECT_EQ(DnsName::must_parse("www.example.com").wire_length(), 17u);
}

TEST(IsValidLabel, Rules) {
  EXPECT_TRUE(is_valid_label("abc-123"));
  EXPECT_TRUE(is_valid_label("a"));
  EXPECT_FALSE(is_valid_label(""));
  EXPECT_FALSE(is_valid_label(std::string(64, 'a')));
  EXPECT_FALSE(is_valid_label("has space"));
  EXPECT_FALSE(is_valid_label("quote'"));
}

TEST(DnsName, HashConsistentWithEquality) {
  const std::hash<DnsName> h;
  EXPECT_EQ(h(DnsName::must_parse("A.B.C")), h(DnsName::must_parse("a.b.c")));
}

}  // namespace
}  // namespace rdns::dns

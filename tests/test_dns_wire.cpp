/// Tests for the RFC 1035 wire codec: round trips across record types,
/// name compression, and robustness against malformed input.

#include "dns/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/arpa.hpp"
#include "util/rng.hpp"

namespace rdns::dns {
namespace {

Message sample_ptr_response() {
  Message query = make_ptr_query(0x1234, net::Ipv4Addr::must_parse("10.10.128.7"));
  Message response = make_response(query, Rcode::NoError);
  response.answers.push_back(make_ptr(query.questions[0].qname,
                                      DnsName::must_parse("brians-iphone.wifi.x.edu"), 300));
  return response;
}

TEST(Wire, HeaderRoundTrip) {
  Message m;
  m.id = 0xBEEF;
  m.flags.qr = true;
  m.flags.aa = true;
  m.flags.rd = true;
  m.flags.ra = true;
  m.flags.opcode = Opcode::Update;
  m.flags.rcode = Rcode::NxDomain;
  const Message decoded = decode(encode(m));
  EXPECT_EQ(decoded, m);
}

TEST(Wire, PtrQueryRoundTrip) {
  const Message query = make_ptr_query(7, net::Ipv4Addr::must_parse("93.184.216.34"));
  const Message decoded = decode(encode(query));
  EXPECT_EQ(decoded, query);
  EXPECT_EQ(decoded.questions[0].qname.to_canonical_string(),
            "34.216.184.93.in-addr.arpa");
  EXPECT_EQ(decoded.questions[0].qtype, RrType::PTR);
}

TEST(Wire, FullResponseRoundTrip) {
  const Message m = sample_ptr_response();
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(Wire, AllRdataTypesRoundTrip) {
  const DnsName owner = DnsName::must_parse("x.example.com");
  Message m;
  m.id = 1;
  m.answers.push_back(make_a(owner, net::Ipv4Addr::must_parse("192.0.2.1"), 60));
  m.answers.push_back(make_ns(owner, DnsName::must_parse("ns1.example.com")));
  m.answers.push_back(
      ResourceRecord{owner, RrClass::IN, 60, CnameRdata{DnsName::must_parse("y.example.com")}});
  m.answers.push_back(make_soa(owner, SoaRdata{DnsName::must_parse("ns1.example.com"),
                                               DnsName::must_parse("hostmaster.example.com"),
                                               2021, 7200, 900, 1209600, 300}));
  m.answers.push_back(make_ptr(owner, DnsName::must_parse("target.example.com")));
  m.answers.push_back(make_txt(owner, {"hello", "world"}));
  m.answers.push_back(ResourceRecord{owner, RrClass::IN, 60, RawRdata{999, {1, 2, 3}}});
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(Wire, CompressionShrinksRepeatedSuffixes) {
  Message m;
  m.id = 2;
  const DnsName suffix = DnsName::must_parse("very-long-domain-name.example.edu");
  for (int i = 0; i < 10; ++i) {
    m.answers.push_back(make_ptr(suffix.prepend("h" + std::to_string(i)), suffix));
  }
  const auto wire = encode(m);
  // Without compression each of the 20 names would re-encode the 35-octet
  // suffix; with compression the total must be far smaller.
  std::size_t uncompressed_estimate = 12;
  for (const auto& rr : m.answers) {
    uncompressed_estimate += rr.name.wire_length() + 10 +
                             std::get<PtrRdata>(rr.rdata).ptrdname.wire_length();
  }
  EXPECT_LT(wire.size(), uncompressed_estimate / 2);
  EXPECT_EQ(decode(wire), m);
}

TEST(Wire, CompressionPreservesCase) {
  Message m;
  m.id = 3;
  m.questions.push_back(Question{DnsName::must_parse("MiXeD.Example.COM"), RrType::A,
                                 RrClass::IN});
  m.answers.push_back(make_a(DnsName::must_parse("other.example.com"),
                             net::Ipv4Addr::must_parse("192.0.2.5")));
  const Message decoded = decode(encode(m));
  // The question keeps its case; the answer name may be compressed against
  // it but equality is case-insensitive anyway.
  EXPECT_EQ(decoded.questions[0].qname.to_string(), "MiXeD.Example.COM");
  EXPECT_EQ(decoded.answers[0].name, m.answers[0].name);
}

TEST(Wire, EmptyRdataTombstoneRoundTrip) {
  // RFC 2136 delete-RRset: class ANY, TTL 0, empty RDATA of the RRset type.
  Message m;
  m.id = 4;
  m.flags.opcode = Opcode::Update;
  m.questions.push_back(
      Question{DnsName::must_parse("128.10.in-addr.arpa"), RrType::SOA, RrClass::IN});
  ResourceRecord tombstone;
  tombstone.name = DnsName::must_parse("7.0.128.10.in-addr.arpa");
  tombstone.klass = RrClass::ANY;
  tombstone.ttl = 0;
  tombstone.rdata = RawRdata{static_cast<std::uint16_t>(RrType::PTR), {}};
  m.authority.push_back(tombstone);
  const Message decoded = decode(encode(m));
  ASSERT_EQ(decoded.authority.size(), 1u);
  EXPECT_EQ(decoded.authority[0].type(), RrType::PTR);
  EXPECT_EQ(decoded.authority[0].klass, RrClass::ANY);
  EXPECT_TRUE(std::get<RawRdata>(decoded.authority[0].rdata).data.empty());
}

TEST(Wire, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> short_wire{1, 2, 3};
  EXPECT_THROW((void)decode(short_wire), WireError);
}

TEST(Wire, RejectsTruncatedQuestion) {
  auto wire = encode(make_query(1, DnsName::must_parse("a.example.com"), RrType::A));
  wire.resize(wire.size() - 3);
  EXPECT_THROW((void)decode(wire), WireError);
}

TEST(Wire, RejectsCompressionLoop) {
  // Header claiming 1 question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;  // qdcount = 1
  wire.push_back(0xC0);
  wire.push_back(12);  // pointer to offset 12 (itself)
  wire.push_back(0);
  wire.push_back(1);
  wire.push_back(0);
  wire.push_back(1);
  EXPECT_THROW((void)decode(wire), WireError);
}

TEST(Wire, RejectsOutOfRangePointer) {
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;
  wire.push_back(0xC3);  // pointer to offset 0x3FF (past the end)
  wire.push_back(0xFF);
  wire.push_back(0);
  wire.push_back(1);
  wire.push_back(0);
  wire.push_back(1);
  EXPECT_THROW((void)decode(wire), WireError);
}

TEST(Wire, RejectsBadARdataLength) {
  Message m;
  m.id = 9;
  m.answers.push_back(ResourceRecord{DnsName::must_parse("x.com"), RrClass::IN, 60,
                                     RawRdata{static_cast<std::uint16_t>(RrType::A), {1, 2}}});
  const auto wire = encode(m);
  EXPECT_THROW((void)decode(wire), WireError);
}

/// Fuzz-ish robustness: decoding arbitrary corruptions must either succeed
/// or throw WireError — never crash or loop.
class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, NeverCrashes) {
  auto wire = encode(sample_ptr_response());
  util::Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    auto corrupted = wire;
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      corrupted[rng.index(corrupted.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    try {
      (void)decode(corrupted);
    } catch (const WireError&) {
      // acceptable
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -- scan_query ----------------------------------------------------------

TEST(ScanQuery, ParsesWellFormedQuestion) {
  Message q = make_query(7, DnsName::must_parse("STATS.rdns"), RrType::TXT);
  q.questions.front().qclass = RrClass::CH;
  const auto wire = encode(q);
  const QueryView v = scan_query(wire);
  ASSERT_EQ(v.question, QueryView::Question::Clean);
  EXPECT_EQ(v.id, 7);
  EXPECT_EQ(v.qtype, static_cast<std::uint16_t>(RrType::TXT));
  EXPECT_EQ(v.qclass, static_cast<std::uint16_t>(RrClass::CH));
  ASSERT_EQ(v.label_count, 2u);
  EXPECT_EQ(v.label(0), "STATS");  // the client's bytes, case kept
  EXPECT_EQ(v.label(1), "rdns");
  EXPECT_EQ(v.question_end, wire.size());
  EXPECT_FALSE(v.edns);
}

TEST(ScanQuery, RejectsMalformedPayloads) {
  // Too short for a header.
  const std::vector<std::uint8_t> stub(11, 0);
  EXPECT_FALSE(scan_query(stub).header);
  EXPECT_EQ(scan_query(stub).question, QueryView::Question::None);
  // Header claims a question but the name runs off the end.
  std::vector<std::uint8_t> truncated(14, 0);
  truncated[5] = 1;   // qdcount = 1
  truncated[12] = 9;  // label of 9 bytes, only 1 present
  EXPECT_EQ(scan_query(truncated).question, QueryView::Question::Malformed);
  EXPECT_EQ(scan_query(truncated).question_end, 0u);
  // Compression pointer (0xC0) in a query name is noted, not chased.
  std::vector<std::uint8_t> compressed(18, 0);
  compressed[5] = 1;
  compressed[12] = 0xC0;
  compressed[13] = 0x0C;
  EXPECT_EQ(scan_query(compressed).question, QueryView::Question::Compressed);
  EXPECT_EQ(scan_query(compressed).question_end, 0u);
  // A byte decode() refuses in a label: '\r' (0x0D) where "in-addr" has '-'.
  auto cr = encode(make_ptr_query(1, net::Ipv4Addr::must_parse("10.80.1.7")));
  *std::find(cr.begin() + 12, cr.end(), '-') = 0x0D;  // 7.1.80.10.in\raddr.arpa
  EXPECT_THROW((void)decode(cr), WireError);
  EXPECT_EQ(scan_query(cr).question, QueryView::Question::Malformed);
}

TEST(ScanQuery, QuestionEndMatchesEncodedQuery) {
  const auto wire = encode(make_ptr_query(1, net::Ipv4Addr::must_parse("10.80.1.1")));
  EXPECT_EQ(scan_query(wire).question_end, wire.size());
  EXPECT_EQ(scan_query(std::span<const std::uint8_t>{}).question_end, 0u);
  // No question: the section ends with the header.
  EXPECT_EQ(scan_query(encode(Message{})).question_end, 12u);
}

TEST(MessageText, RenderingContainsSections) {
  const std::string text = sample_ptr_response().to_string();
  EXPECT_NE(text.find("QUESTION"), std::string::npos);
  EXPECT_NE(text.find("ANSWER"), std::string::npos);
  EXPECT_NE(text.find("brians-iphone"), std::string::npos);
  EXPECT_NE(text.find("NOERROR"), std::string::npos);
}

}  // namespace
}  // namespace rdns::dns

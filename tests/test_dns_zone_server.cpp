/// Tests for zones, the authoritative server (answers, negative responses,
/// fault injection), dynamic updates and the stub resolver.

#include <gtest/gtest.h>

#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "dns/update.hpp"
#include "dns/wire.hpp"
#include "net/arpa.hpp"

namespace rdns::dns {
namespace {

SoaRdata test_soa() {
  SoaRdata soa;
  soa.mname = DnsName::must_parse("ns1.x.edu");
  soa.rname = DnsName::must_parse("hostmaster.x.edu");
  soa.serial = 100;
  return soa;
}

DnsName arpa_of(const char* ip) {
  return DnsName::must_parse(net::to_arpa(net::Ipv4Addr::must_parse(ip)));
}

TEST(Zone, AddFindRemove) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  const DnsName owner = arpa_of("10.128.1.7");
  zone.add(make_ptr(owner, DnsName::must_parse("brians-ipad.x.edu")));
  EXPECT_EQ(zone.find(owner, RrType::PTR).size(), 1u);
  EXPECT_TRUE(zone.has_name(owner));
  EXPECT_EQ(zone.remove(owner, RrType::PTR), 1u);
  EXPECT_TRUE(zone.find(owner, RrType::PTR).empty());
  EXPECT_FALSE(zone.has_name(owner));
}

TEST(Zone, DuplicateAddIgnored) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  const auto rr = make_ptr(arpa_of("10.128.1.7"), DnsName::must_parse("h.x.edu"));
  zone.add(rr);
  const auto serial = zone.serial();
  zone.add(rr);
  EXPECT_EQ(zone.serial(), serial);  // no change, no serial bump
  EXPECT_EQ(zone.find(rr.name, RrType::PTR).size(), 1u);
}

TEST(Zone, SerialBumpsOnMutation) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  const auto s0 = zone.serial();
  zone.add(make_ptr(arpa_of("10.128.1.7"), DnsName::must_parse("h.x.edu")));
  EXPECT_GT(zone.serial(), s0);
}

TEST(Zone, RejectsOutOfZoneOwner) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  EXPECT_THROW(zone.add(make_ptr(arpa_of("10.99.1.7"), DnsName::must_parse("h.x.edu"))),
               std::invalid_argument);
}

TEST(Zone, RemoveExactAndAll) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  const DnsName owner = arpa_of("10.128.1.7");
  const auto rr1 = make_ptr(owner, DnsName::must_parse("a.x.edu"));
  const auto rr2 = make_ptr(owner, DnsName::must_parse("b.x.edu"));
  zone.add(rr1);
  zone.add(rr2);
  EXPECT_TRUE(zone.remove_exact(rr1));
  EXPECT_FALSE(zone.remove_exact(rr1));
  EXPECT_EQ(zone.find(owner, RrType::PTR).size(), 1u);
  EXPECT_EQ(zone.remove_all(owner), 1u);
}

TEST(Zone, ApexSoaAlwaysFindable) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  const auto soa = zone.find(zone.origin(), RrType::SOA);
  ASSERT_EQ(soa.size(), 1u);
  EXPECT_TRUE(zone.has_name(zone.origin()));
}

TEST(Zone, NamesWithTypeAndForEach) {
  Zone zone{DnsName::must_parse("128.10.in-addr.arpa"), test_soa()};
  zone.add(make_ptr(arpa_of("10.128.0.1"), DnsName::must_parse("a.x.edu")));
  zone.add(make_ptr(arpa_of("10.128.0.2"), DnsName::must_parse("b.x.edu")));
  EXPECT_EQ(zone.names_with_type(RrType::PTR).size(), 2u);
  std::size_t ptrs = 0;
  zone.for_each([&ptrs](const ResourceRecord& rr) { ptrs += rr.type() == RrType::PTR; });
  EXPECT_EQ(ptrs, 2u);
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : zone_(server_.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa())) {
    zone_.add(make_ptr(arpa_of("10.128.1.7"), DnsName::must_parse("brians-mbp.x.edu"), 300));
  }

  AuthoritativeServer server_;
  Zone& zone_;
};

TEST_F(ServerFixture, AnswersPositive) {
  const auto response = server_.handle(make_ptr_query(1, net::Ipv4Addr::must_parse("10.128.1.7")));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->flags.rcode, Rcode::NoError);
  EXPECT_TRUE(response->flags.aa);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(std::get<PtrRdata>(response->answers[0].rdata).ptrdname.to_canonical_string(),
            "brians-mbp.x.edu");
  EXPECT_EQ(server_.stats().answered, 1u);
}

TEST_F(ServerFixture, NxDomainWithSoa) {
  const auto response = server_.handle(make_ptr_query(2, net::Ipv4Addr::must_parse("10.128.1.8")));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->flags.rcode, Rcode::NxDomain);
  ASSERT_EQ(response->authority.size(), 1u);
  EXPECT_EQ(response->authority[0].type(), RrType::SOA);
  EXPECT_EQ(server_.stats().nxdomain, 1u);
}

TEST_F(ServerFixture, NoDataForWrongType) {
  const auto response =
      server_.handle(make_query(3, arpa_of("10.128.1.7"), RrType::A));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->flags.rcode, Rcode::NoError);
  EXPECT_TRUE(response->answers.empty());
  EXPECT_EQ(server_.stats().nodata, 1u);
}

TEST_F(ServerFixture, RefusesOutOfZone) {
  const auto response = server_.handle(make_ptr_query(4, net::Ipv4Addr::must_parse("10.99.1.1")));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->flags.rcode, Rcode::Refused);
}

TEST_F(ServerFixture, ReadonlyDropsResponsesAndAnswersOtherOpcodesNotImp) {
  ServerStats stats;
  Message notify = make_ptr_query(5, net::Ipv4Addr::must_parse("10.128.1.7"));
  notify.flags.opcode = static_cast<Opcode>(4);  // NOTIFY (RFC 1996)
  const auto notimp = server_.handle_readonly(notify, stats);
  ASSERT_TRUE(notimp.has_value());
  EXPECT_EQ(notimp->flags.rcode, Rcode::NotImp);
  EXPECT_EQ(notimp->flags.opcode, notify.flags.opcode);
  EXPECT_FALSE(notimp->flags.aa);
  EXPECT_TRUE(notimp->answers.empty());

  // A response aimed at the server gets no reply and counts as no query.
  Message response = make_ptr_query(6, net::Ipv4Addr::must_parse("10.128.1.7"));
  response.flags.qr = true;
  EXPECT_FALSE(server_.handle_readonly(response, stats).has_value());
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.answered, 0u);

  // UPDATE on the read path keeps its REFUSED.
  Message update = make_ptr_query(7, net::Ipv4Addr::must_parse("10.128.1.7"));
  update.flags.opcode = Opcode::Update;
  const auto refused = server_.handle_readonly(update, stats);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->flags.rcode, Rcode::Refused);
}

TEST_F(ServerFixture, UpdateAddAndDelete) {
  const auto owner_ip = net::Ipv4Addr::must_parse("10.128.2.2");
  const DnsName zone_origin = DnsName::must_parse("128.10.in-addr.arpa");
  const auto add = make_ptr_replace(10, zone_origin, owner_ip,
                                    DnsName::must_parse("emmas-galaxy.x.edu"), 300);
  const auto add_response = server_.handle(add);
  ASSERT_TRUE(add_response.has_value());
  EXPECT_EQ(add_response->flags.rcode, Rcode::NoError);
  EXPECT_EQ(zone_.find(arpa_of("10.128.2.2"), RrType::PTR).size(), 1u);

  const auto del = make_ptr_delete(11, zone_origin, owner_ip);
  ASSERT_TRUE(server_.handle(del).has_value());
  EXPECT_TRUE(zone_.find(arpa_of("10.128.2.2"), RrType::PTR).empty());
  EXPECT_EQ(server_.stats().updates, 2u);
}

TEST_F(ServerFixture, UpdateReplaceSwapsTarget) {
  const auto ip = net::Ipv4Addr::must_parse("10.128.1.7");
  const DnsName zone_origin = DnsName::must_parse("128.10.in-addr.arpa");
  (void)server_.handle(
      make_ptr_replace(12, zone_origin, ip, DnsName::must_parse("host-10-128-1-7.dyn.x.edu"), 300));
  const auto records = zone_.find(arpa_of("10.128.1.7"), RrType::PTR);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<PtrRdata>(records[0].rdata).ptrdname.to_canonical_string(),
            "host-10-128-1-7.dyn.x.edu");
}

TEST_F(ServerFixture, UpdateDeleteExact) {
  const DnsName owner = arpa_of("10.128.3.3");
  zone_.add(make_ptr(owner, DnsName::must_parse("a.x.edu")));
  zone_.add(make_ptr(owner, DnsName::must_parse("b.x.edu")));
  UpdateBuilder builder{13, DnsName::must_parse("128.10.in-addr.arpa")};
  builder.delete_exact(make_ptr(owner, DnsName::must_parse("a.x.edu")));
  ASSERT_TRUE(server_.handle(builder.build()).has_value());
  const auto left = zone_.find(owner, RrType::PTR);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(std::get<PtrRdata>(left[0].rdata).ptrdname.to_canonical_string(), "b.x.edu");
}

TEST_F(ServerFixture, UpdateDeleteName) {
  const DnsName owner = arpa_of("10.128.4.4");
  zone_.add(make_ptr(owner, DnsName::must_parse("a.x.edu")));
  zone_.add(make_txt(owner, {"meta"}));
  UpdateBuilder builder{14, DnsName::must_parse("128.10.in-addr.arpa")};
  builder.delete_name(owner);
  ASSERT_TRUE(server_.handle(builder.build()).has_value());
  EXPECT_FALSE(zone_.has_name(owner));
}

TEST_F(ServerFixture, UpdateRejectsWrongZone) {
  const auto update = make_ptr_replace(15, DnsName::must_parse("99.10.in-addr.arpa"),
                                       net::Ipv4Addr::must_parse("10.99.0.1"),
                                       DnsName::must_parse("x.y"), 300);
  const auto response = server_.handle(update);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->flags.rcode, Rcode::NotZone);
}

TEST(ServerFaults, InjectsServFailAndTimeouts) {
  AuthoritativeServer server{FaultPolicy{0.5, 0.2}, 42};
  server.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa());
  int servfail = 0, timeout = 0, other = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto r = server.handle(make_ptr_query(static_cast<std::uint16_t>(i),
                                                net::Ipv4Addr::must_parse("10.128.0.1")));
    if (!r) ++timeout;
    else if (r->flags.rcode == Rcode::ServFail) ++servfail;
    else ++other;
  }
  EXPECT_NEAR(timeout / 2000.0, 0.2, 0.05);
  EXPECT_NEAR(servfail / 2000.0, 0.5 * 0.8, 0.05);
  EXPECT_EQ(server.stats().timeouts_injected, static_cast<std::uint64_t>(timeout));
}

TEST(Resolver, PositiveLookupThroughWire) {
  AuthoritativeServer server;
  Zone& zone = server.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa());
  zone.add(make_ptr(arpa_of("10.128.1.7"), DnsName::must_parse("brians-air.x.edu")));
  LoopbackTransport transport{server};
  StubResolver resolver{transport};
  const auto result = resolver.lookup_ptr(net::Ipv4Addr::must_parse("10.128.1.7"), 0);
  EXPECT_EQ(result.status, LookupStatus::Ok);
  ASSERT_TRUE(result.ptr.has_value());
  EXPECT_EQ(result.ptr->to_canonical_string(), "brians-air.x.edu");
  EXPECT_EQ(resolver.stats().ok, 1u);
}

TEST(Resolver, ClassifiesNegativeOutcomes) {
  AuthoritativeServer server;
  server.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa());
  LoopbackTransport transport{server};
  StubResolver resolver{transport};
  EXPECT_EQ(resolver.lookup_ptr(net::Ipv4Addr::must_parse("10.128.1.1"), 0).status,
            LookupStatus::NxDomain);
  EXPECT_EQ(resolver.lookup_ptr(net::Ipv4Addr::must_parse("10.99.0.1"), 0).status,
            LookupStatus::Refused);
}

TEST(Resolver, RetriesOnTimeoutThenGivesUp) {
  AuthoritativeServer server{FaultPolicy{0.0, 1.0}};  // always times out
  server.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa());
  LoopbackTransport transport{server};
  StubResolver resolver{transport, /*retries=*/2};
  const auto result = resolver.lookup_ptr(net::Ipv4Addr::must_parse("10.128.1.1"), 0);
  EXPECT_EQ(result.status, LookupStatus::Timeout);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(resolver.stats().timeout, 1u);
  EXPECT_EQ(resolver.stats().queries_sent, 3u);
}

TEST(Server, FindZonePicksMostSpecific) {
  AuthoritativeServer server;
  server.add_zone(DnsName::must_parse("10.in-addr.arpa"), test_soa());
  Zone& specific = server.add_zone(DnsName::must_parse("128.10.in-addr.arpa"), test_soa());
  EXPECT_EQ(server.find_zone(arpa_of("10.128.1.1")), &specific);
  EXPECT_EQ(server.zone_count(), 2u);
}

}  // namespace
}  // namespace rdns::dns

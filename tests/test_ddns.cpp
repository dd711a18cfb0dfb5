/// Tests for the DHCP→DNS bridge: hostname sanitization (the step that
/// turns "Brian's iPhone" into a public DNS label), the policy spectrum,
/// removal behaviours and RFC 4702 N-flag handling.

#include "dhcp/ddns.hpp"

#include <gtest/gtest.h>

#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "net/arpa.hpp"
#include "util/rng.hpp"

namespace rdns::dhcp {
namespace {

struct SanitizeCase {
  const char* input;
  const char* expected;
};

/// Names each case after its expected label (always plain ASCII, unlike
/// some inputs): the default printer dumps the struct's bytes, pointers
/// included, so test names would change with every build.
void PrintTo(const SanitizeCase& c, std::ostream* os) { *os << '"' << c.expected << '"'; }

class Sanitize : public ::testing::TestWithParam<SanitizeCase> {};

TEST_P(Sanitize, ProducesDnsLabel) {
  EXPECT_EQ(sanitize_hostname(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Sanitize,
    ::testing::Values(SanitizeCase{"Brian's iPhone", "brians-iphone"},
                      SanitizeCase{"Brian\xE2\x80\x99s iPad", "brians-ipad"},  // U+2019
                      SanitizeCase{"Brians-Galaxy-Note9", "brians-galaxy-note9"},
                      SanitizeCase{"DESKTOP-4F2K9QX", "desktop-4f2k9qx"},
                      SanitizeCase{"LAPTOP  WITH   SPACES", "laptop-with-spaces"},
                      SanitizeCase{"trailing-", "trailing"},
                      SanitizeCase{"__weird__", "weird"},
                      SanitizeCase{"", ""}));

TEST(Sanitize, ClampsTo63Octets) {
  const std::string long_name(100, 'a');
  EXPECT_EQ(sanitize_hostname(long_name).size(), 63u);
}

TEST(HashedLabel, StablePerMacAndOpaque) {
  util::Rng rng{5};
  const net::Mac m = net::Mac::random(net::MacVendor::Apple, rng);
  const std::string h1 = hashed_label(m);
  EXPECT_EQ(h1, hashed_label(m));
  EXPECT_EQ(h1.rfind("h-", 0), 0u);
  EXPECT_EQ(h1.size(), 14u);  // "h-" + 12 hex digits
  const net::Mac other = net::Mac::random(net::MacVendor::Apple, rng);
  EXPECT_NE(h1, hashed_label(other));
}

TEST(GenericLabel, FixedForm) {
  EXPECT_EQ(generic_label(net::Ipv4Addr::must_parse("10.131.4.27")), "host-10-131-4-27");
}

class BridgeFixture : public ::testing::Test {
 protected:
  BridgeFixture()
      : zone_(server_.add_zone(dns::DnsName::must_parse("131.10.in-addr.arpa"),
                               dns::SoaRdata{dns::DnsName::must_parse("ns1.x.edu"),
                                             dns::DnsName::must_parse("hostmaster.x.edu")})),
        transport_(server_) {}

  DdnsConfig config(DdnsPolicy policy, RemovalBehavior removal = RemovalBehavior::RemovePtr) {
    DdnsConfig c;
    c.policy = policy;
    c.removal = removal;
    c.reverse_zone = dns::DnsName::must_parse("131.10.in-addr.arpa");
    c.domain_suffix = dns::DnsName::must_parse("wifi.x.edu");
    c.generic_suffix = dns::DnsName::must_parse("dynamic.x.edu");
    return c;
  }

  Lease lease(const char* ip, const std::string& host_name) {
    Lease l;
    l.address = net::Ipv4Addr::must_parse(ip);
    util::Rng rng{static_cast<std::uint64_t>(l.address.value())};
    l.mac = net::Mac::random(net::MacVendor::Apple, rng);
    l.host_name = host_name;
    l.state = LeaseState::Bound;
    return l;
  }

  std::optional<std::string> ptr_of(const char* ip) {
    const auto records = zone_.find(
        dns::DnsName::must_parse(net::to_arpa(net::Ipv4Addr::must_parse(ip))), dns::RrType::PTR);
    if (records.empty()) return std::nullopt;
    return std::get<dns::PtrRdata>(records[0].rdata).ptrdname.to_canonical_string();
  }

  dns::AuthoritativeServer server_;
  dns::Zone& zone_;
  dns::LoopbackTransport transport_;
};

TEST_F(BridgeFixture, CarryOverPublishesSanitizedClientName) {
  DdnsBridge bridge{config(DdnsPolicy::CarryOverClientId), transport_};
  bridge.on_lease_bound(lease("10.131.4.27", "Brian's iPhone"), 100);
  EXPECT_EQ(ptr_of("10.131.4.27"), "brians-iphone.wifi.x.edu");
  EXPECT_EQ(bridge.stats().ptr_added, 1u);
}

TEST_F(BridgeFixture, CarryOverRemovesOnLeaseEnd) {
  DdnsBridge bridge{config(DdnsPolicy::CarryOverClientId), transport_};
  const Lease l = lease("10.131.4.27", "Brian's iPhone");
  bridge.on_lease_bound(l, 100);
  bridge.on_lease_end(l, LeaseEndReason::Release, 200);
  EXPECT_FALSE(ptr_of("10.131.4.27").has_value());
  EXPECT_EQ(bridge.stats().ptr_removed, 1u);
}

TEST_F(BridgeFixture, RevertToGenericKeepsARecordForm) {
  DdnsBridge bridge{config(DdnsPolicy::CarryOverClientId, RemovalBehavior::RevertToGeneric),
                    transport_};
  const Lease l = lease("10.131.4.27", "Brian's iPhone");
  bridge.on_lease_bound(l, 100);
  bridge.on_lease_end(l, LeaseEndReason::Expiry, 3700);
  EXPECT_EQ(ptr_of("10.131.4.27"), "host-10-131-4-27.dynamic.x.edu");
  EXPECT_EQ(bridge.stats().ptr_reverted, 1u);
}

TEST_F(BridgeFixture, EmptyHostNameFallsBackToGenericLabel) {
  DdnsBridge bridge{config(DdnsPolicy::CarryOverClientId), transport_};
  bridge.on_lease_bound(lease("10.131.4.30", ""), 100);
  EXPECT_EQ(ptr_of("10.131.4.30"), "host-10-131-4-30.wifi.x.edu");
}

TEST_F(BridgeFixture, HashedPolicyHidesIdentity) {
  DdnsBridge bridge{config(DdnsPolicy::HashedClientId), transport_};
  const Lease l = lease("10.131.4.28", "Brian's iPhone");
  bridge.on_lease_bound(l, 100);
  const auto ptr = ptr_of("10.131.4.28");
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->find("brian"), std::string::npos);
  EXPECT_EQ(ptr->rfind("h-", 0), 0u);
  // Still dynamic: removed at lease end.
  bridge.on_lease_end(l, LeaseEndReason::Release, 200);
  EXPECT_FALSE(ptr_of("10.131.4.28").has_value());
}

TEST_F(BridgeFixture, NonePolicyTouchesNothing) {
  DdnsBridge bridge{config(DdnsPolicy::None), transport_};
  const Lease l = lease("10.131.4.29", "Brian's iPhone");
  bridge.on_lease_bound(l, 100);
  bridge.on_lease_end(l, LeaseEndReason::Release, 200);
  EXPECT_FALSE(ptr_of("10.131.4.29").has_value());
  EXPECT_EQ(bridge.stats().ptr_added, 0u);
}

TEST_F(BridgeFixture, HonoursClientNoUpdateFlag) {
  DdnsConfig c = config(DdnsPolicy::CarryOverClientId);
  c.honor_no_update_flag = true;
  DdnsBridge bridge{c, transport_};
  Lease l = lease("10.131.4.31", "Brian's iPhone");
  l.client_fqdn = std::string{};  // convention for the N flag
  bridge.on_lease_bound(l, 100);
  EXPECT_FALSE(ptr_of("10.131.4.31").has_value());
  EXPECT_EQ(bridge.stats().suppressed_by_client_flag, 1u);
}

TEST_F(BridgeFixture, IgnoringClientFlagLeaksAnyway) {
  // The open question of Section 8: servers may not honour the client's
  // wish. Default config does not.
  DdnsBridge bridge{config(DdnsPolicy::CarryOverClientId), transport_};
  Lease l = lease("10.131.4.32", "Brian's iPhone");
  l.client_fqdn = std::string{};
  bridge.on_lease_bound(l, 100);
  EXPECT_TRUE(ptr_of("10.131.4.32").has_value());
}

TEST_F(BridgeFixture, PopulateStaticFillsRange) {
  DdnsBridge bridge{config(DdnsPolicy::StaticGeneric), transport_};
  bridge.populate_static(net::Ipv4Addr::must_parse("10.131.0.1"),
                         net::Ipv4Addr::must_parse("10.131.0.10"), 0);
  EXPECT_EQ(ptr_of("10.131.0.1"), "host-10-131-0-1.dynamic.x.edu");
  EXPECT_EQ(ptr_of("10.131.0.10"), "host-10-131-0-10.dynamic.x.edu");
  EXPECT_EQ(bridge.stats().update_failures, 0u);
}

TEST_F(BridgeFixture, StaticGenericIgnoresLeaseEvents) {
  DdnsBridge bridge{config(DdnsPolicy::StaticGeneric), transport_};
  bridge.populate_static(net::Ipv4Addr::must_parse("10.131.1.1"),
                         net::Ipv4Addr::must_parse("10.131.1.1"), 0);
  const Lease l = lease("10.131.1.1", "Brian's iPhone");
  bridge.on_lease_bound(l, 100);
  bridge.on_lease_end(l, LeaseEndReason::Release, 200);
  // The fixed-form record never changed: dynamic DHCP, static rDNS.
  EXPECT_EQ(ptr_of("10.131.1.1"), "host-10-131-1-1.dynamic.x.edu");
}

TEST_F(BridgeFixture, UpdateFailureCounted) {
  DdnsConfig c = config(DdnsPolicy::CarryOverClientId);
  c.reverse_zone = dns::DnsName::must_parse("99.10.in-addr.arpa");  // not hosted
  DdnsBridge bridge{c, transport_};
  Lease l = lease("10.131.4.40", "X");
  l.address = net::Ipv4Addr::must_parse("10.99.4.40");
  bridge.on_lease_bound(l, 100);
  EXPECT_EQ(bridge.stats().update_failures, 1u);
}

TEST(PublishedName, ReflectsPolicy) {
  dns::AuthoritativeServer server;
  dns::LoopbackTransport transport{server};
  DdnsConfig c;
  c.policy = DdnsPolicy::CarryOverClientId;
  c.reverse_zone = dns::DnsName::must_parse("131.10.in-addr.arpa");
  c.domain_suffix = dns::DnsName::must_parse("wifi.x.edu");
  c.generic_suffix = dns::DnsName::must_parse("dynamic.x.edu");
  DdnsBridge bridge{c, transport};
  Lease l;
  l.address = net::Ipv4Addr::must_parse("10.131.0.5");
  l.host_name = "Emma's MacBook Air";
  const auto name = bridge.published_name(l);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->to_canonical_string(), "emmas-macbook-air.wifi.x.edu");
}

}  // namespace
}  // namespace rdns::dhcp

namespace rdns::dhcp {
namespace {

TEST(ForwardDdns, AddsAndRemovesARecords) {
  dns::AuthoritativeServer server;
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("ns1.x.edu");
  soa.rname = dns::DnsName::must_parse("hostmaster.x.edu");
  server.add_zone(dns::DnsName::must_parse("131.10.in-addr.arpa"), soa);
  dns::Zone& forward = server.add_zone(dns::DnsName::must_parse("x.edu"), soa);
  dns::LoopbackTransport transport{server};

  DdnsConfig config;
  config.policy = DdnsPolicy::CarryOverClientId;
  config.reverse_zone = dns::DnsName::must_parse("131.10.in-addr.arpa");
  config.forward_zone = dns::DnsName::must_parse("x.edu");
  config.domain_suffix = dns::DnsName::must_parse("wifi.x.edu");
  config.generic_suffix = dns::DnsName::must_parse("dynamic.x.edu");
  DdnsBridge bridge{config, transport};

  Lease lease;
  lease.address = net::Ipv4Addr::must_parse("10.131.4.50");
  util::Rng rng{50};
  lease.mac = net::Mac::random(net::MacVendor::Apple, rng);
  lease.host_name = "Brian's iPhone";
  lease.state = LeaseState::Bound;

  bridge.on_lease_bound(lease, 100);
  const dns::DnsName fqdn = dns::DnsName::must_parse("brians-iphone.wifi.x.edu");
  const auto a_records = forward.find(fqdn, dns::RrType::A);
  ASSERT_EQ(a_records.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(a_records[0].rdata).address, lease.address);
  EXPECT_EQ(bridge.stats().a_added, 1u);

  bridge.on_lease_end(lease, LeaseEndReason::Release, 200);
  EXPECT_TRUE(forward.find(fqdn, dns::RrType::A).empty());
  EXPECT_EQ(bridge.stats().a_removed, 1u);
}

TEST(ForwardDdns, DisabledByDefault) {
  dns::AuthoritativeServer server;
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("ns1.x.edu");
  soa.rname = dns::DnsName::must_parse("h.x.edu");
  server.add_zone(dns::DnsName::must_parse("131.10.in-addr.arpa"), soa);
  dns::LoopbackTransport transport{server};
  DdnsConfig config;
  config.policy = DdnsPolicy::CarryOverClientId;
  config.reverse_zone = dns::DnsName::must_parse("131.10.in-addr.arpa");
  config.domain_suffix = dns::DnsName::must_parse("wifi.x.edu");
  DdnsBridge bridge{config, transport};
  Lease lease;
  lease.address = net::Ipv4Addr::must_parse("10.131.4.51");
  util::Rng rng{51};
  lease.mac = net::Mac::random(net::MacVendor::Apple, rng);
  lease.host_name = "X";
  bridge.on_lease_bound(lease, 0);
  EXPECT_EQ(bridge.stats().a_added, 0u);
  EXPECT_EQ(bridge.stats().update_failures, 0u);
}

}  // namespace
}  // namespace rdns::dhcp

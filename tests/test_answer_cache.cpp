/// AnswerCache: byte-parity of assembled replies against the reference
/// codec path (encode(handle_readonly(query))), probe classification of
/// cacheable vs handler-bound queries, EDNS OPT probing, the wire
/// post-processing helpers, and the serve-loop integration — cache-on vs
/// cache-off replies byte-identical over real sockets, and epoch-bump
/// invalidation swapping the whole image under a query stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/answer_cache.hpp"
#include "dns/message.hpp"
#include "dns/server.hpp"
#include "dns/udp_server.hpp"
#include "dns/wire.hpp"
#include "dns/zone.hpp"
#include "net/arpa.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"

namespace rdns::dns {
namespace {

SoaRdata test_soa() {
  SoaRdata soa;
  soa.mname = DnsName::must_parse("ns1.x.edu");
  soa.rname = DnsName::must_parse("hostmaster.x.edu");
  soa.serial = 100;
  return soa;
}

constexpr RrType kOpt = static_cast<RrType>(41);

net::Ipv4Addr addr(std::uint32_t v) { return net::Ipv4Addr{v}; }

/// A server hosting 10.80/16 with generic PTRs over 10.80.0.0–10.80.3.255
/// (the rest of the /16 answers NXDOMAIN). `suffix` varies per server so
/// invalidation tests can tell two generations apart.
std::unique_ptr<AuthoritativeServer> make_server(const char* suffix) {
  auto server = std::make_unique<AuthoritativeServer>();
  server->add_zone(DnsName::must_parse("80.10.in-addr.arpa"), test_soa());
  server->populate_generic(net::Ipv4Addr::must_parse("10.80.0.0"),
                           net::Ipv4Addr::must_parse("10.80.3.255"),
                           DnsName::must_parse(suffix), 3600);
  return server;
}

/// 24 PTRs with long targets at `owner`: an answer of about 1.1 KB, over
/// the classic 512 bytes and under a 4096-byte EDNS buffer.
void add_oversize_owner(Zone& zone, const DnsName& owner) {
  for (int i = 0; i < 24; ++i) {
    zone.add(make_ptr(owner, DnsName::must_parse(
                                 "very-long-hostname-number-" + std::to_string(i) +
                                 ".some-deep.subdomain.example-university.edu")));
  }
}

std::shared_ptr<const AnswerCache> cache_over(const AuthoritativeServer& server,
                                              const char* first = "10.80.0.0",
                                              const char* last = "10.80.255.255") {
  return AnswerCache::build({{&server, net::Ipv4Addr::must_parse(first),
                              net::Ipv4Addr::must_parse(last)}});
}

/// Reference reply through the codec path, as the serve loop's handler
/// would produce it.
std::vector<std::uint8_t> codec_reply(const AuthoritativeServer& server,
                                      std::span<const std::uint8_t> query) {
  ServerStats scratch;
  const auto response = server.handle_readonly(decode(query), scratch);
  EXPECT_TRUE(response.has_value());
  return encode(*response);
}

std::vector<std::uint8_t> cache_reply(const AnswerCache& cache,
                                      std::span<const std::uint8_t> query) {
  const AnswerCache::Probe p = cache.probe(query);
  EXPECT_TRUE(p.hit);
  std::vector<std::uint8_t> out(AnswerCache::reply_size(p));
  const std::size_t n = AnswerCache::assemble(p, query, out.data());
  out.resize(n);
  return out;
}

// -- byte parity ---------------------------------------------------------

TEST(AnswerCache, AssembledRepliesMatchCodecByteForByte) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  // Announced range sampled with a deterministic stride: populated
  // addresses (NOERROR + PTR), empty ones (NXDOMAIN + SOA), varying ids.
  util::Rng rng{0xCACE};
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t host = static_cast<std::uint32_t>(rng.next() & 0xFFFF);
    const auto id = static_cast<std::uint16_t>(rng.next());
    Message q = make_ptr_query(id, addr((10u << 24) | (80u << 16) | host));
    if ((i & 1) != 0) q.flags.rd = false;  // parity must hold for both RD states
    const auto wire = encode(q);
    EXPECT_EQ(cache_reply(*cache, wire), codec_reply(*server, wire))
        << "host offset " << host;
  }
}

TEST(AnswerCache, MixedCaseQnamePreservesCodecParity) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  Message q = make_query(0xBEEF, DnsName::must_parse("7.0.80.10.IN-aDdR.Arpa"),
                         RrType::PTR);
  const auto wire = encode(q);
  const auto cached = cache_reply(*cache, wire);
  EXPECT_EQ(cached, codec_reply(*server, wire));
  // The echoed question keeps the client's exact casing.
  const Message reply = decode(cached);
  EXPECT_EQ(reply.questions[0].qname.to_string(), "7.0.80.10.IN-aDdR.Arpa");
  EXPECT_EQ(reply.flags.rcode, Rcode::NoError);
  ASSERT_EQ(reply.answers.size(), 1u);
}

TEST(AnswerCache, NxDomainEntryCarriesSoaAuthority) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  const auto wire = encode(make_ptr_query(7, net::Ipv4Addr::must_parse("10.80.200.200")));
  const auto cached = cache_reply(*cache, wire);
  EXPECT_EQ(cached, codec_reply(*server, wire));
  const Message reply = decode(cached);
  EXPECT_EQ(reply.flags.rcode, Rcode::NxDomain);
  ASSERT_EQ(reply.authority.size(), 1u);
  EXPECT_EQ(reply.authority[0].type(), RrType::SOA);
}

TEST(AnswerCache, EveryHostOfASplitSlash16MatchesTheCodec) {
  // Server A: generic PTR runs whose owners fall in all five question-length
  // classes (third and fourth octets of 1, 2 and 3 digits), the 24-PTR
  // owner, NODATA owners (a TXT and an A record with no PTR) and an owner
  // holding both a PTR and a TXT.
  const auto a = make_server("one.test");
  Zone& zone_a = *a->find_zone(DnsName::must_parse("80.10.in-addr.arpa"));
  for (const char* first : {"10.80.42.0", "10.80.100.0"}) {
    const net::Ipv4Addr lo = net::Ipv4Addr::must_parse(first);
    a->populate_generic(lo, lo + 0xFF, DnsName::must_parse("one.test"), 3600);
  }
  add_oversize_owner(zone_a, DnsName::must_parse("1.99.80.10.in-addr.arpa"));
  zone_a.add(make_txt(DnsName::must_parse("7.9.80.10.in-addr.arpa"), {"printer"}));
  zone_a.add(make_a(DnsName::must_parse("200.120.80.10.in-addr.arpa"),
                    net::Ipv4Addr::must_parse("10.80.120.200")));
  zone_a.add(make_txt(DnsName::must_parse("5.1.80.10.in-addr.arpa"), {"lab"}));

  // Server B: its own copy of the zone under another SOA.
  AuthoritativeServer b;
  SoaRdata soa_b = test_soa();
  soa_b.mname = DnsName::must_parse("ns.other.example");
  soa_b.rname = DnsName::must_parse("dns-admin.other.example");
  soa_b.minimum = 60;
  b.add_zone(DnsName::must_parse("80.10.in-addr.arpa"), soa_b);
  b.populate_generic(net::Ipv4Addr::must_parse("10.80.200.0"),
                     net::Ipv4Addr::must_parse("10.80.200.255"),
                     DnsName::must_parse("two.test"), 600);

  // A answers hosts 0x0000-0x7FFF, B 0x8000-0xEFFF; 0xF000-0xFFFF is not
  // announced.
  const auto cache = AnswerCache::build(
      {{a.get(), net::Ipv4Addr::must_parse("10.80.0.0"), net::Ipv4Addr::must_parse("10.80.127.255")},
       {&b, net::Ipv4Addr::must_parse("10.80.128.0"), net::Ipv4Addr::must_parse("10.80.239.255")}});
  EXPECT_EQ(cache->entry_count(), 0xF000u);

  int failures = 0;
  for (std::uint32_t host = 0; host < 0x10000 && failures < 20; ++host) {
    const net::Ipv4Addr address{(10u << 24) | (80u << 16) | host};
    const AuthoritativeServer* server =
        host < 0x8000 ? a.get() : host < 0xF000 ? &b : nullptr;
    std::string mixed = net::to_arpa(address);
    for (std::size_t i = mixed.find("in-addr"); i < mixed.size(); i += 2) {
      mixed[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(mixed[i])));
    }
    // Plain with RD=1, plain with RD=0, mixed case.
    for (int variant = 0; variant < 3; ++variant) {
      const auto id = static_cast<std::uint16_t>(host * 3 + static_cast<std::uint32_t>(variant));
      Message q = variant == 2 ? make_query(id, DnsName::must_parse(mixed), RrType::PTR)
                               : make_ptr_query(id, address);
      q.flags.rd = variant == 0;
      const auto wire = encode(q);
      const AnswerCache::Probe p = cache->probe(wire);
      if (server == nullptr) {
        if (p.hit) {
          ADD_FAILURE() << "uncovered host " << address.to_string() << " hit, variant " << variant;
          ++failures;
        }
        continue;
      }
      if (!p.hit) {
        ADD_FAILURE() << "covered host " << address.to_string() << " missed, variant " << variant;
        ++failures;
        continue;
      }
      std::vector<std::uint8_t> assembled(AnswerCache::reply_size(p));
      assembled.resize(AnswerCache::assemble(p, wire, assembled.data()));
      if (assembled != codec_reply(*server, wire)) {
        ADD_FAILURE() << "host " << address.to_string() << " differs from the codec, variant "
                      << variant;
        ++failures;
      }
    }
  }
}

TEST(AnswerCache, LongerZonesAndSelfReferentialSoaStayWithTheHandler) {
  // find_zone answers 10.80.7.0/24 from its own zone: a /16 whose server
  // hosts a zone under it is left to the handler whole. 81.10's SOA MNAME
  // ends in the zone's origin and may compress against the qname's own
  // labels: its owners are cached, its NXDOMAIN hosts are not.
  const auto server = make_server("one.test");
  server->add_zone(DnsName::must_parse("7.80.10.in-addr.arpa"), test_soa());
  SoaRdata self = test_soa();
  self.mname = DnsName::must_parse("ns.1.81.10.in-addr.arpa");
  Zone& zone = server->add_zone(DnsName::must_parse("81.10.in-addr.arpa"), self);
  zone.add(make_ptr(DnsName::must_parse("5.1.81.10.in-addr.arpa"),
                    DnsName::must_parse("host.x.edu")));
  zone.add(make_txt(DnsName::must_parse("9.1.81.10.in-addr.arpa"), {"nodata"}));
  const auto cache = cache_over(*server, "10.80.0.0", "10.81.255.255");
  EXPECT_EQ(cache->entry_count(), 2u);

  for (const char* host : {"10.80.7.1", "10.80.1.1", "10.80.200.9", "10.81.1.6"}) {
    EXPECT_FALSE(cache->probe(encode(make_ptr_query(1, net::Ipv4Addr::must_parse(host)))).hit)
        << host;
  }
  for (const char* host : {"10.81.1.5", "10.81.1.9"}) {
    const auto wire = encode(make_ptr_query(2, net::Ipv4Addr::must_parse(host)));
    EXPECT_EQ(cache_reply(*cache, wire), codec_reply(*server, wire)) << host;
  }
}

// -- probe classification ------------------------------------------------

TEST(AnswerCache, ProbeMissesOutsideBuiltRanges) {
  const auto server = make_server("one.test");
  // Cache only covers 10.80.0.0/18-ish; the rest of the /16 the server
  // *could* answer must still fall through to the handler.
  const auto cache = cache_over(*server, "10.80.0.0", "10.80.63.255");
  const auto inside = encode(make_ptr_query(1, net::Ipv4Addr::must_parse("10.80.1.1")));
  EXPECT_TRUE(cache->probe(inside).hit);
  const auto outside = encode(make_ptr_query(2, net::Ipv4Addr::must_parse("10.80.64.1")));
  const auto p = cache->probe(outside);
  EXPECT_FALSE(p.hit);
  EXPECT_TRUE(p.cacheable);  // canonical PTR shape, just not covered
}

TEST(AnswerCache, ProbeRejectsNonCanonicalAndNonPtrShapes) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);

  // Leading-zero octet: a distinct DNS name that the zone does not hold;
  // the handler must resolve it (to NXDOMAIN), not the cache.
  const auto padded = encode(
      make_query(1, DnsName::must_parse("01.0.80.10.in-addr.arpa"), RrType::PTR));
  EXPECT_FALSE(cache->probe(padded).cacheable);

  // Forward name.
  const auto forward =
      encode(make_query(2, DnsName::must_parse("host.example.com"), RrType::PTR));
  EXPECT_FALSE(cache->probe(forward).cacheable);

  // Wrong qtype.
  const auto a_query = encode(
      make_query(3, DnsName::must_parse("7.0.80.10.in-addr.arpa"), RrType::A));
  EXPECT_FALSE(cache->probe(a_query).cacheable);

  // Octet out of range.
  const auto oversize = encode(
      make_query(4, DnsName::must_parse("7.0.80.999.in-addr.arpa"), RrType::PTR));
  EXPECT_FALSE(cache->probe(oversize).cacheable);

  // Compressed qname (pointer byte in the question): never cacheable, and
  // the probe must stay in bounds.
  std::vector<std::uint8_t> compressed = {
      0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x0C, 0x00, 0x0C, 0x00, 0x01};
  const auto p = cache->probe(compressed);
  EXPECT_FALSE(p.cacheable);
  EXPECT_FALSE(p.hit);
}

TEST(AnswerCache, ProbeParsesEdnsOpt) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  auto wire = encode(make_ptr_query(9, net::Ipv4Addr::must_parse("10.80.1.1")));
  // Append a minimal OPT RR advertising 1400 bytes and bump ARCOUNT.
  wire.insert(wire.end(), {0x00, 0x00, 0x29, 0x05, 0x78, 0x00, 0x00, 0x00, 0x00,
                           0x00, 0x00});
  wire[11] = 1;
  const auto p = cache->probe(wire);
  EXPECT_TRUE(p.hit);
  EXPECT_TRUE(p.edns);
  EXPECT_EQ(scan_query(wire).edns_udp_size, 1400);
}

TEST(AnswerCache, ProbeRejectsMalformedOpt) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  const auto base = encode(make_ptr_query(9, net::Ipv4Addr::must_parse("10.80.1.1")));

  // RDLEN lies about trailing bytes.
  auto bad_rdlen = base;
  bad_rdlen.insert(bad_rdlen.end(), {0x00, 0x00, 0x29, 0x04, 0xD0, 0x00, 0x00,
                                     0x00, 0x00, 0x00, 0x07});
  bad_rdlen[11] = 1;
  EXPECT_FALSE(cache->probe(bad_rdlen).edns);

  // Non-root owner name on the OPT.
  auto named = base;
  named.insert(named.end(), {0x01, 'x', 0x00, 0x00, 0x29, 0x04, 0xD0, 0x00,
                             0x00, 0x00, 0x00, 0x00, 0x00});
  named[11] = 1;
  EXPECT_FALSE(cache->probe(named).edns);

  // Two additional records: not the single-OPT shape the fast path takes.
  auto twice = base;
  for (int i = 0; i < 2; ++i) {
    twice.insert(twice.end(), {0x00, 0x00, 0x29, 0x04, 0xD0, 0x00, 0x00, 0x00,
                               0x00, 0x00, 0x00});
  }
  twice[11] = 2;
  EXPECT_FALSE(cache->probe(twice).edns);
  EXPECT_FALSE(cache->probe(twice).hit);
}

// -- wire helpers --------------------------------------------------------

TEST(AnswerCache, AppendOptAndTruncateToTc) {
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  const auto wire = encode(make_ptr_query(5, net::Ipv4Addr::must_parse("10.80.1.2")));
  const AnswerCache::Probe p = cache->probe(wire);
  ASSERT_TRUE(p.hit);
  std::vector<std::uint8_t> reply(AnswerCache::reply_size(p) + 11);
  std::size_t len = AnswerCache::assemble(p, wire, reply.data());

  len = AnswerCache::append_opt(reply.data(), len, 1232);
  reply.resize(len);
  const Message with_opt = decode(reply);
  ASSERT_EQ(with_opt.additional.size(), 1u);
  EXPECT_EQ(with_opt.additional[0].type(), kOpt);
  EXPECT_EQ(static_cast<std::uint16_t>(with_opt.additional[0].klass), 1232);

  // Truncation keeps header + question only, sets TC, re-appends the OPT.
  reply.resize(reply.size() + 11);
  len = AnswerCache::truncate_to_tc(reply.data(), p.question_end, 512);
  reply.resize(len);
  const Message truncated = decode(reply);
  EXPECT_TRUE(truncated.flags.tc);
  EXPECT_TRUE(truncated.answers.empty());
  ASSERT_EQ(truncated.additional.size(), 1u);
  EXPECT_EQ(truncated.additional[0].type(), kOpt);
}

// -- serve-loop integration over real sockets ----------------------------

struct RawClient {
  net::UdpSocket socket;
  net::UdpEndpoint server;

  explicit RawClient(const net::UdpEndpoint& endpoint)
      : socket(*net::UdpSocket::open()), server(endpoint) {}

  std::optional<std::vector<std::uint8_t>> exchange(
      const std::vector<std::uint8_t>& wire, int timeout_ms = 2000) {
    if (!socket.send(wire, server)) return std::nullopt;
    if (!socket.wait_readable(timeout_ms)) return std::nullopt;
    std::vector<std::uint8_t> buffer(2048);
    const auto n = socket.recv(buffer, nullptr);
    if (!n) return std::nullopt;
    buffer.resize(*n);
    return buffer;
  }
};

/// The codec path as the serve tool's handler runs it: a datagram that
/// does not decode is dropped.
UdpServerLoop::WireHandler server_handler(const AuthoritativeServer& server) {
  return [&server](std::span<const std::uint8_t> query)
             -> std::optional<std::vector<std::uint8_t>> {
    Message request;
    try {
      request = decode(query);
    } catch (const WireError&) {
      return std::nullopt;
    }
    ServerStats scratch;
    const auto response = server.handle_readonly(request, scratch);
    if (!response) return std::nullopt;
    return encode(*response);
  };
}

TEST(AnswerCacheLoop, CacheOnRepliesByteIdenticalToCacheOff) {
  const auto server = make_server("one.test");
  const DnsName oversize = DnsName::must_parse("1.200.80.10.in-addr.arpa");
  add_oversize_owner(*server->find_zone(oversize), oversize);
  const auto cache = cache_over(*server);

  UdpServeOptions off_options;
  off_options.threads = 1;
  UdpServerLoop off_loop{off_options, [&](unsigned) { return server_handler(*server); }};
  ASSERT_TRUE(off_loop.start());

  UdpServeOptions on_options;
  on_options.threads = 1;
  on_options.answer_cache = [cache]() { return cache; };
  UdpServerLoop on_loop{on_options, [&](unsigned) { return server_handler(*server); }};
  ASSERT_TRUE(on_loop.start());

  RawClient off_client{off_loop.endpoint()};
  RawClient on_client{on_loop.endpoint()};
  util::Rng rng{0xFACE};
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t host = static_cast<std::uint32_t>(rng.next() & 0xFFFF);
    const auto wire = encode(make_ptr_query(static_cast<std::uint16_t>(i + 1),
                                            addr((10u << 24) | (80u << 16) | host)));
    const auto off_reply = off_client.exchange(wire);
    const auto on_reply = on_client.exchange(wire);
    ASSERT_TRUE(off_reply.has_value());
    ASSERT_TRUE(on_reply.has_value());
    EXPECT_EQ(*off_reply, *on_reply) << "host offset " << host;
  }

  // An answer over 512 bytes: both loops truncate it to TC=1, and with a
  // 4096-byte OPT both send it whole with the server's OPT appended.
  auto plain = encode(make_ptr_query(100, net::Ipv4Addr::must_parse("10.80.200.1")));
  auto edns = encode(make_ptr_query(101, net::Ipv4Addr::must_parse("10.80.200.1")));
  edns.insert(edns.end(), {0x00, 0x00, 0x29, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
                           0x00, 0x00});
  edns[11] = 1;
  for (const auto* wire : {&plain, &edns}) {
    const auto off_reply = off_client.exchange(*wire);
    const auto on_reply = on_client.exchange(*wire);
    ASSERT_TRUE(off_reply.has_value());
    ASSERT_TRUE(on_reply.has_value());
    EXPECT_EQ(*off_reply, *on_reply) << (wire == &plain ? "plain" : "edns");
    EXPECT_EQ(decode(*off_reply).flags.tc, wire == &plain);
  }

  // A qname decode() refuses — '\r' where "in-addr" has '-' — is dropped by
  // the handler, and must be by the cache too: each loop's next reply
  // answers the query sent after it.
  auto cr = encode(make_ptr_query(102, net::Ipv4Addr::must_parse("10.80.1.7")));
  *std::find(cr.begin() + 12, cr.end(), '-') = 0x0D;
  const auto next = encode(make_ptr_query(103, net::Ipv4Addr::must_parse("10.80.1.8")));
  for (RawClient* client : {&off_client, &on_client}) {
    ASSERT_TRUE(client->socket.send(cr, client->server));
    const auto reply = client->exchange(next);
    ASSERT_TRUE(reply.has_value());
    ASSERT_GE(reply->size(), 2u);
    EXPECT_EQ((*reply)[0] << 8 | (*reply)[1], 103)
        << (client == &on_client ? "cache on" : "cache off");
  }

  on_loop.stop();
  off_loop.stop();
  EXPECT_GT(on_loop.stats().cache_hits, 0u);
  EXPECT_EQ(on_loop.stats().cache_misses, 1u);  // the '\r' query
  EXPECT_EQ(off_loop.stats().cache_hits, 0u);
}

TEST(AnswerCacheLoop, GuardOffLoopDropsResponsesAndAnswersNotifyNotImp) {
  // With the guard off (the UdpServeOptions default) these shapes reach
  // the handler: the probe takes only QR=0 QUERY datagrams.
  const auto server = make_server("one.test");
  const auto cache = cache_over(*server);
  UdpServeOptions options;
  options.threads = 1;
  options.answer_cache = [cache]() { return cache; };
  UdpServerLoop loop{options, [&](unsigned) { return server_handler(*server); }};
  ASSERT_TRUE(loop.start());
  RawClient client{loop.endpoint()};

  Message notify = make_ptr_query(1, net::Ipv4Addr::must_parse("10.80.1.1"));
  notify.flags.opcode = static_cast<Opcode>(4);  // NOTIFY (RFC 1996)
  const auto notimp = client.exchange(encode(notify));
  ASSERT_TRUE(notimp.has_value());
  const Message reply = decode(*notimp);
  EXPECT_EQ(reply.flags.rcode, Rcode::NotImp);
  EXPECT_EQ(reply.flags.opcode, notify.flags.opcode);
  EXPECT_TRUE(reply.answers.empty());

  // A response gets no reply: the next reply answers the query after it.
  Message response = make_ptr_query(2, net::Ipv4Addr::must_parse("10.80.1.1"));
  response.flags.qr = true;
  ASSERT_TRUE(client.socket.send(encode(response), client.server));
  const auto next = client.exchange(encode(make_ptr_query(3, net::Ipv4Addr::must_parse("10.80.1.1"))));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(decode(*next).id, 3);

  loop.stop();
  EXPECT_EQ(loop.stats().cache_hits, 1u);
}

TEST(AnswerCacheLoop, EpochBumpSwapsTheWholeImageUnderLoad) {
  const auto server_a = make_server("one.test");
  const auto server_b = make_server("two.test");
  const auto cache_a = cache_over(*server_a);
  const auto cache_b = cache_over(*server_b);

  std::atomic<int> which{0};
  std::atomic<std::uint64_t> epoch{0};
  UdpServeOptions options;
  options.threads = 1;
  options.answer_cache = [&]() { return which.load() == 0 ? cache_a : cache_b; };
  options.answer_cache_epoch = &epoch;
  // Handler answers from whichever generation is current, like the serve
  // switchboard's slots do; with a full-coverage cache it only sees
  // non-cacheable shapes.
  UdpServerLoop loop{options, [&](unsigned) -> UdpServerLoop::WireHandler {
    return [&](std::span<const std::uint8_t> query)
               -> std::optional<std::vector<std::uint8_t>> {
      ServerStats scratch;
      const AuthoritativeServer& s = which.load() == 0 ? *server_a : *server_b;
      const auto response = s.handle_readonly(decode(query), scratch);
      if (!response) return std::nullopt;
      return encode(*response);
    };
  }};
  ASSERT_TRUE(loop.start());
  RawClient client{loop.endpoint()};

  const auto query_of = [&](std::uint16_t id) {
    return encode(make_ptr_query(id, net::Ipv4Addr::must_parse("10.80.1.9")));
  };
  const auto ptr_of = [&](const std::vector<std::uint8_t>& reply) {
    const Message m = decode(reply);
    EXPECT_EQ(m.answers.size(), 1u);
    return m.answers.empty()
               ? std::string{}
               : std::get<PtrRdata>(m.answers[0].rdata).ptrdname.to_string();
  };

  // A burst against generation A...
  for (std::uint16_t id = 1; id <= 32; ++id) {
    const auto reply = client.exchange(query_of(id));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(ptr_of(*reply), "host-10-80-1-9.one.test");
  }
  // ...swap the generation and bump the epoch (publish order matters:
  // provider target first, then the bump the workers poll)...
  which.store(1);
  epoch.fetch_add(1, std::memory_order_release);
  // ...and the very next batch must answer from generation B.
  for (std::uint16_t id = 100; id <= 131; ++id) {
    const auto reply = client.exchange(query_of(id));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(ptr_of(*reply), "host-10-80-1-9.two.test");
  }
  loop.stop();
  EXPECT_EQ(loop.stats().cache_hits, 64u);
}

TEST(AnswerCacheLoop, OversizeAnswerTruncatesThenEdnsRaisesTheLimit) {
  // A single owner with enough PTRs that the reply exceeds 512 bytes.
  AuthoritativeServer server;
  Zone& zone = server.add_zone(DnsName::must_parse("80.10.in-addr.arpa"), test_soa());
  add_oversize_owner(zone, DnsName::must_parse("1.1.80.10.in-addr.arpa"));
  const auto cache = cache_over(server);

  UdpServeOptions options;
  options.threads = 1;
  options.answer_cache = [cache]() { return cache; };
  UdpServerLoop loop{options, [&](unsigned) { return server_handler(server); }};
  ASSERT_TRUE(loop.start());
  RawClient client{loop.endpoint()};

  // Plain UDP: the >512B answer must come back TC=1 with empty sections.
  const auto plain = client.exchange(
      encode(make_ptr_query(1, net::Ipv4Addr::must_parse("10.80.1.1"))));
  ASSERT_TRUE(plain.has_value());
  EXPECT_LE(plain->size(), 512u);
  const Message tc = decode(*plain);
  EXPECT_TRUE(tc.flags.tc);
  EXPECT_TRUE(tc.answers.empty());

  // EDNS advertising 4096: the same answer now fits and arrives whole,
  // with the server's OPT appended.
  auto edns = encode(make_ptr_query(2, net::Ipv4Addr::must_parse("10.80.1.1")));
  edns.insert(edns.end(), {0x00, 0x00, 0x29, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
                           0x00, 0x00});
  edns[11] = 1;
  const auto full = client.exchange(edns);
  ASSERT_TRUE(full.has_value());
  const Message whole = decode(*full);
  EXPECT_FALSE(whole.flags.tc);
  EXPECT_EQ(whole.answers.size(), 24u);
  ASSERT_EQ(whole.additional.size(), 1u);
  EXPECT_EQ(whole.additional[0].type(), kOpt);

  loop.stop();
  EXPECT_EQ(loop.stats().tc_responses, 1u);
  EXPECT_EQ(loop.stats().edns_queries, 1u);
}

}  // namespace
}  // namespace rdns::dns

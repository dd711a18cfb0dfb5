// Live introspection plane (dns::ServeIntrospection + net::AdminHttpServer):
// the seqlock publish/aggregate pipeline, rolling QPS windows, latency
// percentiles, the CHAOS TXT wire interface, the Prometheus/stats.json
// renders and the loopback HTTP endpoint. Network-touching cases run over
// loopback with kernel-assigned ports (LABELS net).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "dns/admin.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/udp_server.hpp"
#include "dns/wire.hpp"
#include "net/admin_http.hpp"
#include "util/journal.hpp"

namespace rdns::dns {
namespace {

ServeAdminConfig test_config() {
  ServeAdminConfig cfg;
  cfg.sample_every = 1;  // sample everything: tests want deterministic totals
  cfg.slowlog_threshold_us = 1e9;  // never slowlog unless a test lowers it
  cfg.top_k = 8;
  return cfg;
}

std::vector<std::uint8_t> chaos_query(const std::string& qname, std::uint16_t id = 7,
                                      RrClass qclass = RrClass::CH,
                                      RrType qtype = RrType::TXT) {
  Message q = make_query(id, DnsName::must_parse(qname), qtype);
  q.questions.front().qclass = qclass;
  return encode(q);
}

TEST(RateWindows, DifferencesAgainstWindowBoundary) {
  util::RateWindows rw;
  EXPECT_EQ(rw.rate(1.0), 0.0);
  rw.add_sample(0.0, 0);
  EXPECT_EQ(rw.rate(1.0), 0.0);  // one sample: no span yet
  rw.add_sample(1.0, 1000);
  rw.add_sample(2.0, 3000);
  // 1s window: newest (2.0, 3000) vs the sample at/just before 1.0.
  EXPECT_NEAR(rw.rate(1.0), 2000.0, 1e-6);
  // 10s window clamps to the observed 2s span: 3000 events over 2s.
  EXPECT_NEAR(rw.rate(10.0), 1500.0, 1e-6);
}

TEST(ServeLatencySnapshot, PercentileInterpolatesWithinBuckets) {
  ServeLatencySnapshot snap;
  EXPECT_EQ(snap.percentile(50), 0.0);
  // 100 samples in the bucket with upper bound 8us (index 3).
  snap.buckets[3] = 100;
  snap.count = 100;
  const double p50 = snap.percentile(50);
  EXPECT_GT(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  // Add 100 slower samples (bound 64us): the median stays in the fast
  // bucket, p99 moves into the slow one.
  snap.buckets[6] = 100;
  snap.count = 200;
  EXPECT_LE(snap.percentile(50), 8.0);
  EXPECT_GT(snap.percentile(99), 32.0);
}

TEST(ServeIntrospection, PublishAggregateRoundTrip) {
  ServeIntrospection plane{2, test_config()};
  auto& p0 = plane.probe(0);
  auto& p1 = plane.probe(1);

  UdpServeStats s0;
  s0.datagrams_received = 100;
  s0.responses_sent = 90;
  s0.dropped_timeout_fault = 6;
  s0.dropped_malformed = 3;
  s0.dropped_policy = 1;
  p0.note_client(0x7f000001u);
  p0.note_client(0x7f000001u);
  p0.note_client(0x0a000001u);
  p0.publish(s0);

  UdpServeStats s1;
  s1.datagrams_received = 50;
  s1.responses_sent = 50;
  p1.note_client(0x7f000001u);
  p1.publish(s1);

  plane.aggregate_now();
  const auto agg = plane.aggregate();
  EXPECT_EQ(agg.totals.datagrams_received, 150u);
  EXPECT_EQ(agg.totals.responses_sent, 140u);
  EXPECT_EQ(agg.totals.dropped_timeout_fault, 6u);
  EXPECT_EQ(agg.totals.dropped_malformed, 3u);
  EXPECT_EQ(agg.totals.dropped_policy, 1u);
  EXPECT_EQ(agg.totals.dropped_total(), 10u);
  ASSERT_FALSE(agg.top_clients.empty());
  EXPECT_EQ(agg.top_clients.front().key, "127.0.0.1");
  EXPECT_EQ(agg.top_clients.front().count, 3u);
}

TEST(ServeIntrospection, SampledLatencyFeedsHistogramAndQnames) {
  ServeIntrospection plane{1, test_config()};
  auto& probe = plane.probe(0);

  const auto query = encode(make_query(1, DnsName::must_parse("1.0.0.127.in-addr.arpa"),
                                       RrType::PTR));
  // sample_every=1: every headered payload is sampled.
  EXPECT_TRUE(probe.should_sample(query));
  const net::UdpEndpoint client{0x7f000001u, 9999};
  for (int i = 0; i < 10; ++i) {
    probe.on_sampled(scan_query(query), {}, 100.0, client);
  }
  probe.publish(UdpServeStats{});

  plane.aggregate_now();
  const auto agg = plane.aggregate();
  EXPECT_EQ(agg.sampled, 10u);
  EXPECT_EQ(agg.latency.count, 10u);
  EXPECT_NEAR(agg.latency.sum_us, 1000.0, 1e-6);
  const double p50 = agg.latency.percentile(50);
  EXPECT_GT(p50, 64.0);
  EXPECT_LE(p50, 128.0);  // 100us lands in the 2^7 bucket
  ASSERT_FALSE(agg.top_qnames.empty());
  EXPECT_EQ(agg.top_qnames.front().key, "1.0.0.127.in-addr.arpa");
}

TEST(ServeIntrospection, ShouldSampleIsDeterministicAndGated) {
  ServeAdminConfig cfg = test_config();
  cfg.sample_every = 4;
  ServeIntrospection plane{1, cfg};
  auto& probe = plane.probe(0);

  unsigned sampled = 0;
  for (std::uint16_t id = 0; id < 1024; ++id) {
    const auto wire = encode(make_query(id, DnsName::must_parse("x.rdns"), RrType::TXT));
    const bool first = probe.should_sample(wire);
    EXPECT_EQ(first, probe.should_sample(wire));  // pure function of txid
    if (first) ++sampled;
  }
  // txid hash spreads roughly uniformly: ~1024/4 sampled, generous margin.
  EXPECT_GT(sampled, 1024 / 8);
  EXPECT_LT(sampled, 1024 / 2);

  ServeAdminConfig off = test_config();
  off.sample_every = 0;
  ServeIntrospection disabled{1, off};
  const auto wire = encode(make_query(1, DnsName::must_parse("x.rdns"), RrType::TXT));
  EXPECT_FALSE(disabled.probe(0).should_sample(wire));
}

TEST(ServeIntrospection, ChaosTxtAnswersStatsAndVersion) {
  ServeIntrospection plane{1, test_config()};
  unsigned inner_calls = 0;
  auto handler = plane.wrap_chaos([&inner_calls](std::span<const std::uint8_t>)
                                      -> std::optional<std::vector<std::uint8_t>> {
    ++inner_calls;
    return std::nullopt;
  });

  // Ordinary IN-class query falls through to the inner handler.
  EXPECT_FALSE(handler(chaos_query("1.0.0.127.in-addr.arpa", 1, RrClass::IN, RrType::PTR))
                   .has_value());
  EXPECT_EQ(inner_calls, 1u);

  // CH TXT stats.rdns is answered by the plane, not the zone.
  const auto reply = handler(chaos_query("stats.rdns"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(inner_calls, 1u);
  const auto msg = decode(*reply);
  EXPECT_EQ(msg.flags.rcode, Rcode::NoError);
  ASSERT_FALSE(msg.answers.empty());
  EXPECT_EQ(msg.answers.front().klass, RrClass::CH);
  const auto* txt = std::get_if<TxtRdata>(&msg.answers.front().rdata);
  ASSERT_NE(txt, nullptr);
  ASSERT_FALSE(txt->strings.empty());
  bool saw_received = false;
  for (const auto& s : txt->strings) {
    if (s.rfind("received=", 0) == 0) saw_received = true;
  }
  EXPECT_TRUE(saw_received);

  // version.bind alias answers with the build version string.
  const auto version = handler(chaos_query("version.bind"));
  ASSERT_TRUE(version.has_value());
  const auto vmsg = decode(*version);
  EXPECT_EQ(vmsg.flags.rcode, Rcode::NoError);
  ASSERT_FALSE(vmsg.answers.empty());

  // Unknown CHAOS name: NXDOMAIN from the plane, inner never sees it.
  const auto unknown = handler(chaos_query("no.such.rdns"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(decode(*unknown).flags.rcode, Rcode::NxDomain);
  EXPECT_EQ(inner_calls, 1u);
}

TEST(ServeIntrospection, RendersPrometheusExposition) {
  ServeIntrospection plane{1, test_config()};
  auto& probe = plane.probe(0);
  UdpServeStats stats;
  stats.datagrams_received = 42;
  stats.responses_sent = 42;
  probe.publish(stats);
  plane.aggregate_now();

  const auto text = plane.render_prometheus();
  EXPECT_NE(text.find("# TYPE rdns_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("rdns_serve_qps{window=\"1s\"}"), std::string::npos);
  EXPECT_NE(text.find("serve_qps_1s"), std::string::npos);
  // Exposition ends with a newline (required by the text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(ServeIntrospection, StatsJsonParsesAndCarriesSchema) {
  ServeIntrospection plane{1, test_config()};
  auto& probe = plane.probe(0);
  UdpServeStats stats;
  stats.datagrams_received = 10;
  stats.responses_sent = 9;
  probe.note_client(0x7f000001u);
  probe.publish(stats);
  plane.aggregate_now();

  const auto body = plane.render_stats_json();
  const auto doc = util::journal::parse_json(body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("schema"), "rdns.serve-stats.v1");
  const auto* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->get_int("received"), 10);
  const auto* top = doc->find("top_clients");
  ASSERT_NE(top, nullptr);
  ASSERT_FALSE(top->array.empty());
  EXPECT_EQ(top->array.front().get_string("key"), "127.0.0.1");
}

TEST(AdminHttpServer, ServesRoutesOverLoopback) {
  ServeIntrospection plane{1, test_config()};
  plane.probe(0).publish(UdpServeStats{});
  plane.aggregate_now();

  net::AdminHttpServer http;
  plane.install_http_routes(http);
  std::string error;
  ASSERT_TRUE(http.start(net::UdpEndpoint{0x7f000001u, 0}, &error)) << error;
  ASSERT_TRUE(http.running());
  ASSERT_NE(http.endpoint().port, 0);

  const auto metrics = net::http_get(http.endpoint(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("# TYPE"), std::string::npos);

  const auto stats = net::http_get(http.endpoint(), "/stats.json");
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(util::journal::parse_json(*stats).has_value());

  // Query strings are stripped before route matching.
  EXPECT_TRUE(net::http_get(http.endpoint(), "/stats.json?cache=0").has_value());
  // Unknown path: 404 surfaces as nullopt from the client helper.
  EXPECT_FALSE(net::http_get(http.endpoint(), "/nope").has_value());

  http.stop();
  EXPECT_FALSE(http.running());
}

/// Raw TCP client for the abuse tests below: http_get is too well-behaved
/// to drip bytes or omit the CRLF.
struct RawTcpClient {
  int fd = -1;

  explicit RawTcpClient(const net::UdpEndpoint& server) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(server.address);
    addr.sin_port = htons(server.port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawTcpClient() {
    if (fd >= 0) ::close(fd);
  }

  bool send_bytes(const std::string& bytes) const {
    return fd >= 0 &&
           ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
  }

  /// Read until the peer closes (bounded by `budget_ms`); returns whatever
  /// arrived. An empty result means the server closed without replying.
  std::string read_to_close(int budget_ms) const {
    std::string out;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
    char buffer[512];
    while (std::chrono::steady_clock::now() < deadline) {
      timeval tv{0, 50 * 1000};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        out.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) break;  // orderly close
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
    }
    return out;
  }
};

TEST(AdminHttpServer, SlowlorisDripIsCutOffWith408) {
  net::AdminHttpServer http;
  http.set_io_timeout_ms(300);
  http.route("/ping", [](const std::string&) { return net::HttpResponse{200, "text/plain", "pong"}; });
  ASSERT_TRUE(http.start(net::UdpEndpoint{0x7f000001u, 0}));

  const auto t0 = std::chrono::steady_clock::now();
  RawTcpClient drip{http.endpoint()};
  ASSERT_GE(drip.fd, 0);
  // Drip one byte at a time, never sending the terminating CRLF: every
  // recv makes progress, so only the overall deadline can stop this.
  const std::string tease = "GET /ping";
  for (char c : tease) {
    if (!drip.send_bytes(std::string(1, c))) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const std::string response = drip.read_to_close(3000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  // The connection must die near the configured budget, not hang.
  EXPECT_LT(elapsed, 2500);

  // The listener is single-threaded: having shed the slow client, it must
  // still serve a well-behaved one promptly.
  const auto ok = net::http_get(http.endpoint(), "/ping");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, "pong");
  http.stop();
}

TEST(AdminHttpServer, OversizedHeaderlessRequestGets431) {
  net::AdminHttpServer http;
  http.set_io_timeout_ms(2000);
  http.set_max_request_bytes(128);
  ASSERT_TRUE(http.start(net::UdpEndpoint{0x7f000001u, 0}));

  RawTcpClient hog{http.endpoint()};
  ASSERT_GE(hog.fd, 0);
  // 4x the cap without ever finishing the request line.
  ASSERT_TRUE(hog.send_bytes("GET /" + std::string(512, 'a')));
  const std::string response = hog.read_to_close(3000);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  http.stop();
}

TEST(AdminHttpServer, TimeoutAndSizeKnobsHaveFloors) {
  net::AdminHttpServer http;
  http.set_io_timeout_ms(0);  // ignored: non-positive
  EXPECT_EQ(http.io_timeout_ms(), 2000);
  http.set_io_timeout_ms(750);
  EXPECT_EQ(http.io_timeout_ms(), 750);
  http.set_max_request_bytes(1);  // ignored: below the floor
  EXPECT_EQ(http.max_request_bytes(), 4096u);
  http.set_max_request_bytes(64);
  EXPECT_EQ(http.max_request_bytes(), 64u);
}

}  // namespace
}  // namespace rdns::dns

// Serve-path hardening: wire classification, minimal guard responses, RRL
// with slip-to-TC, the shed ladder, and the hardened UdpServerLoop end to
// end over loopback (guarded answers, REFUSED policy, drain accounting,
// the serve.* registry counters rendered from the per-worker stats).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/admin.hpp"
#include "dns/message.hpp"
#include "dns/serve_guard.hpp"
#include "dns/udp_server.hpp"
#include "dns/wire.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "util/metrics.hpp"

namespace rdns::dns {
namespace {

std::vector<std::uint8_t> ptr_query_wire(std::uint16_t id = 0x1234) {
  return encode(make_ptr_query(id, net::Ipv4Addr{10, 1, 2, 3}));
}

std::vector<std::uint8_t> query_wire(RrType qtype, RrClass qclass,
                                     std::uint16_t id = 0x1234) {
  Message q = make_query(id, DnsName::must_parse("host.example.com"), qtype);
  q.questions[0].qclass = qclass;
  return encode(q);
}

// -- classify_query -----------------------------------------------------

TEST(ClassifyQuery, WellFormedPtrIsAnswer) {
  const auto wire = ptr_query_wire();
  const Classified c = classify_query(wire, /*restrict_ptr=*/true);
  EXPECT_EQ(c.verdict, WireVerdict::Answer);
  EXPECT_EQ(c.question_end, wire.size());
}

TEST(ClassifyQuery, RuntDatagramIsSilentDrop) {
  const std::vector<std::uint8_t> runt(11, 0x00);
  EXPECT_EQ(classify_query(runt, true).verdict, WireVerdict::SilentDrop);
  EXPECT_EQ(classify_query(std::span<const std::uint8_t>{}, true).verdict,
            WireVerdict::SilentDrop);
}

TEST(ClassifyQuery, ResponseBitIsSilentDrop) {
  auto wire = ptr_query_wire();
  wire[2] |= 0x80;  // QR=1: a reflected response, never answer it
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::SilentDrop);
}

TEST(ClassifyQuery, UnsupportedOpcodeIsNotImp) {
  auto wire = ptr_query_wire();
  wire[2] = static_cast<std::uint8_t>((wire[2] & 0x87) | (5u << 3));  // UPDATE
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::NotImp);
}

TEST(ClassifyQuery, WrongQdcountIsFormErr) {
  auto wire = ptr_query_wire();
  wire[5] = 2;  // QDCOUNT=2
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::FormErr);
  wire[5] = 0;
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::FormErr);
}

TEST(ClassifyQuery, TruncatedQuestionIsFormErr) {
  const auto wire = ptr_query_wire();
  const std::span<const std::uint8_t> cut{wire.data(), wire.size() - 3};
  EXPECT_EQ(classify_query(cut, true).verdict, WireVerdict::FormErr);
}

TEST(ClassifyQuery, BadLabelIsFormErr) {
  auto wire = ptr_query_wire();
  wire[13] = '!';  // first label byte: not LDH
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::FormErr);
}

TEST(ClassifyQuery, LabelLengthLieIsFormErr) {
  auto wire = ptr_query_wire();
  wire[12] = 63;  // claims 63 bytes; the question is far shorter
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::FormErr);
}

TEST(ClassifyQuery, NonPtrUnderPolicyIsRefused) {
  EXPECT_EQ(classify_query(query_wire(RrType::A, RrClass::IN), true).verdict,
            WireVerdict::Refused);
  // Policy off: any IN qtype is answerable.
  EXPECT_EQ(classify_query(query_wire(RrType::A, RrClass::IN), false).verdict,
            WireVerdict::Answer);
}

TEST(ClassifyQuery, NonInClassIsRefused) {
  EXPECT_EQ(classify_query(query_wire(RrType::PTR, RrClass::CH), true).verdict,
            WireVerdict::Refused);
}

TEST(ClassifyQuery, ChaosTxtIsAnswerWithChaosFlag) {
  // CH TXT passes the PTR-only policy; the worker's chaos exemption reads
  // the class off the same scan.
  const auto wire = query_wire(RrType::TXT, RrClass::CH);
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::Answer);
  EXPECT_EQ(scan_query(wire).qclass, static_cast<std::uint16_t>(RrClass::CH));
}

TEST(ClassifyQuery, ExtraSectionsTakeSlowPath) {
  // A query with ARCOUNT=1 and a well-formed additional RR must still
  // classify Answer (the slow path decodes it fully).
  Message q = make_ptr_query(0x77, net::Ipv4Addr{10, 0, 0, 1});
  ResourceRecord rr;
  rr.name = DnsName::must_parse("extra.example.com");
  rr.klass = RrClass::IN;
  rr.ttl = 60;
  rr.rdata = TxtRdata{{"x"}};
  q.additional.push_back(rr);
  const auto wire = encode(q);
  EXPECT_EQ(classify_query(wire, true).verdict, WireVerdict::Answer);

  // The same message with a lying ARCOUNT and no RR bytes is FORMERR.
  auto lying = ptr_query_wire();
  lying[11] = 1;  // ARCOUNT=1, nothing follows the question
  EXPECT_EQ(classify_query(lying, true).verdict, WireVerdict::FormErr);
}

TEST(ClassifyQuery, CompressedQnameClassifiesViaDecoder) {
  // Craft a query whose qname is a single compression pointer to itself's
  // prefix — legal per the codec (forward pointers bounded by wire size).
  auto wire = ptr_query_wire();
  // Header + pointer(2) + qtype/qclass(4).
  std::vector<std::uint8_t> hacked(wire.begin(), wire.begin() + 12);
  hacked.push_back(0xC0);
  hacked.push_back(12);  // points at itself -> loops; must be FormErr
  hacked.push_back(0x00);
  hacked.push_back(12);  // PTR
  hacked.push_back(0x00);
  hacked.push_back(1);  // IN
  const Classified c = classify_query(hacked, true);
  EXPECT_EQ(c.verdict, WireVerdict::FormErr);
  EXPECT_EQ(c.question_end, 0u);  // compressed names never echo
}

// -- make_guard_response ------------------------------------------------

TEST(GuardResponse, EchoesQuestionAndSetsRcode) {
  const auto wire = ptr_query_wire(0xBEEF);
  const auto reply = make_guard_response(wire, wire.size(), Rcode::Refused, false);
  const Message m = decode(reply);
  EXPECT_EQ(m.id, 0xBEEF);
  EXPECT_TRUE(m.flags.qr);
  EXPECT_FALSE(m.flags.tc);
  EXPECT_EQ(m.flags.rcode, Rcode::Refused);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.questions[0].qtype, RrType::PTR);
  EXPECT_TRUE(m.answers.empty());
}

TEST(GuardResponse, TcBitForRrlSlip) {
  const auto wire = ptr_query_wire();
  const auto reply = make_guard_response(wire, wire.size(), Rcode::NoError, true);
  const Message m = decode(reply);
  EXPECT_TRUE(m.flags.tc);
  EXPECT_EQ(m.flags.rcode, Rcode::NoError);
}

TEST(GuardResponse, BareHeaderWhenQuestionDidNotScan) {
  const auto wire = ptr_query_wire(0x0102);
  const auto reply = make_guard_response(wire, /*question_end=*/0, Rcode::FormErr, false);
  ASSERT_GE(reply.size(), 12u);
  const Message m = decode(reply);
  EXPECT_EQ(m.id, 0x0102);
  EXPECT_EQ(m.flags.rcode, Rcode::FormErr);
  EXPECT_TRUE(m.questions.empty());
}

TEST(GuardResponse, SurvivesTinyInput) {
  // Even a runt input yields a decodable 12-byte header.
  const std::vector<std::uint8_t> runt{0xAB, 0xCD};
  const auto reply = make_guard_response(runt, 0, Rcode::FormErr, false);
  ASSERT_EQ(reply.size(), 12u);
  EXPECT_NO_THROW(decode(reply));
}

// -- ServeGuard: RRL ----------------------------------------------------

ServeHardeningOptions rrl_options(double rate, double burst = 0.0, unsigned slip = 2) {
  ServeHardeningOptions o;
  o.guard = true;
  o.rrl_rate = rate;
  o.rrl_burst = burst;
  o.rrl_slip = slip;
  return o;
}

TEST(ServeGuardRrl, BudgetThenDropAndSlip) {
  ServeGuard guard{rrl_options(2.0)};
  ASSERT_TRUE(guard.rrl_armed());
  const std::uint32_t client = 0x0A010203;
  // Burst defaults to the rate: two answers, then the slip cadence
  // (every 2nd over-limit query slips to TC).
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Answer);
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Answer);
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Drop);
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Slip);
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Drop);
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Slip);
}

TEST(ServeGuardRrl, BucketIsPerSlash24) {
  ServeGuard guard{rrl_options(1.0)};
  EXPECT_EQ(guard.rrl_check(0x0A010203, 0), ServeGuard::RrlDecision::Answer);
  // Same /24: shares the (now empty) bucket.
  EXPECT_NE(guard.rrl_check(0x0A0102FF, 0), ServeGuard::RrlDecision::Answer);
  // Different /24: fresh budget.
  EXPECT_EQ(guard.rrl_check(0x0A010303, 0), ServeGuard::RrlDecision::Answer);
  EXPECT_EQ(guard.table_size(), 2u);
}

TEST(ServeGuardRrl, RefillsWithWallClock) {
  ServeGuard guard{rrl_options(1.0)};
  const std::uint32_t client = 0xC0A80001;
  EXPECT_EQ(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Answer);
  EXPECT_NE(guard.rrl_check(client, 0), ServeGuard::RrlDecision::Answer);
  EXPECT_EQ(guard.rrl_check(client, 1), ServeGuard::RrlDecision::Answer);
}

TEST(ServeGuardRrl, TableCapFlushesInsteadOfGrowing) {
  ServeHardeningOptions o = rrl_options(1.0);
  o.rrl_table_cap = 8;
  ServeGuard guard{o};
  for (std::uint32_t i = 0; i < 20; ++i) {
    (void)guard.rrl_check(i << 8, 0);  // 20 distinct /24s
  }
  EXPECT_LE(guard.table_size(), 8u);
  EXPECT_GE(guard.table_flushes(), 1u);
}

// -- ServeGuard: shed ladder ---------------------------------------------

TEST(ServeGuardShed, LadderClimbsAndDecays) {
  ServeHardeningOptions o;
  o.guard = true;
  o.shed_l1_batches = 2;
  o.shed_l2_batches = 4;
  o.shed_l3_batches = 8;
  ServeGuard guard{o};
  EXPECT_EQ(guard.on_batch(true), 0u);
  EXPECT_EQ(guard.on_batch(true), 1u);   // streak 2 -> L1
  EXPECT_EQ(guard.on_batch(true), 1u);
  EXPECT_EQ(guard.on_batch(true), 2u);   // streak 4 -> L2
  for (int i = 0; i < 4; ++i) (void)guard.on_batch(true);
  EXPECT_EQ(guard.shed_level(), 3u);     // streak 8 -> L3
  // A breather halves the streak: 8 -> 4 -> 2 -> 1 -> 0.
  EXPECT_EQ(guard.on_batch(false), 2u);
  EXPECT_EQ(guard.on_batch(false), 1u);
  EXPECT_EQ(guard.on_batch(false), 0u);
}

TEST(ServeGuardShed, AnswerShedIsOneInN) {
  ServeHardeningOptions o;
  o.guard = true;
  o.shed_answer_every = 4;
  ServeGuard guard{o};
  int shed = 0;
  for (int i = 0; i < 100; ++i) shed += guard.shed_answer() ? 1 : 0;
  EXPECT_EQ(shed, 25);
}

// -- hardened UdpServerLoop over loopback --------------------------------

/// Echo handler: answers any query with an empty NOERROR response.
UdpServerLoop::WireHandler echo_handler() {
  return [](std::span<const std::uint8_t> query)
             -> std::optional<std::vector<std::uint8_t>> {
    const Message q = decode(query);
    return encode(make_response(q, Rcode::NoError));
  };
}

struct LoopClient {
  net::UdpSocket socket;
  net::UdpEndpoint server;

  explicit LoopClient(const net::UdpEndpoint& endpoint)
      : socket(*net::UdpSocket::open()), server(endpoint) {}

  void send(const std::vector<std::uint8_t>& wire) {
    ASSERT_TRUE(socket.send(wire, server));
  }

  std::optional<Message> recv(int timeout_ms = 2000) {
    if (!socket.wait_readable(timeout_ms)) return std::nullopt;
    std::vector<std::uint8_t> buffer(1024);
    net::UdpEndpoint from;
    const auto n = socket.recv(buffer, &from);
    if (!n) return std::nullopt;
    buffer.resize(*n);
    return decode(buffer);
  }
};

TEST(HardenedLoop, GuardClassifiesOverRealSockets) {
  UdpServeOptions options;
  options.threads = 1;
  options.hardening.guard = true;
  UdpServerLoop loop{options, [](unsigned) { return echo_handler(); }};
  ASSERT_TRUE(loop.start());
  LoopClient client{loop.endpoint()};

  // Well-formed PTR: answered NOERROR.
  client.send(ptr_query_wire(0x0001));
  auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->flags.rcode, Rcode::NoError);

  // Non-PTR under policy: REFUSED without touching the handler.
  client.send(query_wire(RrType::A, RrClass::IN, 0x0002));
  reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->flags.rcode, Rcode::Refused);

  // UPDATE opcode: NOTIMP.
  auto update = ptr_query_wire(0x0003);
  update[2] = static_cast<std::uint8_t>((update[2] & 0x87) | (5u << 3));
  client.send(update);
  reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->flags.rcode, Rcode::NotImp);

  // Garbage: silence (bounded wait, not a wedge — the next query answers).
  client.send({0xFF, 0x00, 0xAA});
  EXPECT_FALSE(client.recv(300).has_value());
  client.send(ptr_query_wire(0x0004));
  reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 0x0004);

  loop.stop();
  const UdpServeStats& stats = loop.stats();
  EXPECT_EQ(stats.datagrams_received, 5u);
  EXPECT_EQ(stats.responses_sent, 4u);
  EXPECT_EQ(stats.dropped_malformed, 1u);
  EXPECT_EQ(stats.refused_sent, 1u);
  EXPECT_EQ(stats.notimp_sent, 1u);
  // The partition invariant the schema checker enforces on serve.stop.
  EXPECT_EQ(stats.datagrams_received,
            stats.responses_sent + stats.send_failures + stats.truncated_queries +
                stats.dropped_total());
}

TEST(HardenedLoop, RrlSlipsToTcOverLoopback) {
  UdpServeOptions options;
  options.threads = 1;
  options.hardening.guard = true;
  options.hardening.rrl_rate = 2.0;
  options.hardening.rrl_slip = 2;
  UdpServerLoop loop{options, [](unsigned) { return echo_handler(); }};
  ASSERT_TRUE(loop.start());
  LoopClient client{loop.endpoint()};

  constexpr int kQueries = 12;
  for (int i = 0; i < kQueries; ++i) {
    client.send(ptr_query_wire(static_cast<std::uint16_t>(i)));
  }
  int answered = 0;
  int slipped = 0;
  while (auto reply = client.recv(500)) {
    if (reply->flags.tc) {
      ++slipped;
    } else {
      ++answered;
    }
  }
  loop.stop();
  const UdpServeStats& stats = loop.stats();
  EXPECT_EQ(stats.datagrams_received, static_cast<std::uint64_t>(kQueries));
  // Two tokens of burst, then alternating drop/slip. A wall-clock second
  // boundary crossing mid-test can refill a couple of tokens, so bound
  // rather than pin the answer count; the slip cadence stays exact.
  EXPECT_GE(answered, 2);
  EXPECT_LE(answered, 5);
  const int over_limit = kQueries - answered;
  EXPECT_EQ(slipped, over_limit / 2);
  EXPECT_EQ(stats.rrl_slipped, static_cast<std::uint64_t>(slipped));
  EXPECT_EQ(stats.rrl_dropped, static_cast<std::uint64_t>(over_limit - slipped));
  EXPECT_EQ(stats.dropped_policy, stats.rrl_dropped);
  EXPECT_EQ(stats.datagrams_received,
            stats.responses_sent + stats.send_failures + stats.truncated_queries +
                stats.dropped_total());
}

TEST(HardenedLoop, DrainConsumesBacklogThenStops) {
  UdpServeOptions options;
  options.threads = 1;
  options.hardening.guard = true;
  options.drain_deadline_ms = 5000;
  UdpServerLoop loop{options, [](unsigned) { return echo_handler(); }};
  ASSERT_TRUE(loop.start());
  LoopClient client{loop.endpoint()};

  constexpr int kQueries = 200;
  for (int i = 0; i < kQueries; ++i) {
    client.send(ptr_query_wire(static_cast<std::uint16_t>(i)));
  }
  // Drain immediately: everything loopback already queued must still be
  // answered — zero in-flight legitimate queries dropped.
  loop.request_drain();
  loop.stop();
  const UdpServeStats& stats = loop.stats();
  EXPECT_EQ(stats.datagrams_received, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.responses_sent + stats.send_failures,
            static_cast<std::uint64_t>(kQueries));

  int received = 0;
  while (client.recv(200).has_value()) ++received;
  EXPECT_EQ(received + static_cast<int>(stats.send_failures), kQueries);
}

TEST(HardenedLoop, GuardOffBehavesAsBefore) {
  UdpServeOptions options;
  options.threads = 1;  // hardening defaults: guard off
  UdpServerLoop loop{options, [](unsigned) { return echo_handler(); }};
  ASSERT_TRUE(loop.start());
  LoopClient client{loop.endpoint()};

  // Non-PTR reaches the handler (no policy), answered NOERROR.
  client.send(query_wire(RrType::A, RrClass::IN, 0x00AA));
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->flags.rcode, Rcode::NoError);
  loop.stop();
  EXPECT_EQ(loop.stats().responses_sent, 1u);
}

// -- serve.* registry counters ------------------------------------------

/// The exported serve.<field> counters, in field-table order (zero for
/// fields without a series).
std::vector<std::uint64_t> serve_counter_values() {
  std::vector<std::uint64_t> out;
  for (const UdpServeStatsField& f : kUdpServeStatsFields) {
    out.push_back(f.exported ? util::metrics::counter(std::string{"serve."} + f.name).value() : 0);
  }
  return out;
}

/// Answers, REFUSED, NOTIMP, garbage and RRL drops/slips through a
/// two-worker guarded loop; returns the loop's folded stats.
UdpServeStats serve_mixed_traffic(ServeIntrospection* plane) {
  UdpServeOptions options;
  options.threads = 2;
  options.hardening.guard = true;
  options.hardening.rrl_rate = 2.0;
  options.hardening.rrl_slip = 2;
  options.introspection = plane;
  UdpServerLoop loop{options, [](unsigned) { return echo_handler(); }};
  EXPECT_TRUE(loop.start());
  LoopClient client{loop.endpoint()};
  for (int i = 0; i < 40; ++i) {
    const auto id = static_cast<std::uint16_t>(i);
    std::vector<std::uint8_t> wire = ptr_query_wire(id);
    if (i % 4 == 1) wire = query_wire(RrType::A, RrClass::IN, id);
    if (i % 4 == 2) wire = {0xFF, 0x00, 0xAA};
    if (i % 4 == 3) wire[2] = static_cast<std::uint8_t>((wire[2] & 0x87) | (5u << 3));
    client.send(wire);
    // Mid-run passes render partial folds; the final counts must still
    // land exactly once.
    if (plane != nullptr && i % 10 == 9) plane->aggregate_now();
  }
  while (client.recv(300).has_value()) {
  }
  loop.request_drain();
  loop.stop();
  return loop.stats();
}

void expect_counters_grew_by(const std::vector<std::uint64_t>& before,
                             const UdpServeStats& stats) {
  EXPECT_EQ(stats.datagrams_received, 40u);
  EXPECT_GT(stats.rrl_dropped + stats.rrl_slipped, 0u);
  const std::vector<std::uint64_t> after = serve_counter_values();
  for (std::size_t i = 0; i < kUdpServeStatsFields.size(); ++i) {
    const UdpServeStatsField& f = kUdpServeStatsFields[i];
    if (f.exported) {
      EXPECT_EQ(after[i] - before[i], stats.*f.member) << "serve." << f.name;
    }
  }
}

TEST(ServeCounters, RenderedOnceThroughArmedPlane) {
  const std::vector<std::uint64_t> before = serve_counter_values();
  UdpServeStats stats;
  {
    ServeIntrospection plane{2, ServeAdminConfig{}};
    plane.start();
    stats = serve_mixed_traffic(&plane);
    plane.aggregate_now();
    plane.stop();  // later passes fold the same totals: they add nothing
  }
  expect_counters_grew_by(before, stats);
}

TEST(ServeCounters, RenderedOnceByBareLoop) {
  const std::vector<std::uint64_t> before = serve_counter_values();
  expect_counters_grew_by(before, serve_mixed_traffic(nullptr));
}

}  // namespace
}  // namespace rdns::dns

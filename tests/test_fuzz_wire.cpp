// Deterministic mutational fuzz over the serve path's wire defense
// (ISSUE 9 / DESIGN.md §15). A seeded splitmix64 drives >= 10k mutations of
// valid PTR queries — truncations, bit flips, compression-pointer loops,
// label bombs, length lies, section-count lies, splices — and checks the
// guard's contracts on every one:
//
//   * classify_query never throws, whatever the bytes;
//   * an Answer verdict guarantees decode() cannot throw downstream;
//   * error verdicts produce guard responses that always re-decode;
//   * decode() itself only ever fails by throwing WireError (no crashes —
//     the ASan CI leg turns memory bugs into hard failures here);
//   * an answer-cache hit implies decode() succeeds, and the assembled
//     reply equals the codec's.
//
// A final socket-level blast feeds a slice of the corpus to a guarded
// UdpServerLoop and proves the worker still answers a clean query after.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/answer_cache.hpp"
#include "dns/message.hpp"
#include "dns/serve_guard.hpp"
#include "dns/server.hpp"
#include "dns/udp_server.hpp"
#include "dns/wire.hpp"
#include "dns/zone.hpp"
#include "net/arpa.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"

namespace rdns::dns {
namespace {

/// splitmix64: tiny, seedable, and identical everywhere — the corpus is a
/// pure function of kSeed, so a failure reproduces from the iteration index.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : next() % bound; }
};

constexpr std::uint64_t kSeed = 0x52444E5346555A41ULL;  // "RDNSFUZA"
constexpr int kMutations = 12000;

/// Append a minimal EDNS0 OPT RR (RFC 6891): root owner, type 41, the
/// advertised UDP payload size in the class field, zero TTL, `rdlen`
/// declared (the caller controls whether it matches the bytes appended).
void append_opt(std::vector<std::uint8_t>& wire, std::uint16_t udp_size,
                std::uint16_t rdlen, std::size_t actual_rdata = SIZE_MAX) {
  const std::uint16_t ar = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(wire[10]) << 8 | wire[11]) + 1);
  wire[10] = static_cast<std::uint8_t>(ar >> 8);
  wire[11] = static_cast<std::uint8_t>(ar);
  wire.push_back(0x00);  // root owner
  wire.push_back(0x00);
  wire.push_back(41);  // TYPE = OPT
  wire.push_back(static_cast<std::uint8_t>(udp_size >> 8));
  wire.push_back(static_cast<std::uint8_t>(udp_size));
  for (int i = 0; i < 4; ++i) wire.push_back(0x00);  // TTL = ext-rcode/flags
  wire.push_back(static_cast<std::uint8_t>(rdlen >> 8));
  wire.push_back(static_cast<std::uint8_t>(rdlen));
  const std::size_t pad = actual_rdata == SIZE_MAX ? rdlen : actual_rdata;
  for (std::size_t i = 0; i < pad; ++i) wire.push_back(0x00);
}

std::vector<std::vector<std::uint8_t>> base_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back(encode(make_ptr_query(0x0001, net::Ipv4Addr{10, 1, 2, 3})));
  corpus.push_back(encode(make_ptr_query(0xFFFF, net::Ipv4Addr{192, 168, 250, 251})));
  corpus.push_back(encode(make_ptr_query(0x00A5, net::Ipv4Addr{1, 0, 0, 1})));
  {
    Message chaos = make_query(0x0002, DnsName::must_parse("stats.bind"), RrType::TXT);
    chaos.questions[0].qclass = RrClass::CH;
    corpus.push_back(encode(chaos));
  }
  {
    Message extra = make_ptr_query(0x0003, net::Ipv4Addr{172, 16, 0, 9});
    ResourceRecord rr;
    rr.name = DnsName::must_parse("pad.example");
    rr.klass = RrClass::IN;
    rr.ttl = 1;
    rr.rdata = TxtRdata{{"padding"}};
    extra.additional.push_back(rr);
    corpus.push_back(encode(extra));
  }
  {
    // EDNS PTR query with a minimal well-formed OPT — the serve_guard
    // inline fast path's exact shape (RFC 6891).
    auto edns = encode(make_ptr_query(0x0004, net::Ipv4Addr{10, 80, 1, 7}));
    append_opt(edns, 1232, 0);
    corpus.push_back(std::move(edns));
  }
  {
    // EDNS with a non-empty RDATA (an option blob) and an absurd payload
    // size — still well-formed, still fast-path eligible.
    auto edns = encode(make_ptr_query(0x0005, net::Ipv4Addr{100, 64, 3, 2}));
    append_opt(edns, 0xFFFF, 8);
    corpus.push_back(std::move(edns));
  }
  return corpus;
}

/// A server holding a PTR for each of the base corpus's query addresses,
/// and an answer cache over the /24 around each: the mutations that keep a
/// canonical PTR shape probe against it.
struct CorpusZones {
  AuthoritativeServer server;
  std::shared_ptr<const AnswerCache> cache;

  CorpusZones() {
    SoaRdata soa;
    soa.mname = DnsName::must_parse("ns.corpus.example");
    soa.rname = DnsName::must_parse("hostmaster.corpus.example");
    std::vector<AnswerCache::Source> sources;
    for (const net::Ipv4Addr a : {net::Ipv4Addr{10, 1, 2, 3}, net::Ipv4Addr{192, 168, 250, 251},
                                  net::Ipv4Addr{1, 0, 0, 1}, net::Ipv4Addr{172, 16, 0, 9},
                                  net::Ipv4Addr{10, 80, 1, 7}, net::Ipv4Addr{100, 64, 3, 2}}) {
      Zone& zone = server.add_zone(
          DnsName::must_parse(std::to_string(a.octet(1)) + "." + std::to_string(a.octet(0)) +
                              ".in-addr.arpa"),
          soa);
      zone.add(make_ptr(DnsName::must_parse(net::to_arpa(a)),
                        DnsName::must_parse("host.corpus.example")));
      const net::Ipv4Addr first = net::slash24_of(a);
      sources.push_back({&server, first, first + 0xFF});
    }
    cache = AnswerCache::build(sources);
  }
};

/// One seeded mutation of `base`. Nine strategies weighted toward the
/// shapes the classifier's branches care about.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& base, SplitMix64& rng) {
  std::vector<std::uint8_t> m = base;
  switch (rng.below(10)) {
    case 0:  // truncation: cut anywhere, including mid-header
      m.resize(rng.below(m.size() + 1));
      break;
    case 1: {  // bit flips: 1..8 random single-bit corruptions
      const std::uint64_t flips = 1 + rng.below(8);
      for (std::uint64_t i = 0; i < flips && !m.empty(); ++i) {
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    }
    case 2: {  // length lie: overwrite a label-length byte in the qname
      if (m.size() > 13) m[12 + rng.below(m.size() - 13)] = static_cast<std::uint8_t>(rng.next());
      break;
    }
    case 3: {  // compression pointer, possibly a self-loop
      if (m.size() > 14) {
        const std::size_t at = 12 + rng.below(m.size() - 14);
        const std::uint16_t target = static_cast<std::uint16_t>(rng.below(m.size() + 4));
        m[at] = static_cast<std::uint8_t>(0xC0 | ((target >> 8) & 0x3F));
        m[at + 1] = static_cast<std::uint8_t>(target);
      }
      break;
    }
    case 4: {  // label bomb: a long chain of 1-octet labels, no terminator
      m.resize(12);
      const std::uint64_t labels = 1 + rng.below(200);
      for (std::uint64_t i = 0; i < labels; ++i) {
        m.push_back(1);
        m.push_back(static_cast<std::uint8_t>('a' + rng.below(26)));
      }
      if (rng.below(2) == 0) {
        m.push_back(0);
        for (int i = 0; i < 4; ++i) m.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      break;
    }
    case 5: {  // section-count lies in the header
      const std::size_t at = 4 + 2 * rng.below(4);
      m[at] = static_cast<std::uint8_t>(rng.next());
      m[at + 1] = static_cast<std::uint8_t>(rng.next());
      break;
    }
    case 6: {  // flags scramble: random QR/opcode/rcode combinations
      m[2] = static_cast<std::uint8_t>(rng.next());
      m[3] = static_cast<std::uint8_t>(rng.next());
      break;
    }
    case 7: {  // splice: random tail from pure noise
      const std::uint64_t keep = rng.below(m.size() + 1);
      m.resize(keep);
      const std::uint64_t add = rng.below(64);
      for (std::uint64_t i = 0; i < add; ++i) m.push_back(static_cast<std::uint8_t>(rng.next()));
      break;
    }
    case 8: {  // qtype/qclass corruption at the question's tail
      if (m.size() >= 4) {
        m[m.size() - 4 + rng.below(4)] = static_cast<std::uint8_t>(rng.next());
      }
      break;
    }
    default: {  // EDNS OPT abuse: bolt a (possibly lying) OPT onto the tail
      switch (rng.below(4)) {
        case 0:  // lying RDLEN: declared length != bytes actually present
          append_opt(m, 1232, static_cast<std::uint16_t>(rng.below(0x10000)),
                     rng.below(16));
          break;
        case 1:  // absurd advertised payload sizes (0, 1, 0xFFFF, ...)
          append_opt(m, static_cast<std::uint16_t>(rng.below(0x10000)), 0);
          break;
        case 2:  // duplicate OPT records (RFC 6891 forbids more than one)
          append_opt(m, 512, 0);
          append_opt(m, 4096, 0);
          break;
        default:  // non-root owner: OPT must sit at the root name
          append_opt(m, 1232, 0);
          m[m.size() - 11] = static_cast<std::uint8_t>(1 + rng.below(63));
          break;
      }
      break;
    }
  }
  return m;
}

TEST(FuzzWire, ClassifierAndCodecSurviveSeededMutations) {
  const auto corpus = base_corpus();
  const CorpusZones zones;
  SplitMix64 rng{kSeed};

  std::uint64_t verdicts[5] = {0, 0, 0, 0, 0};
  std::uint64_t cache_hits = 0;
  for (int iteration = 0; iteration < kMutations; ++iteration) {
    const auto& base = corpus[static_cast<std::size_t>(iteration) % corpus.size()];
    const std::vector<std::uint8_t> wire = mutate(base, rng);
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);

    // Contract 1: classification is total — no throw on any input.
    Classified c;
    ASSERT_NO_THROW(c = classify_query(wire, /*restrict_ptr=*/true));
    verdicts[static_cast<std::size_t>(c.verdict)]++;

    // Contract 2: decode only ever fails by throwing WireError.
    bool decodable = false;
    try {
      (void)decode(wire);
      decodable = true;
    } catch (const WireError&) {
      decodable = false;
    }

    switch (c.verdict) {
      case WireVerdict::Answer:
        // Contract 3: an Answer verdict means the handler's decode is safe.
        ASSERT_TRUE(decodable) << "classified Answer but decode() threw";
        break;
      case WireVerdict::FormErr:
      case WireVerdict::NotImp:
      case WireVerdict::Refused: {
        // Contract 4: every guard error response re-decodes cleanly.
        const Rcode rcode = c.verdict == WireVerdict::FormErr ? Rcode::FormErr
                            : c.verdict == WireVerdict::NotImp ? Rcode::NotImp
                                                               : Rcode::Refused;
        std::vector<std::uint8_t> reply;
        ASSERT_NO_THROW(reply = make_guard_response(wire, c.question_end, rcode,
                                                    /*tc=*/false));
        ASSERT_GE(reply.size(), 12u);
        ASSERT_NO_THROW((void)decode(reply)) << "guard response does not re-decode";
        break;
      }
      case WireVerdict::SilentDrop:
        break;
    }

    // Contract 5: the cache answers only what the codec answers, with the
    // codec's bytes.
    const AnswerCache::Probe p = zones.cache->probe(wire);
    if (p.hit) {
      ++cache_hits;
      ASSERT_TRUE(decodable) << "cache hit on a datagram decode() refuses";
      std::vector<std::uint8_t> assembled(AnswerCache::reply_size(p));
      assembled.resize(AnswerCache::assemble(p, wire, assembled.data()));
      ServerStats scratch;
      const auto reply = zones.server.handle_readonly(decode(wire), scratch);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(assembled, encode(*reply)) << "cache hit differs from the codec reply";
    }
  }

  // The corpus must actually exercise every branch; a mutator regression
  // that collapses the distribution should fail loudly, not fuzz nothing.
  EXPECT_GT(cache_hits, 0u);
  EXPECT_GT(verdicts[static_cast<std::size_t>(WireVerdict::Answer)], 0u);
  EXPECT_GT(verdicts[static_cast<std::size_t>(WireVerdict::SilentDrop)], 0u);
  EXPECT_GT(verdicts[static_cast<std::size_t>(WireVerdict::FormErr)], 0u);
  EXPECT_GT(verdicts[static_cast<std::size_t>(WireVerdict::NotImp)], 0u);
  EXPECT_GT(verdicts[static_cast<std::size_t>(WireVerdict::Refused)], 0u);
}

TEST(FuzzWire, EdnsOptFastPathAgreesWithTheDecoder) {
  // serve_guard keeps one EDNS shape on the allocation-free fast path: a
  // single well-formed OPT (root owner, type 41, RDLEN covering the tail
  // exactly). Everything else routes through the full decoder. The
  // equivalence contract for a PTR/IN question is therefore exact:
  // classify says Answer if and only if decode() succeeds — the fast path
  // may never accept a shape the codec rejects, nor reject one it accepts.
  const auto check = [](const std::vector<std::uint8_t>& wire, const char* what) {
    Classified c;
    ASSERT_NO_THROW(c = classify_query(wire, /*restrict_ptr=*/true)) << what;
    bool decodable = false;
    try {
      (void)decode(wire);
      decodable = true;
    } catch (const WireError&) {
    }
    if (decodable) {
      EXPECT_EQ(c.verdict, WireVerdict::Answer) << what;
    } else {
      EXPECT_NE(c.verdict, WireVerdict::Answer) << what;
    }
  };

  const auto base = encode(make_ptr_query(0x4242, net::Ipv4Addr{10, 80, 0, 7}));

  {  // Well-formed minimal OPT: the fast path must answer it inline.
    auto wire = base;
    append_opt(wire, 1232, 0);
    const Classified c = classify_query(wire, true);
    EXPECT_EQ(c.verdict, WireVerdict::Answer);
    // The verdict must match the bare question's (policy equivalence:
    // a valid OPT never changes what the policy layer sees).
    EXPECT_EQ(c.verdict, classify_query(base, true).verdict);
    EXPECT_EQ(c.question_end, classify_query(base, true).question_end);
    check(wire, "minimal OPT");
  }
  {  // Non-empty RDATA with a matching RDLEN is still well-formed.
    auto wire = base;
    append_opt(wire, 4096, 12);
    check(wire, "OPT with 12-byte rdata");
  }
  {  // Absurd advertised payload sizes are legal class values.
    for (const std::uint16_t size : {std::uint16_t{0}, std::uint16_t{1},
                                     std::uint16_t{512}, std::uint16_t{0xFFFF}}) {
      auto wire = base;
      append_opt(wire, size, 0);
      check(wire, "absurd payload size");
    }
  }
  {  // Lying RDLEN: declares 100 bytes, carries none. Must not be Answer.
    auto wire = base;
    append_opt(wire, 1232, 100, /*actual_rdata=*/0);
    check(wire, "RDLEN overruns the message");
    EXPECT_NE(classify_query(wire, true).verdict, WireVerdict::Answer);
  }
  {  // RDLEN under-declares: 4 trailing bytes the OPT does not cover.
    auto wire = base;
    append_opt(wire, 1232, 0, /*actual_rdata=*/4);
    check(wire, "trailing junk past the OPT");
  }
  {  // Duplicate OPT (ar=2): never fast-path; verdict must track decode().
    auto wire = base;
    append_opt(wire, 512, 0);
    append_opt(wire, 4096, 0);
    check(wire, "duplicate OPT");
  }
  {  // Non-root owner: OPT must sit at the root name.
    auto wire = base;
    append_opt(wire, 1232, 0);
    wire[wire.size() - 11] = 3;
    check(wire, "OPT with a non-root owner");
  }

  // Randomized sweep: arbitrary OPT trailers on a valid PTR/IN question.
  // The classify⇔decode equivalence must hold for every one of them.
  SplitMix64 rng{kSeed ^ 0x4544'4E53'304F'5054ULL};
  for (int iteration = 0; iteration < 2000; ++iteration) {
    auto wire = base;
    const auto rdlen = static_cast<std::uint16_t>(rng.below(64));
    const std::size_t actual = rng.below(64);
    append_opt(wire, static_cast<std::uint16_t>(rng.below(0x10000)), rdlen, actual);
    // Sometimes scribble over the OPT fixed fields too.
    if (rng.below(3) == 0 && wire.size() > base.size()) {
      wire[base.size() + rng.below(wire.size() - base.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    check(wire, "random OPT trailer");
  }
}

TEST(FuzzWire, SlipResponsesAlwaysDecode) {
  // The RRL slip path stamps TC onto whatever question scanned; fuzz that
  // shape specifically (it reuses question_end from arbitrary input).
  const auto corpus = base_corpus();
  SplitMix64 rng{kSeed ^ 0xDEADBEEFULL};
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const auto wire = mutate(corpus[static_cast<std::size_t>(iteration) % corpus.size()], rng);
    const Classified c = classify_query(wire, true);
    if (c.verdict != WireVerdict::Answer) continue;
    std::vector<std::uint8_t> slip;
    ASSERT_NO_THROW(slip = make_guard_response(wire, c.question_end, Rcode::NoError,
                                               /*tc=*/true));
    Message m;
    ASSERT_NO_THROW(m = decode(slip)) << "iteration " << iteration;
    EXPECT_TRUE(m.flags.tc);
  }
}

TEST(FuzzWire, GuardedLoopSurvivesGarbageBlast) {
  UdpServeOptions options;
  options.threads = 1;
  options.hardening.guard = true;
  UdpServerLoop loop{options, [](unsigned) {
    return [](std::span<const std::uint8_t> query)
               -> std::optional<std::vector<std::uint8_t>> {
      return encode(make_response(decode(query), Rcode::NoError));
    };
  }};
  ASSERT_TRUE(loop.start());

  auto client = net::UdpSocket::open();
  ASSERT_TRUE(client.has_value());
  const net::UdpEndpoint server = loop.endpoint();

  const auto corpus = base_corpus();
  SplitMix64 rng{kSeed ^ 0x5050505050505050ULL};
  constexpr int kBlast = 2048;
  int sent = 0;
  for (int i = 0; i < kBlast; ++i) {
    const auto wire = mutate(corpus[static_cast<std::size_t>(i) % corpus.size()], rng);
    if (client->send(wire, server)) ++sent;
    // Drain any replies as we go so the client buffer never backs up.
    std::vector<std::uint8_t> sink(2048);
    while (client->wait_readable(0)) (void)client->recv(sink);
  }

  // Let the worker chew through the backlog, then flush remaining replies.
  std::vector<std::uint8_t> sink(2048);
  while (client->wait_readable(200)) (void)client->recv(sink);

  // The worker must still be alive and answering clean queries.
  const auto probe = encode(make_ptr_query(0x7777, net::Ipv4Addr{10, 9, 8, 7}));
  ASSERT_TRUE(client->send(probe, server));
  ASSERT_TRUE(client->wait_readable(2000)) << "worker wedged after garbage blast";
  std::vector<std::uint8_t> buffer(2048);
  const auto n = client->recv(buffer);
  ASSERT_TRUE(n.has_value());
  buffer.resize(*n);
  const Message reply = decode(buffer);
  EXPECT_EQ(reply.id, 0x7777);

  loop.stop();
  const UdpServeStats& stats = loop.stats();
  // The blast is open-loop: the kernel may shed datagrams the worker never
  // saw, so received <= sent. What must hold is that everything the worker
  // DID see is accounted for — the serve.stop partition invariant.
  EXPECT_LE(stats.datagrams_received, static_cast<std::uint64_t>(sent) + 1);
  EXPECT_GT(stats.datagrams_received, 1u);
  EXPECT_EQ(stats.datagrams_received,
            stats.responses_sent + stats.send_failures + stats.truncated_queries +
                stats.dropped_total());
}

}  // namespace
}  // namespace rdns::dns

#include "dns/serve_guard.hpp"

#include "dns/wire.hpp"

namespace rdns::dns {

namespace {

constexpr std::size_t kHeaderBytes = 12;

[[nodiscard]] std::uint16_t read_u16(std::span<const std::uint8_t> p, std::size_t at) noexcept {
  return static_cast<std::uint16_t>((p[at] << 8) | p[at + 1]);
}

/// Policy verdict for a scanned question. CH TXT is the chaos/introspection
/// plane and always passes; everything else must be IN (and PTR when the
/// PTR-only policy is on).
[[nodiscard]] WireVerdict policy_verdict(std::uint16_t qtype, std::uint16_t qclass,
                                         bool restrict_ptr) noexcept {
  if (qclass == static_cast<std::uint16_t>(RrClass::CH)) {
    return qtype == static_cast<std::uint16_t>(RrType::TXT) ? WireVerdict::Answer
                                                            : WireVerdict::Refused;
  }
  if (qclass != static_cast<std::uint16_t>(RrClass::IN)) return WireVerdict::Refused;
  if (restrict_ptr && qtype != static_cast<std::uint16_t>(RrType::PTR)) {
    return WireVerdict::Refused;
  }
  return WireVerdict::Answer;
}

/// Exact slow path for the rare shapes the fast scan refuses to guess at
/// (compression pointers in the qname, non-empty trailing sections): run
/// the same WireReader the zone handler will use, so an `Answer` verdict is
/// a guarantee that `decode()` cannot throw downstream. Compressed qnames
/// get `question_end = 0` — echoing a prefix that contains forward pointers
/// could produce an undecodable error response, so those replies carry a
/// bare header instead.
[[nodiscard]] Classified classify_slow(std::span<const std::uint8_t> payload, bool restrict_ptr,
                                       bool compressed_qname) {
  try {
    WireReader r{payload};
    (void)r.u16();  // id
    (void)r.u16();  // flags (already vetted by the caller)
    const std::uint16_t qd = r.u16();
    const std::uint16_t an = r.u16();
    const std::uint16_t ns = r.u16();
    const std::uint16_t ar = r.u16();
    if (qd != 1) return {WireVerdict::FormErr, 0};
    const Question q = r.question();
    const std::size_t question_end = compressed_qname ? 0 : r.position();
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(an) + ns + ar; ++i) (void)r.rr();
    return {policy_verdict(static_cast<std::uint16_t>(q.qtype),
                           static_cast<std::uint16_t>(q.qclass), restrict_ptr),
            question_end};
  } catch (const WireError&) {
    return {WireVerdict::FormErr, 0};
  }
}

}  // namespace

const char* to_string(WireVerdict v) noexcept {
  switch (v) {
    case WireVerdict::Answer: return "answer";
    case WireVerdict::SilentDrop: return "silent-drop";
    case WireVerdict::FormErr: return "formerr";
    case WireVerdict::NotImp: return "notimp";
    case WireVerdict::Refused: return "refused";
  }
  return "unknown";
}

Classified classify_query(std::span<const std::uint8_t> payload, bool restrict_ptr) {
  return classify_query(scan_query(payload), restrict_ptr);
}

Classified classify_query(const QueryView& query, bool restrict_ptr) {
  // Shorter than a header: not even classifiable, drop silently.
  if (!query.header) return {WireVerdict::SilentDrop, 0};

  // A response (QR=1) aimed at a server port is reflection noise, never a
  // query — answering it would complete an amplification loop.
  if ((query.flags & 0x8000) != 0) return {WireVerdict::SilentDrop, 0};
  const auto opcode = static_cast<std::uint8_t>((query.flags >> 11) & 0xF);
  if (opcode != static_cast<std::uint8_t>(Opcode::Query)) return {WireVerdict::NotImp, 0};
  if (query.qdcount != 1) return {WireVerdict::FormErr, 0};

  if (query.question == QueryView::Question::Compressed) {
    // Compression in a qname: legal but rare; take the exact slow path.
    return classify_slow(query.wire, restrict_ptr, /*compressed_qname=*/true);
  }
  if (query.question != QueryView::Question::Clean) return {WireVerdict::FormErr, 0};

  // Extra sections in a query are suspicious but decodable shapes exist;
  // verify them with the real decoder so the verdict matches what the
  // handler would see. The one OPT shape every EDNS-speaking client sends
  // stays on the fast path (QueryView::bare); anything else — OPT with
  // trailing junk, a lying RDLEN, answer/authority RRs — takes the slow
  // path.
  if (!query.bare()) {
    Classified c = classify_slow(query.wire, restrict_ptr, /*compressed_qname=*/false);
    if (c.verdict == WireVerdict::FormErr && c.question_end == 0) {
      c.question_end = query.question_end;
    }
    return c;
  }
  return {policy_verdict(query.qtype, query.qclass, restrict_ptr), query.question_end};
}

std::vector<std::uint8_t> make_guard_response(std::span<const std::uint8_t> query,
                                              std::size_t question_end, Rcode rcode, bool tc) {
  // Echo the header (and the question when it scanned clean); everything
  // past the question is dropped and the section counts zeroed.
  const std::size_t copy = question_end >= kHeaderBytes + 1
                               ? std::min(question_end, query.size())
                               : std::min(kHeaderBytes, query.size());
  std::vector<std::uint8_t> out(query.begin(),
                                query.begin() + static_cast<std::ptrdiff_t>(copy));
  out.resize(std::max<std::size_t>(out.size(), kHeaderBytes), 0);

  // Flags: QR=1, preserve opcode + RD, clear AA/RA, stamp TC and rcode.
  std::uint16_t flags = read_u16(out, 2);
  flags = static_cast<std::uint16_t>(flags & 0x7900);  // keep opcode + RD
  flags |= 0x8000;                                     // QR
  if (tc) flags |= 0x0200;
  flags |= static_cast<std::uint16_t>(rcode) & 0xF;
  out[2] = static_cast<std::uint8_t>(flags >> 8);
  out[3] = static_cast<std::uint8_t>(flags);

  const std::uint16_t qd = copy > kHeaderBytes ? 1 : 0;
  out[4] = 0;
  out[5] = static_cast<std::uint8_t>(qd);
  for (std::size_t i = 6; i < kHeaderBytes; ++i) out[i] = 0;  // an/ns/ar = 0
  return out;
}

// ------------------------------------------------------------- ServeGuard --

ServeGuard::ServeGuard(const ServeHardeningOptions& options) : options_(options) {
  if (options_.rrl_burst <= 0.0) options_.rrl_burst = options_.rrl_rate;
  if (options_.shed_answer_every < 2) options_.shed_answer_every = 2;
  if (rrl_armed()) buckets_.reserve(std::min<std::size_t>(options_.rrl_table_cap, 1024));
}

ServeGuard::RrlDecision ServeGuard::rrl_check(std::uint32_t client_address, std::int64_t now_s) {
  const std::uint32_t key = client_address & 0xFFFFFF00u;
  auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    if (buckets_.size() >= options_.rrl_table_cap) {
      // Bounded memory under address spoofing: wipe and start over. Brief
      // over-admission beats an unbounded table.
      buckets_.clear();
      ++table_flushes_;
    }
    it = buckets_.emplace(key, util::TokenBucket{options_.rrl_rate, options_.rrl_burst, now_s})
             .first;
  }
  if (it->second.try_acquire(now_s)) return RrlDecision::Answer;
  ++slip_counter_;
  if (options_.rrl_slip != 0 && slip_counter_ % options_.rrl_slip == 0) {
    return RrlDecision::Slip;
  }
  return RrlDecision::Drop;
}

unsigned ServeGuard::on_batch(bool full) noexcept {
  // Full batches mean the socket queue is outrunning us; the streak climbs
  // one per batch and halves on any breather, so levels shed quickly once
  // the flood stops but need sustained pressure to engage.
  if (full) {
    if (full_streak_ < 1u << 20) ++full_streak_;
  } else {
    full_streak_ /= 2;
  }
  unsigned level = 0;
  if (options_.shed_l1_batches != 0 && full_streak_ >= options_.shed_l1_batches) level = 1;
  if (options_.shed_l2_batches != 0 && full_streak_ >= options_.shed_l2_batches) level = 2;
  if (options_.shed_l3_batches != 0 && full_streak_ >= options_.shed_l3_batches) level = 3;
  shed_level_ = level;
  return level;
}

bool ServeGuard::shed_answer() noexcept {
  return ++answer_counter_ % options_.shed_answer_every == 0;
}

}  // namespace rdns::dns

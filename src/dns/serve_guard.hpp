#pragma once
/// \file serve_guard.hpp
/// Abuse defense for the UDP serving loop: wire classification, response
/// rate limiting and load shedding, applied per worker before the zone
/// handler runs (DESIGN.md §15).
///
/// Three layers, cheapest first:
///
///   1. **Wire defense** — the datagram's allocation-free scan (QueryView)
///      classifies every datagram before it can reach the codec:
///      undecodable garbage is dropped silently (`serve.dropped_malformed`),
///      a decodable header with a broken body earns FORMERR, an unsupported
///      opcode NOTIMP, and an out-of-policy question (non-IN class or, under
///      the PTR-only policy, a non-PTR qtype) REFUSED. Queries that carry
///      extra sections take a slow path through the full decoder so the
///      classification stays exact without taxing the common case (QD=1,
///      everything else 0).
///
///   2. **Response rate limiting (RRL)** — a per-client-/24 token bucket
///      (util::TokenBucket on whole wall-clock seconds, the BIND RRL
///      window idiom) gates answers *before* the zone lookup, so an abusive
///      /24 costs a table probe instead of a handler run. Over-limit
///      queries are dropped except for every `slip`-th one, which gets a
///      minimal TC=1 response — the standard RRL "slip" escape hatch that
///      lets a legitimate client behind a spoofed /24 learn to retry.
///
///   3. **Overload shedding** — a per-worker backlog monitor watches how
///      often recvmmsg fills its whole batch (the only backlog signal a
///      SO_REUSEPORT worker has) and walks a shed ladder, dumping the
///      lowest-value work first: error responses, then RRL slips, then a
///      deterministic fraction of answers. Levels decay as the backlog
///      clears.
///
/// The guard is per-worker state (no locks on the hot path); with
/// `ServeHardeningOptions.guard == false` the serving loop behaves exactly
/// as before — one branch per query.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"
#include "util/token_bucket.hpp"

namespace rdns::dns {

struct QueryView;  // dns/wire.hpp

/// Tuning knobs for the serve-path defense; defaults keep everything off so
/// bare UdpServerLoop users (unit tests, benches) see no behavior change.
struct ServeHardeningOptions {
  /// Master switch for the wire-classification front-end (and with it the
  /// FORMERR/NOTIMP/REFUSED error responses).
  bool guard = false;
  /// Refuse IN-class questions whose qtype is not PTR (CH TXT chaos
  /// queries are always exempt — they are the introspection plane).
  bool restrict_ptr = true;
  /// Per-client-/24 answer budget in responses/second (0 = RRL off).
  /// Token granularity is one wall-clock second, like BIND's RRL window.
  double rrl_rate = 0.0;
  /// Bucket depth; 0 = one second's worth (`rrl_rate`).
  double rrl_burst = 0.0;
  /// Answer every Nth over-limit query with a minimal TC=1 response
  /// instead of silence (0 = never slip).
  unsigned rrl_slip = 2;
  /// Max tracked /24 buckets per worker; on overflow the table is flushed
  /// (counted in serve.rrl_table_flushes) — bounded memory under spoofing.
  std::size_t rrl_table_cap = 4096;
  /// Consecutive full recv batches before the shed ladder steps to L1
  /// (drop error responses), L2 (drop RRL slips too), L3 (drop a fraction
  /// of answers). 0 disables that level.
  unsigned shed_l1_batches = 8;
  unsigned shed_l2_batches = 32;
  unsigned shed_l3_batches = 128;
  /// At L3, drop one in `shed_answer_every` would-be answers (>= 2).
  unsigned shed_answer_every = 4;
};

/// Wire-classification verdict for one inbound datagram.
enum class WireVerdict : std::uint8_t {
  Answer,        ///< well-formed, in policy: run the zone handler
  SilentDrop,    ///< undecodable (or a response): drop without a reply
  FormErr,       ///< header decodes, body does not
  NotImp,        ///< unsupported opcode
  Refused,       ///< out-of-policy class/qtype
};

[[nodiscard]] const char* to_string(WireVerdict v) noexcept;

/// Classification result: the verdict plus, when the question section
/// scanned clean, the offset one past the question (for echoing it into
/// minimal error/TC responses without re-encoding).
struct Classified {
  WireVerdict verdict = WireVerdict::SilentDrop;
  std::size_t question_end = 0;  ///< 0 = question did not scan
};

/// Classify one query datagram from its scan (dns/wire.hpp). Pure: never
/// throws, never allocates on the fast path (QD=1 and no extra sections
/// but the one OPT); queries with other extra sections or a compressed
/// qname are verified through the full decoder. `restrict_ptr` applies the
/// PTR-only policy described above.
[[nodiscard]] Classified classify_query(const QueryView& query, bool restrict_ptr);
[[nodiscard]] Classified classify_query(std::span<const std::uint8_t> payload,
                                        bool restrict_ptr);

/// Build a minimal response for a classified query: echoes the 12-byte
/// header (and the question section when `question_end > 0`), sets QR,
/// zeroes the answer counts and stamps `rcode` (+ the TC bit for RRL
/// slips). The result always re-decodes cleanly.
[[nodiscard]] std::vector<std::uint8_t> make_guard_response(
    std::span<const std::uint8_t> query, std::size_t question_end, Rcode rcode, bool tc);

/// Per-worker defense state: RRL bucket table + shed ladder. All methods
/// are called from exactly one worker thread.
class ServeGuard {
 public:
  explicit ServeGuard(const ServeHardeningOptions& options);

  [[nodiscard]] const ServeHardeningOptions& options() const noexcept { return options_; }
  [[nodiscard]] bool rrl_armed() const noexcept { return options_.rrl_rate > 0.0; }

  /// RRL gate for one would-be answer from `client_address` (host order)
  /// at wall-clock second `now_s` (monotone within a worker).
  enum class RrlDecision : std::uint8_t { Answer, Drop, Slip };
  [[nodiscard]] RrlDecision rrl_check(std::uint32_t client_address, std::int64_t now_s);

  /// Feed one recv batch outcome into the backlog monitor and return the
  /// (possibly changed) shed level. `full` = the batch filled completely,
  /// i.e. the socket queue still had more.
  unsigned on_batch(bool full) noexcept;

  [[nodiscard]] unsigned shed_level() const noexcept { return shed_level_; }

  /// At L3+: returns true when this would-be answer should be shed (one in
  /// `shed_answer_every`, deterministic by arrival order).
  [[nodiscard]] bool shed_answer() noexcept;

  /// Monotone counter of RRL table flushes (capacity overflow).
  [[nodiscard]] std::uint64_t table_flushes() const noexcept { return table_flushes_; }
  [[nodiscard]] std::size_t table_size() const noexcept { return buckets_.size(); }

 private:
  ServeHardeningOptions options_;
  std::unordered_map<std::uint32_t, util::TokenBucket> buckets_;
  std::uint64_t slip_counter_ = 0;
  std::uint64_t table_flushes_ = 0;
  unsigned full_streak_ = 0;
  unsigned shed_level_ = 0;
  std::uint64_t answer_counter_ = 0;
};

}  // namespace rdns::dns

#pragma once
/// \file udp_server.hpp
/// Real UDP serving loop for the authoritative DNS surface: N worker
/// threads, each with its own SO_REUSEPORT socket on the shared port and an
/// epoll-driven drain loop (recvmmsg in, sendmmsg out). The kernel hashes
/// inbound flows across the worker sockets, so the serving path scales
/// without a user-space dispatcher — the same sharding move the parallel
/// sweep makes with per-/24 resolvers, applied at the socket layer.
///
/// The loop is handler-agnostic: each worker owns one WireHandler (built by
/// a factory at start), which maps query bytes to response bytes. The
/// rdns_tool `serve` command plugs in a per-worker sim::FrozenDnsView, so
/// the answers over real UDP are byte-identical to the in-process
/// transport; a handler returning nullopt models an injected timeout and
/// the datagram is simply dropped — a genuinely lossy medium for the
/// Fig. 6 error taxonomy.
///
/// With `UdpServeOptions.hardening.guard` armed, every datagram passes the
/// serve-guard front-end (dns/serve_guard.hpp) before the handler: garbage
/// is dropped or answered with FORMERR/NOTIMP/REFUSED, per-/24 RRL gates
/// answers with slip-to-TC, and a backlog-driven shed ladder dumps the
/// lowest-value work first under flood. `request_drain()` implements the
/// SIGTERM half of lifecycle robustness: workers stop waiting for new
/// input, drain what the kernel already accepted (bounded by
/// `drain_deadline_ms`), flush their final sendmmsg batches, and exit.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "dns/serve_guard.hpp"
#include "net/udp.hpp"

namespace rdns::dns {

class AnswerCache;         // dns/answer_cache.hpp
class ServeIntrospection;  // dns/admin.hpp

/// Per-worker serving statistics; all fields are sums, so worker
/// accumulators fold in any order (the ServerStats merge argument).
///
/// Every received datagram lands in exactly one of: responses_sent,
/// send_failures, truncated_queries, dropped_malformed,
/// dropped_timeout_fault, or dropped_policy — `datagrams_received` always
/// equals their sum (the schema checker enforces this on serve.stop).
/// The remaining counters are overlays: formerr/notimp/refused_sent and
/// rrl_slipped classify enqueued responses, rrl_dropped/shed_* classify
/// policy drops, cache_hits/cache_misses classify how answers were
/// produced, and edns_queries/tc_responses count the EDNS/TC post-step.
struct UdpServeStats {
  std::uint64_t datagrams_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t dropped_malformed = 0;      ///< undecodable garbage, silent
  std::uint64_t dropped_timeout_fault = 0;  ///< handler returned nullopt (timeout)
  std::uint64_t dropped_policy = 0;         ///< RRL drop or shed decision
  std::uint64_t truncated_queries = 0;      ///< inbound datagram over the cap
  std::uint64_t send_failures = 0;          ///< kernel back-pressure, dropped
  std::uint64_t recv_batches = 0;           ///< recvmmsg calls that returned data
  std::uint64_t formerr_sent = 0;           ///< FORMERR error responses enqueued
  std::uint64_t notimp_sent = 0;            ///< NOTIMP error responses enqueued
  std::uint64_t refused_sent = 0;           ///< REFUSED error responses enqueued
  std::uint64_t rrl_dropped = 0;            ///< over-limit, silently dropped
  std::uint64_t rrl_slipped = 0;            ///< over-limit, answered with TC=1
  std::uint64_t shed_errors = 0;            ///< error responses shed at L1+
  std::uint64_t shed_answers = 0;           ///< answers shed at L3
  std::uint64_t cache_hits = 0;             ///< replies assembled from the answer cache
  std::uint64_t cache_misses = 0;           ///< cache armed but the handler answered
  std::uint64_t edns_queries = 0;           ///< queries carrying a well-formed OPT RR
  std::uint64_t tc_responses = 0;           ///< replies truncated to TC=1 (size limit)

  /// Silent drops across all three causes (the pre-split
  /// `dropped_no_answer` aggregate, kept for summaries).
  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_malformed + dropped_timeout_fault + dropped_policy;
  }

  UdpServeStats& operator+=(const UdpServeStats& other) noexcept;
};

/// One UdpServeStats counter: its name and its member.
struct UdpServeStatsField {
  const char* name;
  std::uint64_t UdpServeStats::*member;
  /// Rendered as the `serve.<name>` registry counter and carried by the
  /// serve.stop journal event; false for loop-internal tallies.
  bool exported;
};

/// Every UdpServeStats counter, in declaration order — the one list that
/// folding, the introspection slot, the registry render and the serve.stop
/// event iterate.
inline constexpr auto kUdpServeStatsFields = std::to_array<UdpServeStatsField>({
    {"datagrams_received", &UdpServeStats::datagrams_received, true},
    {"responses_sent", &UdpServeStats::responses_sent, true},
    {"dropped_malformed", &UdpServeStats::dropped_malformed, true},
    {"dropped_timeout_fault", &UdpServeStats::dropped_timeout_fault, true},
    {"dropped_policy", &UdpServeStats::dropped_policy, true},
    {"truncated_queries", &UdpServeStats::truncated_queries, true},
    {"send_failures", &UdpServeStats::send_failures, true},
    {"recv_batches", &UdpServeStats::recv_batches, false},
    {"formerr_sent", &UdpServeStats::formerr_sent, true},
    {"notimp_sent", &UdpServeStats::notimp_sent, true},
    {"refused_sent", &UdpServeStats::refused_sent, true},
    {"rrl_dropped", &UdpServeStats::rrl_dropped, true},
    {"rrl_slipped", &UdpServeStats::rrl_slipped, true},
    {"shed_errors", &UdpServeStats::shed_errors, true},
    {"shed_answers", &UdpServeStats::shed_answers, true},
    {"cache_hits", &UdpServeStats::cache_hits, true},
    {"cache_misses", &UdpServeStats::cache_misses, true},
    {"edns_queries", &UdpServeStats::edns_queries, true},
    {"tc_responses", &UdpServeStats::tc_responses, true},
});

/// Add `delta` to the `serve.<name>` registry counter of every exported
/// field. Each count is rendered once: by the introspection plane's
/// aggregate pass for the workers it observes, by UdpServerLoop::stop()
/// for the rest (DESIGN.md §12).
void render_serve_counters(const UdpServeStats& delta);

struct UdpServeOptions {
  /// Bind endpoint; port 0 = kernel-assigned (read back via endpoint()).
  net::UdpEndpoint endpoint{/*address=*/0x7F000001u, /*port=*/0};
  unsigned threads = 1;                 ///< worker sockets/threads (min 1)
  std::size_t batch = 32;               ///< max datagrams per recvmmsg
  std::size_t payload_cap = net::UdpSocket::kDefaultPayloadCap;
  /// Abuse defense (wire classification, RRL, shed ladder); defaults off.
  ServeHardeningOptions hardening;
  /// Upper bound on how long a draining worker keeps consuming the
  /// kernel's already-accepted backlog before exiting (a flood would
  /// otherwise keep the drain loop fed forever).
  unsigned drain_deadline_ms = 2000;
  /// Optional live introspection plane (dns/admin.hpp): when set, each
  /// worker with a probe (index < workers()) feeds it — sampled latency,
  /// heavy-hitter sketches, seqlock stat slots. The plane must outlive
  /// stop(), which folds the final counts through it. When null the
  /// serving loop pays exactly one pointer test per query.
  ServeIntrospection* introspection = nullptr;
  /// Pre-serialized answer cache (dns/answer_cache.hpp). When set, each
  /// worker fetches the current cache at start and assembles cache hits
  /// in place in its reply slab; misses fall through to the handler. A hit
  /// sends the bytes the handler would have sent, so the cache changes
  /// speed only; null (default) sends every answer through the handler.
  std::function<std::shared_ptr<const AnswerCache>()> answer_cache;
  /// Generation epoch watched between batches: when it moves (hot reload)
  /// the worker re-fetches the cache through `answer_cache` — whole-cache
  /// invalidation for the price of one relaxed load per batch.
  const std::atomic<std::uint64_t>* answer_cache_epoch = nullptr;
  /// EDNS0 (RFC 6891): payload size advertised in the OPT we attach to
  /// answers to EDNS queries. Answers over the *client's* advertised size
  /// (clamped to [512, payload_cap]) — or over 512 for non-EDNS queries —
  /// are truncated to TC=1. CHAOS replies are exempt.
  std::uint16_t edns_udp_size = 1232;
};

class UdpServerLoop {
 public:
  /// Maps one query datagram to a response; nullopt = drop (timeout).
  using WireHandler =
      std::function<std::optional<std::vector<std::uint8_t>>(std::span<const std::uint8_t>)>;
  /// Called once per worker at start(); each worker owns its handler, so
  /// handlers may carry per-worker state (e.g. read-only world views with
  /// private statistics) without locking.
  using HandlerFactory = std::function<WireHandler(unsigned worker_index)>;

  UdpServerLoop(UdpServeOptions options, HandlerFactory factory);
  ~UdpServerLoop();

  UdpServerLoop(const UdpServerLoop&) = delete;
  UdpServerLoop& operator=(const UdpServerLoop&) = delete;

  /// Bind the worker sockets and launch the worker threads. Returns false
  /// (and fills `error`) when a socket cannot be bound.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Graceful drain: workers stop waiting for new datagrams, consume the
  /// backlog the kernel has already accepted (bounded by
  /// `drain_deadline_ms`), flush their outbound batches and final probe
  /// publish, then exit. Blocks until every worker has drained (so the
  /// wait itself is bounded by the deadline); follow with stop() to fold
  /// stats and release sockets. Idempotent; no-op when not running.
  void request_drain();

  /// Signal the workers, join them, and fold per-worker stats into
  /// stats(). Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The actually bound endpoint (resolves port 0). Valid after start().
  [[nodiscard]] net::UdpEndpoint endpoint() const noexcept { return bound_; }

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Merged per-worker totals. Stable only after stop(); while the loop
  /// runs, watch an introspection plane's aggregate instead.
  [[nodiscard]] const UdpServeStats& stats() const noexcept { return totals_; }

 private:
  struct Worker;
  void run_worker(Worker& worker, unsigned index);

  UdpServeOptions options_;
  HandlerFactory factory_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  net::UdpEndpoint bound_;
  int wake_fd_ = -1;  ///< eventfd (Linux) or pipe read-end wakes the epoll
  int wake_write_fd_ = -1;
  bool running_ = false;
  UdpServeStats totals_;
};

}  // namespace rdns::dns

#pragma once
/// \file admin.hpp
/// Live introspection plane for the UDP serving loop. While `rdns_tool
/// serve` is under load, an operator can watch it through three windows,
/// none of which perturbs the hot path:
///
///   - an HTTP admin endpoint (net::AdminHttpServer) exposing the whole
///     util::metrics registry as Prometheus text plus a stats.json document
///     with rolling 1s/10s/60s QPS windows, latency percentiles and
///     heavy-hitter top-K tables;
///   - a DNS-native CHAOS TXT interface on the serving port itself
///     (`dig +short CH TXT stats.rdns @server`) — zero extra dependencies,
///     the classic BIND `version.bind` idiom;
///   - sampled per-query tracing: a deterministic 1-in-N subset of queries
///     (chosen by transaction-id hash, so the subset is reproducible) is
///     clocked through the handler, feeds per-worker latency histograms and
///     qname heavy-hitter sketches, and emits `serve.slowlog` journal
///     events above a latency threshold.
///
/// Concurrency model (the snapshot pipeline of DESIGN.md §12, built on
/// util/live_plane.hpp). Each worker owns a WorkerProbe: plain local
/// accumulators plus two Space-Saving sketches behind a per-worker mutex
/// that only the aggregator ever contends. After every socket drain the
/// worker publishes its counters and latency buckets into its
/// util::SeqlockSlot. A util::PeriodicAggregator folds all slots every
/// 250 ms into a single Aggregate — rate windows, percentiles, merged
/// sketches — that the admin surfaces render, and renders the fold's new
/// counts into the `serve.*` registry counters. Workers never block on the
/// admin plane, and a disabled plane costs the serving loop one pointer
/// test per query.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/udp_server.hpp"
#include "util/live_plane.hpp"
#include "util/sketch.hpp"
#include "util/time.hpp"

namespace rdns::net {
class AdminHttpServer;
}

namespace rdns::dns {

struct QueryView;  // dns/wire.hpp

struct ServeAdminConfig {
  /// Sampled tracing: clock 1 query in `sample_every` (deterministic by
  /// txid hash). 0 disables sampling (and with it slowlog + qname top-K).
  unsigned sample_every = 8;
  /// A sampled query slower than this emits a serve.slowlog journal event.
  double slowlog_threshold_us = 1000.0;
  /// Capacity of the client/qname Space-Saving sketches.
  std::size_t top_k = 64;
  /// Simulated timestamp stamped on serve.slowlog journal events (the
  /// frozen world instant — serving does not advance simulated time).
  util::SimTime sim_time = 0;
};

/// Fixed latency bucketing for the per-worker histograms: upper bounds
/// 1us * 2^i, i = 0..kLatencyBuckets-1, plus an overflow bucket.
inline constexpr std::size_t kServeLatencyBuckets = 24;

/// One worker's published view, and the fold of all of them.
struct ServeLatencySnapshot {
  std::array<std::uint64_t, kServeLatencyBuckets + 1> buckets{};
  std::uint64_t count = 0;
  double sum_us = 0;

  [[nodiscard]] double percentile(double p) const noexcept;
};

class ServeIntrospection {
 public:
  /// The aggregator's folded view of the whole serving loop.
  struct Aggregate {
    UdpServeStats totals;
    ServeLatencySnapshot latency;
    double qps_1s = 0, qps_10s = 0, qps_60s = 0;  ///< responses/s windows
    std::uint64_t sampled = 0;                    ///< queries clocked so far
    std::uint64_t slowlog = 0;                    ///< slowlog events emitted
    std::vector<util::SpaceSaving::Entry> top_clients;
    std::vector<util::SpaceSaving::Entry> top_qnames;
    double uptime_s = 0;
  };

  /// Per-worker hot-path hooks. All methods are called by exactly one
  /// worker thread; publish() is the only synchronization point.
  class WorkerProbe {
   public:
    /// Deterministic 1-in-N gate by transaction-id hash (payload bytes
    /// 0..1). False when sampling is off or the payload is headerless.
    [[nodiscard]] bool should_sample(std::span<const std::uint8_t> query) const noexcept;

    /// Record a client address (host order) for the heavy-hitter sketch;
    /// buffered locally, folded at publish().
    void note_client(std::uint32_t address);

    /// Record a sampled query: latency histogram, qname sketch, slowlog.
    /// `reply` is the datagram sent back, empty when none was.
    void on_sampled(const QueryView& query, std::span<const std::uint8_t> reply,
                    double latency_us, const net::UdpEndpoint& client);

    /// Seqlock-publish the worker's stats + latency view and flush the
    /// sketch buffers. Called once per socket drain.
    void publish(const UdpServeStats& stats);

   private:
    friend class ServeIntrospection;
    WorkerProbe(ServeIntrospection* owner, unsigned index);

    /// Add the latest publication into `agg`; false when the read was torn.
    bool fold_into(Aggregate& agg) const;

    ServeIntrospection* owner_;
    unsigned index_;
    ServeLatencySnapshot latency_;
    std::uint64_t sampled_ = 0;
    std::uint64_t slowlog_ = 0;
    std::vector<std::uint32_t> client_buf_;
    std::vector<std::string> qname_buf_;
    util::SeqlockSlot slot_;

    std::mutex sketch_mu_;  ///< guards the sketches (worker folds, aggregator merges)
    util::SpaceSaving clients_;
    util::SpaceSaving qnames_;
  };

  ServeIntrospection(unsigned workers, ServeAdminConfig config);
  ~ServeIntrospection();

  ServeIntrospection(const ServeIntrospection&) = delete;
  ServeIntrospection& operator=(const ServeIntrospection&) = delete;

  [[nodiscard]] WorkerProbe& probe(unsigned worker) { return *probes_[worker]; }
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(probes_.size());
  }
  [[nodiscard]] const ServeAdminConfig& config() const noexcept { return config_; }

  /// Launch the aggregation thread (idempotent). stop() joins it and runs
  /// one final pass; the destructor calls stop().
  void start() { aggregator_.start(); }
  void stop() { aggregator_.stop(); }

  /// One synchronous aggregation pass (the admin surfaces call this before
  /// rendering so scrapes are fresh; tests drive it directly).
  void aggregate_now() { aggregator_.aggregate_now(); }

  /// Copy of the latest aggregate.
  [[nodiscard]] Aggregate aggregate() const;

  /// The handler wrap_chaos returns. A serve loop that finds one in its
  /// WireHandler (std::function::target) calls it with the QueryView it
  /// already holds, so the datagram is not scanned again.
  struct ChaosHandler {
    ServeIntrospection* plane;
    UdpServerLoop::WireHandler inner;

    std::optional<std::vector<std::uint8_t>> operator()(const QueryView& query) const;
    std::optional<std::vector<std::uint8_t>> operator()(
        std::span<const std::uint8_t> query) const;
  };

  /// Wrap a serving handler with the CHAOS-class TXT stats interface:
  /// queries with QCLASS=CH and QTYPE=TXT for stats.rdns / version.rdns /
  /// top.clients.rdns / top.qnames.rdns / loglevel.rdns (plus the
  /// version.bind alias) are answered from the introspection plane; every
  /// other datagram goes to `inner` untouched.
  [[nodiscard]] UdpServerLoop::WireHandler wrap_chaos(UdpServerLoop::WireHandler inner);

  /// Prometheus text exposition: the whole global metrics registry plus
  /// build info, QPS windows, latency percentiles and top-K tables.
  [[nodiscard]] std::string render_prometheus();

  /// Compact JSON stats document (schema rdns.serve-stats.v1) — what
  /// `rdns_tool top` polls.
  [[nodiscard]] std::string render_stats_json();

  /// Register /metrics, /stats.json and / on an admin HTTP server.
  void install_http_routes(net::AdminHttpServer& http);

 private:
  void aggregate_pass();
  [[nodiscard]] std::optional<std::vector<std::string>> chaos_txt_strings(
      const std::string& qname);

  ServeAdminConfig config_;
  std::vector<std::unique_ptr<WorkerProbe>> probes_;
  std::chrono::steady_clock::time_point started_;

  // Pass state, guarded by the aggregator's pass lock.
  util::RateWindows received_rate_;
  util::RateWindows sent_rate_;
  UdpServeStats rendered_;  ///< counts already rendered into the registry
  Aggregate latest_;

  util::PeriodicAggregator aggregator_{[this] { aggregate_pass(); }};
};

}  // namespace rdns::dns

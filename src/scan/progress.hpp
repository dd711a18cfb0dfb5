#pragma once
/// \file progress.hpp
/// Live progress plane for wire sweeps — the scan-side sibling of
/// dns::ServeIntrospection, built on the same util/live_plane.hpp pieces:
///
///   sweep workers --> ShardProbe (per-lease util::SeqlockSlot)
///                         |
///                  aggregation thread (~250 ms): fold slots -> totals,
///                  RateWindows rows/s + shards/s, ETA, peak RSS, and
///                  sweep.* gauges in the metrics registry
///                         |
///        +----------------+--------------------+
///        |                |                    |
///   --progress TTY    sweep.progress       /progress.json + /metrics
///   status line       journal events       (net::AdminHttpServer)
///   (sparkline)       (sim-time stamped)
///
/// Probes are leased, not thread-bound: a worker acquires one per shard
/// task and releases it when the shard ends, so each slot always has
/// exactly one writer (the seqlock invariant) while the pool is free to
/// run shards on any thread. Probe counters are cumulative; a released
/// probe carries its totals to the next lease-holder.
///
/// Determinism contract: the plane only *observes*. Shard order, resolver
/// id seeds and the ordered-merge consumer are untouched, so the sweep
/// CSV stays byte-identical at any thread count with the plane armed.
/// `sweep.progress` journal events are stamped with the frozen sim clock
/// of the open pass and only journaled between begin_pass and end_pass,
/// so non-decreasing `t` holds; their interleaving with worker-emitted
/// shard events depends on wall time — which is why the plane is opt-in
/// (--progress / --admin-port) and byte-identity is promised for the CSV,
/// not the journal, when armed.

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/live_plane.hpp"
#include "util/time.hpp"

namespace rdns::net {
class AdminHttpServer;
}  // namespace rdns::net

namespace rdns::scan {

class SweepProgressPlane {
 public:
  struct Options {
    unsigned aggregate_interval_ms = util::PeriodicAggregator::kDefaultIntervalMs;
    /// Render a `\r` status line (with a rows/s sparkline) to stderr on
    /// every aggregation pass.
    bool tty_status = false;
    /// Emit a `sweep.progress` journal event every N aggregation passes
    /// (0 = never). Default 4 passes = roughly one event per second.
    unsigned journal_every = 4;
  };

  /// One aggregated view of the sweep, atomic as a whole (copied out of
  /// the aggregator under a mutex, like ServeIntrospection::Aggregate).
  struct Snapshot {
    std::uint64_t shards_done = 0;   ///< includes checkpoint-skipped shards
    std::uint64_t shards_total = 0;
    std::uint64_t rows = 0;
    std::uint64_t queries = 0;
    std::uint64_t retries = 0;
    std::uint64_t degraded = 0;
    std::uint64_t reruns = 0;
    double rows_per_s_1s = 0;
    double rows_per_s_10s = 0;
    double rows_per_s_60s = 0;
    double shards_per_s_10s = 0;
    double percent = 0;     ///< shards done / total, 0..100
    double eta_s = -1;      ///< wall-clock estimate; < 0 = unknown yet
    double uptime_s = 0;
    std::uint64_t peak_rss_bytes = 0;
    std::size_t probes = 0;
    std::string day;        ///< civil date of the active sweep pass
  };

  /// Per-lease seqlock probe: the owning worker accumulates plain local
  /// counters and publish() writes them into its util::SeqlockSlot.
  class ShardProbe {
   public:
    /// Publish current totals so a freshly leased probe becomes visible
    /// to the aggregator before its first shard completes.
    void on_shard_start() noexcept { publish(); }
    void on_shard_finish(std::uint64_t rows, std::uint64_t queries, std::uint64_t retries,
                         bool degraded, std::uint64_t reruns) noexcept;
    /// Publish the cumulative counters.
    void publish() noexcept { slot_.publish(counts_); }

   private:
    friend class SweepProgressPlane;
    static constexpr std::size_t kWords = 6;
    using Counts = std::array<std::uint64_t, kWords>;

    Counts counts_{};  ///< done, rows, queries, retries, degraded, reruns
    util::SeqlockSlot slot_{kWords};
  };

  SweepProgressPlane();
  explicit SweepProgressPlane(const Options& options);
  ~SweepProgressPlane();

  SweepProgressPlane(const SweepProgressPlane&) = delete;
  SweepProgressPlane& operator=(const SweepProgressPlane&) = delete;

  /// Launch the aggregation thread. Idempotent.
  void start();
  /// Stop the thread, run a final aggregation pass, finish the TTY line.
  void stop();

  /// Announce one sweep pass (sweep_wire calls this before sharding).
  /// `skipped` shards were committed by a checkpointed predecessor and
  /// count as done immediately; `now` stamps this pass's journal events.
  void begin_pass(std::size_t shards_total, std::size_t skipped, std::string day,
                  util::SimTime now);
  /// Close the pass (sweep_wire calls this after its last shard). Until
  /// the next begin_pass no `sweep.progress` event is journaled, so none
  /// is stamped with an instant the world has already simulated past.
  void end_pass();

  /// Lease a probe for one shard task (creates one if all are leased; the
  /// pool bounds concurrency, so the pool size bounds the probe count).
  ShardProbe* acquire_probe();
  void release_probe(ShardProbe* probe);

  /// Fold the probe slots now (also runs every aggregate_interval_ms on
  /// the plane thread).
  void aggregate_now() { aggregator_.aggregate_now(); }
  [[nodiscard]] Snapshot snapshot() const;

  /// `rdns.sweep-progress.v1` JSON document for /progress.json.
  [[nodiscard]] std::string render_progress_json() const;
  /// The --progress TTY line (no trailing newline or carriage return).
  [[nodiscard]] std::string render_status_line() const;
  /// /metrics page: shared registry prefix + rdns_sweep_* gauges.
  [[nodiscard]] std::string render_prometheus() const;
  /// Register /progress.json plus the shared "/" and /metrics routes.
  void install_http_routes(net::AdminHttpServer& http);

 private:
  [[nodiscard]] ShardProbe::Counts fold_totals(std::size_t* probe_count) const;
  void aggregate_pass();

  Options options_;

  mutable std::mutex probes_mu_;  ///< guards probes_ and free_
  std::vector<std::unique_ptr<ShardProbe>> probes_;
  std::vector<ShardProbe*> free_;

  // The announced pass: written under aggregator_.pause(), read by passes.
  std::uint64_t pass_total_ = 0;
  std::uint64_t pass_base_done_ = 0;  ///< probe shards done when the pass began
  std::uint64_t pass_skipped_ = 0;
  util::SimTime sim_now_ = 0;
  std::string day_;
  bool pass_open_ = false;  ///< between begin_pass and end_pass

  // Pass state, guarded by the aggregator's pass lock.
  util::RateWindows rows_rate_;
  util::RateWindows shards_rate_;
  unsigned passes_ = 0;
  std::chrono::steady_clock::time_point started_at_{};
  Snapshot latest_;
  std::deque<double> rate_history_;

  util::PeriodicAggregator aggregator_;
};

/// RAII lease used by sweep_wire workers; tolerates a null plane.
class ProgressProbeLease {
 public:
  explicit ProgressProbeLease(SweepProgressPlane* plane)
      : plane_(plane), probe_(plane != nullptr ? plane->acquire_probe() : nullptr) {}
  ~ProgressProbeLease() {
    if (probe_ != nullptr) plane_->release_probe(probe_);
  }
  ProgressProbeLease(const ProgressProbeLease&) = delete;
  ProgressProbeLease& operator=(const ProgressProbeLease&) = delete;

  [[nodiscard]] SweepProgressPlane::ShardProbe* probe() const noexcept { return probe_; }

 private:
  SweepProgressPlane* plane_;
  SweepProgressPlane::ShardProbe* probe_;
};

}  // namespace rdns::scan

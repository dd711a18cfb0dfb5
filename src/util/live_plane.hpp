#pragma once
/// \file live_plane.hpp
/// What every live observation plane is built from (DESIGN.md §12-§13):
/// single-writer seqlock slots that workers publish into, rolling rates,
/// and the periodic aggregator that folds the slots. dns::ServeIntrospection
/// and scan::SweepProgressPlane both stand on these.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace rdns::util {

/// Seqlock over relaxed atomic words with exactly one writer. Every racing
/// cell is an atomic (TSan-clean); the epoch only tells a reader whether
/// its copy is one consistent publication.
class SeqlockSlot {
 public:
  explicit SeqlockSlot(std::size_t words) : words_(words) {}

  SeqlockSlot(const SeqlockSlot&) = delete;
  SeqlockSlot& operator=(const SeqlockSlot&) = delete;

  /// Writer side: store `words` (one per slot word) as one publication.
  void publish(std::span<const std::uint64_t> words) noexcept;

  /// Reader side: copy the latest publication into `out`. Retries 64 times
  /// while a publish races the copy, then returns false with the last
  /// (torn) copy in `out` — a torn monitoring sample beats a monitoring
  /// stall while a worker publishes continuously.
  [[nodiscard]] bool read(std::span<std::uint64_t> out) const noexcept;

 private:
  std::atomic<std::uint64_t> epoch_{0};  ///< odd while a publish is in flight
  std::vector<std::atomic<std::uint64_t>> words_;
};

/// Rolling event-rate estimator over (timestamp, cumulative-count) samples:
/// the aggregator appends one sample per pass and rate(w) differences the
/// newest sample against the one at (or just before) the window boundary.
class RateWindows {
 public:
  explicit RateWindows(std::size_t max_samples = 512) : max_samples_(max_samples) {}

  void add_sample(double at_s, std::uint64_t cumulative);

  /// Average events/second over the trailing `window_s` (clamped to the
  /// observed span); 0 before two samples exist.
  [[nodiscard]] double rate(double window_s) const;

 private:
  struct Sample {
    double at_s = 0;
    std::uint64_t cumulative = 0;
  };
  std::size_t max_samples_;
  std::deque<Sample> samples_;
};

/// Runs `pass` every `interval_ms` on its own thread and on demand, never
/// two passes at once. start() and stop() belong to one controlling thread.
class PeriodicAggregator {
 public:
  static constexpr unsigned kDefaultIntervalMs = 250;

  explicit PeriodicAggregator(std::function<void()> pass,
                              unsigned interval_ms = kDefaultIntervalMs);
  /// Calls stop(); an owner whose pass reads its members calls stop() in
  /// its own destructor first.
  ~PeriodicAggregator();

  PeriodicAggregator(const PeriodicAggregator&) = delete;
  PeriodicAggregator& operator=(const PeriodicAggregator&) = delete;

  void start();  ///< idempotent
  /// Join the thread, then run one final pass. No-op when not running.
  void stop();
  [[nodiscard]] bool running() const noexcept { return thread_.joinable(); }

  /// One pass now, serialized with the thread's passes.
  void aggregate_now();

  /// Wait out any pass in flight and hold new ones off while the returned
  /// lock lives: how callers read what passes write, or change what they
  /// read.
  [[nodiscard]] std::unique_lock<std::mutex> pause() const {
    return std::unique_lock<std::mutex>{pass_mu_};
  }

 private:
  void run();

  std::function<void()> pass_;
  unsigned interval_ms_;
  mutable std::mutex pass_mu_;  ///< held for the whole of every pass

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;  ///< guarded by wake_mu_
  std::thread thread_;
};

}  // namespace rdns::util

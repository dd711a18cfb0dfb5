#pragma once
/// \file metrics.hpp
/// Thread-safe, low-overhead metrics registry: monotonic counters, gauges
/// and fixed-bucket latency/size histograms (p50/p90/p99), addressable by
/// dotted name ("dns.server.queries" — the prefix before the first dot is
/// the subsystem). Modelled on the per-scan counter surfaces of bulkDNS
/// and the zdns lineage: every subsystem exposes its counters as first-class
/// output rather than ad-hoc printf.
///
/// Concurrency model. Counter/gauge/histogram cells are relaxed atomics, so
/// instrumentation sites cost one relaxed RMW and sums are independent of
/// thread interleaving — the same order-independence argument as the
/// existing per-shard ServerStats/ResolverStats accumulators. Registries
/// are also shardable: build a local Registry per worker and fold it into
/// the global one with merge_from() (counters add, histograms merge
/// bucket-by-bucket), which is deterministic in any merge order.
///
/// Cost model. Counters are always on (a relaxed fetch_add — the budgeted
/// "disabled-path" cost). Anything that needs a clock (latency histograms,
/// busy-time accounting, span timing) is gated on collect_timing(), a
/// relaxed atomic flag the CLI/benches flip with --metrics-out/--trace.
///
/// Snapshots (to_json / write_json) render entries sorted by name, so the
/// document layout is byte-stable for a given set of values.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rdns::util::metrics {

/// Global timing-collection switch (relaxed). Off by default: hot paths
/// must not pay for clock syscalls unless someone asked for a breakdown.
[[nodiscard]] bool collect_timing() noexcept;
void set_collect_timing(bool on) noexcept;

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  void merge_from(const Counter& other) noexcept { inc(other.value()); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (signed; set or adjust).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are strictly increasing upper bounds
/// (an observation lands in the first bucket whose bound >= value); one
/// implicit overflow bucket catches everything above the last bound.
/// Observations are assumed non-negative (sizes, durations, counts). The
/// count is the sum of the buckets — there is no separate tally for a
/// concurrent reader to see out of step with them.
class Histogram {
 public:
  /// One copy of the buckets: a render that derives its count and
  /// percentiles from it agrees with itself even while threads observe.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;  ///< bounds().size() + 1, overflow last
    std::uint64_t count = 0;             ///< sum of `buckets`
  };

  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] Snapshot snapshot() const;
  /// Estimated percentile (p in [0, 100]); see bucket_percentile().
  [[nodiscard]] double percentile(const Snapshot& snap, double p) const noexcept;
  [[nodiscard]] double percentile(double p) const { return percentile(snapshot(), p); }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Bucket-wise fold; `other` must have identical bounds.
  void merge_from(const Histogram& other) noexcept;
  void reset() noexcept;

  /// {start, start*factor, start*factor^2, ...} — n bounds.
  [[nodiscard]] static std::vector<double> exponential_bounds(double start, double factor,
                                                              std::size_t n);
  /// {start, start+step, ...} — n bounds.
  [[nodiscard]] static std::vector<double> linear_bounds(double start, double step,
                                                         std::size_t n);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double sum, CAS-folded
};

/// Named metric registry. Lookup registers on first use and returns a
/// reference that stays valid for the registry's lifetime (reset_values()
/// zeroes values but never invalidates references, so call sites may cache
/// them in static locals).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default registry.
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// Bounds are fixed by the first registration of `name`.
  [[nodiscard]] Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Deterministic fold of another registry's values into this one
  /// (counters/gauges add, histograms merge bucket-by-bucket).
  void merge_from(const Registry& other);

  /// Zero every value; registrations (and references) survive.
  void reset_values();

  [[nodiscard]] bool empty() const;

  /// Visitors iterate in name order.
  void for_each_counter(const std::function<void(const std::string&, std::uint64_t)>& fn) const;
  void for_each_gauge(const std::function<void(const std::string&, std::int64_t)>& fn) const;
  void for_each_histogram(const std::function<void(const std::string&, const Histogram&)>& fn) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} fragment
  /// (no enclosing document — see trace::write_snapshot_json).
  void write_json(std::ostream& out, int indent = 2) const;
  [[nodiscard]] std::string to_json(int indent = 2) const;

  /// The same three fragments as one compact single-line JSON fragment
  /// (`"counters": {...}, "gauges": {...}, "histograms": {...}`) — the
  /// building block of the `--metrics-interval` JSONL snapshot stream,
  /// where one snapshot per line keeps the file greppable and appendable.
  void append_json_compact(std::string& out) const;

  /// Prometheus text exposition (format version 0.0.4) of every series.
  /// Dotted names are sanitized (`serve.datagrams_received` becomes
  /// `<prefix>serve_datagrams_received`), counters gain the conventional
  /// `_total` suffix, and histograms render cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`. Entries come out in name order, so the
  /// exposition is byte-stable for a given set of values.
  void write_prometheus(std::ostream& out, const std::string& prefix = "rdns_") const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands against the global registry.
[[nodiscard]] inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
[[nodiscard]] inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
[[nodiscard]] inline Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  return Registry::global().histogram(name, std::move(bounds));
}

/// Percentile (p in [0, 100]) of fixed-bucket counts by linear
/// interpolation inside the owning bucket: `buckets` holds one count per
/// upper bound in `bounds` plus an overflow bucket, which clamps to the
/// last bound.
[[nodiscard]] double bucket_percentile(std::span<const double> bounds,
                                       std::span<const std::uint64_t> buckets, double p) noexcept;

/// JSON string escaping shared by the observability writers.
void append_json_escaped(std::string& out, std::string_view s);
/// Render a finite double as a JSON number (non-finite values clamp to 0).
[[nodiscard]] std::string json_number(double v);

/// Sanitize a dotted metric name into the Prometheus charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* — '.', '-' and other invalid characters map to
/// '_'; a leading digit gains a '_' prefix.
[[nodiscard]] std::string prometheus_name(std::string_view name);
/// Escape a Prometheus label value (backslash, double quote, newline).
[[nodiscard]] std::string prometheus_label_value(std::string_view value);

}  // namespace rdns::util::metrics

#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rdns::util::metrics {

namespace {
std::atomic<bool> g_collect_timing{false};
}  // namespace

bool collect_timing() noexcept { return g_collect_timing.load(std::memory_order_relaxed); }
void set_collect_timing(bool on) noexcept {
  g_collect_timing.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no buckets");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument("Histogram: bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  // Fold `value` into the double-typed sum with a CAS loop (portable
  // equivalent of C++20 atomic<double>::fetch_add).
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(expected);
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(current + value);
    if (sum_bits_.compare_exchange_weak(expected, desired, std::memory_order_relaxed)) break;
  }
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (const auto& c : counts_) {
    snap.buckets.push_back(c.load(std::memory_order_relaxed));
    snap.count += snap.buckets.back();
  }
  return snap;
}

double Histogram::percentile(const Snapshot& snap, double p) const noexcept {
  return bucket_percentile(bounds_, snap.buckets, p);
}

double bucket_percentile(std::span<const double> bounds, std::span<const std::uint64_t> buckets,
                         double p) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == bounds.size()) return bounds.back();  // overflow bucket clamps
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double into = std::max(0.0, rank - static_cast<double>(cumulative));
      return lower + (bounds[i] - lower) * into / static_cast<double>(in_bucket);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

void Histogram::merge_from(const Histogram& other) noexcept {
  const std::size_t n = std::min(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < n; ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  const double delta = other.sum();
  for (;;) {
    const double current = std::bit_cast<double>(expected);
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(current + delta);
    if (sum_bits_.compare_exchange_weak(expected, desired, std::memory_order_relaxed)) break;
  }
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double v = start;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> Histogram::linear_bounds(double start, double step, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(start + step * static_cast<double>(i));
  return out;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock{m_};
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock{m_};
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard lock{m_};
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void Registry::merge_from(const Registry& other) {
  // Lock ordering: `other` is read under its own lock into a flat copy
  // first, so merge_from(a, b) and merge_from(b, a) cannot deadlock.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard lock{other.m_};
    for (const auto& [name, c] : other.counters_) counters.emplace_back(name, c->value());
    for (const auto& [name, g] : other.gauges_) gauges.emplace_back(name, g->value());
    for (const auto& [name, h] : other.histograms_) histograms.emplace_back(name, h.get());
  }
  for (const auto& [name, v] : counters) counter(name).inc(v);
  for (const auto& [name, v] : gauges) gauge(name).add(v);
  for (const auto& [name, h] : histograms) {
    histogram(name, h->bounds()).merge_from(*h);
  }
}

void Registry::reset_values() {
  std::lock_guard lock{m_};
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

bool Registry::empty() const {
  std::lock_guard lock{m_};
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void Registry::for_each_counter(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  std::lock_guard lock{m_};
  for (const auto& [name, c] : counters_) fn(name, c->value());
}

void Registry::for_each_gauge(
    const std::function<void(const std::string&, std::int64_t)>& fn) const {
  std::lock_guard lock{m_};
  for (const auto& [name, g] : gauges_) fn(name, g->value());
}

void Registry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& fn) const {
  std::lock_guard lock{m_};
  for (const auto& [name, h] : histograms_) fn(name, *h);
}

// ---------------------------------------------------------------------------
// JSON

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

namespace {

void write_histogram_json(std::ostream& out, const Histogram& h, const std::string& pad) {
  const Histogram::Snapshot snap = h.snapshot();
  out << "{\n";
  out << pad << "  \"count\": " << snap.count << ",\n";
  out << pad << "  \"sum\": " << json_number(h.sum()) << ",\n";
  out << pad << "  \"p50\": " << json_number(h.percentile(snap, 50)) << ",\n";
  out << pad << "  \"p90\": " << json_number(h.percentile(snap, 90)) << ",\n";
  out << pad << "  \"p99\": " << json_number(h.percentile(snap, 99)) << ",\n";
  out << pad << "  \"buckets\": [";
  const auto& bounds = h.bounds();
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    if (i) out << ", ";
    out << "{\"le\": ";
    if (i == bounds.size()) {
      out << "\"+Inf\"";
    } else {
      out << json_number(bounds[i]);
    }
    out << ", \"count\": " << snap.buckets[i] << '}';
  }
  out << "]\n" << pad << '}';
}

}  // namespace

void Registry::write_json(std::ostream& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::lock_guard lock{m_};
  out << pad << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    std::string key;
    append_json_escaped(key, name);
    out << (first ? "\n" : ",\n") << pad << "  \"" << key << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n" + pad) << "},\n";

  out << pad << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    std::string key;
    append_json_escaped(key, name);
    out << (first ? "\n" : ",\n") << pad << "  \"" << key << "\": " << g->value();
    first = false;
  }
  out << (first ? "" : "\n" + pad) << "},\n";

  out << pad << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::string key;
    append_json_escaped(key, name);
    out << (first ? "\n" : ",\n") << pad << "  \"" << key << "\": ";
    write_histogram_json(out, *h, pad + "  ");
    first = false;
  }
  out << (first ? "" : "\n" + pad) << "}";
}

std::string Registry::to_json(int indent) const {
  std::ostringstream out;
  out << "{\n";
  write_json(out, indent);
  out << "\n}";
  return out.str();
}

void Registry::append_json_compact(std::string& out) const {
  std::lock_guard lock{m_};
  out += "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    out += '"';
    append_json_escaped(out, name);
    out += "\": " + std::to_string(c->value());
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    out += '"';
    append_json_escaped(out, name);
    out += "\": " + std::to_string(g->value());
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    out += '"';
    append_json_escaped(out, name);
    const Histogram::Snapshot snap = h->snapshot();
    out += "\": {\"count\": " + std::to_string(snap.count);
    out += ", \"sum\": " + json_number(h->sum());
    out += ", \"p50\": " + json_number(h->percentile(snap, 50));
    out += ", \"p90\": " + json_number(h->percentile(snap, 90));
    out += ", \"p99\": " + json_number(h->percentile(snap, 99));
    out += ", \"buckets\": [";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": ";
      out += i == bounds.size() ? "\"+Inf\"" : json_number(bounds[i]);
      out += ", \"count\": " + std::to_string(snap.buckets[i]) + '}';
    }
    out += "]}";
    first = false;
  }
  out += '}';
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string prometheus_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void Registry::write_prometheus(std::ostream& out, const std::string& prefix) const {
  std::lock_guard lock{m_};
  for (const auto& [name, c] : counters_) {
    const std::string metric = prefix + prometheus_name(name) + "_total";
    out << "# TYPE " << metric << " counter\n" << metric << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string metric = prefix + prometheus_name(name);
    out << "# TYPE " << metric << " gauge\n" << metric << ' ' << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string metric = prefix + prometheus_name(name);
    out << "# TYPE " << metric << " histogram\n";
    const Histogram::Snapshot snap = h->snapshot();
    const auto& bounds = h->bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += snap.buckets[i];
      out << metric << "_bucket{le=\"" << json_number(bounds[i]) << "\"} " << cumulative << '\n';
    }
    out << metric << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    out << metric << "_sum " << json_number(h->sum()) << '\n';
    out << metric << "_count " << snap.count << '\n';
  }
}

}  // namespace rdns::util::metrics

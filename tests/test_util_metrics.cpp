/// Tests for the observability layer: metrics registry (counters, gauges,
/// fixed-bucket histograms) and the scoped-span tracer. The load-bearing
/// properties are the deterministic ones — concurrent totals equal serial
/// totals, merges are order-independent, span trees are keyed by structure
/// — plus the percentile math and the JSON snapshot shape.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/journal.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace metrics = rdns::util::metrics;
namespace trace = rdns::util::trace;

namespace {

/// Minimal JSON well-formedness checker (objects, arrays, strings, numbers,
/// literals) — enough to prove snapshots parse without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

TEST(Counter, ConcurrentIncrementsMatchSerialSum) {
  metrics::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddAndReset) {
  metrics::Gauge gauge;
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.add(-50);
  EXPECT_EQ(gauge.value(), -8);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, BucketAssignmentUsesUpperBounds) {
  metrics::Histogram h{{1, 10, 100}};
  h.observe(0.5);   // <= 1
  h.observe(1);     // <= 1 (bounds are inclusive upper bounds)
  h.observe(5);     // <= 10
  h.observe(100);   // <= 100
  h.observe(1000);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1 + 5 + 100 + 1000);
}

TEST(Histogram, ConcurrentObservationsMatchSerialBucketCounts) {
  const auto bounds = metrics::Histogram::linear_bounds(10, 10, 10);
  metrics::Histogram concurrent{bounds};
  metrics::Histogram serial{bounds};

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  // Thread t observes the fixed stream (t, t+kThreads, t+2*kThreads, ...)
  // mod 110, so the union across threads equals one serial pass.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (int i = 0; i < kPerThread; ++i) {
        concurrent.observe(static_cast<double>((t + i * kThreads) % 110));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.observe(static_cast<double>((t + i * kThreads) % 110));
    }
  }

  EXPECT_EQ(concurrent.count(), serial.count());
  EXPECT_DOUBLE_EQ(concurrent.sum(), serial.sum());
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    EXPECT_EQ(concurrent.bucket_count(i), serial.bucket_count(i)) << "bucket " << i;
  }
}

/// True when a rendered histogram object's "count" equals the sum of its
/// bucket counts.
bool json_count_matches_buckets(const rdns::util::journal::JsonValue& h) {
  const auto* buckets = h.find("buckets");
  if (buckets == nullptr) return false;
  std::int64_t sum = 0;
  for (const auto& b : buckets->array) sum += b.get_int("count");
  return sum == h.get_int("count");
}

/// Renders taken while other threads observe must agree with themselves:
/// a JSON count equals its bucket sum, a Prometheus _count its +Inf bucket.
TEST(Histogram, RendersAgreeWithThemselvesUnderConcurrentObserves) {
  namespace journal = rdns::util::journal;
  metrics::Registry registry;
  metrics::Histogram& h = registry.histogram("race.h", metrics::Histogram::linear_bounds(1, 1, 8));
  std::vector<std::jthread> writers;  // stopped and joined on every exit path
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, t](const std::stop_token& stop) {
      for (int i = t; !stop.stop_requested(); ++i) h.observe(i % 10);
    });
  }

  int disagreeing = 0;
  for (int render = 0; render < 1000; ++render) {
    const auto pretty = journal::parse_json(registry.to_json());
    ASSERT_TRUE(pretty.has_value());
    if (!json_count_matches_buckets(*pretty->find("histograms")->find("race.h"))) ++disagreeing;

    std::string compact = "{";
    registry.append_json_compact(compact);
    compact += "}";
    const auto line = journal::parse_json(compact);
    ASSERT_TRUE(line.has_value()) << compact;
    if (!json_count_matches_buckets(*line->find("histograms")->find("race.h"))) ++disagreeing;

    std::ostringstream prom;
    registry.write_prometheus(prom);
    std::istringstream rows{prom.str()};
    std::string inf, count;
    for (std::string row; std::getline(rows, row);) {
      if (row.rfind("rdns_race_h_bucket{le=\"+Inf\"} ", 0) == 0) inf = row.substr(row.find(' ') + 1);
      if (row.rfind("rdns_race_h_count ", 0) == 0) count = row.substr(row.find(' ') + 1);
    }
    ASSERT_FALSE(count.empty()) << prom.str();
    if (inf != count) ++disagreeing;
  }
  writers.clear();
  EXPECT_EQ(disagreeing, 0);
  EXPECT_GT(h.count(), 0u);
}

TEST(Histogram, PercentilesOnKnownUniformDistribution) {
  // Values 1..100 once each against unit-width buckets: the interpolated
  // percentile is exact.
  metrics::Histogram h{metrics::Histogram::linear_bounds(1, 1, 100)};
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Histogram, PercentileEdgeCases) {
  metrics::Histogram empty{{1, 2}};
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);  // no observations

  metrics::Histogram overflow_only{{1, 2}};
  overflow_only.observe(100);
  // Overflow bucket clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(overflow_only.percentile(50), 2.0);
}

TEST(Histogram, MergeFoldsBucketByBucket) {
  const std::vector<double> bounds{1, 10, 100};
  metrics::Histogram a{bounds};
  metrics::Histogram b{bounds};
  a.observe(1);
  a.observe(50);
  b.observe(5);
  b.observe(500);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
  EXPECT_EQ(a.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 556.0);
}

TEST(Histogram, BoundsHelpers) {
  EXPECT_EQ(metrics::Histogram::exponential_bounds(1, 2, 4),
            (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(metrics::Histogram::linear_bounds(5, 10, 3), (std::vector<double>{5, 15, 25}));
}

TEST(Registry, LookupRegistersOnceAndKeepsReferencesStable) {
  metrics::Registry registry;
  metrics::Counter& a = registry.counter("x.a");
  metrics::Counter& b = registry.counter("x.a");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  registry.reset_values();
  EXPECT_EQ(a.value(), 0u);  // reset zeroes but never invalidates
  a.inc();
  EXPECT_EQ(registry.counter("x.a").value(), 1u);
}

TEST(Registry, MergeIsOrderIndependent) {
  // Two worker-shard registries folded into fresh targets in both orders
  // must agree — the determinism contract for per-worker sharding.
  metrics::Registry shard1;
  metrics::Registry shard2;
  shard1.counter("n.c").inc(5);
  shard2.counter("n.c").inc(7);
  shard2.counter("n.only2").inc(1);
  shard1.gauge("n.g").add(2);
  shard2.gauge("n.g").add(3);
  const std::vector<double> bounds{1, 10};
  shard1.histogram("n.h", bounds).observe(0.5);
  shard2.histogram("n.h", bounds).observe(5);

  metrics::Registry ab;
  ab.merge_from(shard1);
  ab.merge_from(shard2);
  metrics::Registry ba;
  ba.merge_from(shard2);
  ba.merge_from(shard1);

  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.counter("n.c").value(), 12u);
  EXPECT_EQ(ab.counter("n.only2").value(), 1u);
  EXPECT_EQ(ab.gauge("n.g").value(), 5);
  EXPECT_EQ(ab.histogram("n.h", bounds).count(), 2u);
}

TEST(Registry, JsonIsValidAndNameSorted) {
  metrics::Registry registry;
  registry.counter("zz.last").inc();
  registry.counter("aa.first").inc(2);
  registry.histogram("mid.h", {1, 2}).observe(1.5);
  const std::string json = registry.to_json();
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_LT(json.find("aa.first"), json.find("zz.last"));
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(CollectTiming, DefaultsOffAndToggles) {
  EXPECT_FALSE(metrics::collect_timing());
  metrics::set_collect_timing(true);
  EXPECT_TRUE(metrics::collect_timing());
  metrics::set_collect_timing(false);
  EXPECT_FALSE(metrics::collect_timing());
}

TEST(Tracer, DisabledScopeIsInert) {
  trace::Tracer tracer;  // disabled by default
  {
    const auto scope = tracer.scope("never");
    EXPECT_FALSE(scope.active());
    scope.add_sample("child", 100, 100);  // no-op when inert
  }
  EXPECT_FALSE(tracer.has_spans());
}

TEST(Tracer, NestingAndMergeByStructure) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  for (int day = 0; day < 3; ++day) {
    const auto outer = tracer.scope("day");
    for (int pass = 0; pass < 2; ++pass) {
      const auto inner = tracer.scope("pass");
    }
  }
  EXPECT_TRUE(tracer.has_spans());
  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  // Repeated spans merged by (parent, name): one "day" node counted thrice,
  // one "pass" child counted six times — not nine separate nodes.
  EXPECT_NE(json.find("\"name\": \"day\", \"count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"pass\", \"count\": 6"), std::string::npos) << json;
}

TEST(Tracer, WorkerSamplesMergeUnderTheScope) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  {
    const auto scope = tracer.scope("sweep");
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&scope] {
        for (int s = 0; s < 25; ++s) scope.add_sample("shard", 1'000'000, 900'000);
      });
    }
    for (auto& w : workers) w.join();
  }
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"name\": \"shard\", \"count\": 100"), std::string::npos) << json;
  EXPECT_GE(tracer.root_wall_ns(), 0);
}

TEST(Tracer, ScopesNestPerThreadAndRootWallSumsTopLevel) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  {
    const auto a = tracer.scope("a");
    const auto b = tracer.scope("b");  // nests under "a" on this thread
  }
  const std::string json = tracer.to_json();
  // "b" must appear as a child inside "a"'s children array.
  const auto a_at = json.find("\"name\": \"a\"");
  const auto b_at = json.find("\"name\": \"b\"");
  ASSERT_NE(a_at, std::string::npos);
  ASSERT_NE(b_at, std::string::npos);
  EXPECT_LT(a_at, b_at);
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
}

TEST(Snapshot, CombinedDocumentIsValidJson) {
  metrics::Registry registry;
  registry.counter("dns.q").inc(9);
  registry.histogram("dns.h", {1, 2, 4}).observe(3);
  trace::Tracer tracer;
  tracer.set_enabled(true);
  { const auto scope = tracer.scope("root_phase"); }
  std::ostringstream out;
  trace::write_snapshot_json(out, registry, tracer);
  const std::string doc = out.str();
  EXPECT_TRUE(JsonChecker{doc}.valid()) << doc;
  EXPECT_NE(doc.find("\"schema\": \"rdns.observability.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"spans\""), std::string::npos);
}

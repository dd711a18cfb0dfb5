#pragma once
/// \file common.hpp
/// Helpers shared by the benchmark's programs: clocks, the percentile
/// helper and a minimal JSON line writer.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t mono_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of the whole process (every thread), in nanoseconds.
[[nodiscard]] inline std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One percentile read off a sample, with the evidence behind it.
struct PercentileReport {
  double percentile = 0;  ///< percentile actually reported (nearest rank)
  double value = 0;
  std::size_t count = 0;   ///< samples in the distribution
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
};

/// Nearest-rank percentile `p` of `sorted` (ascending). A tail percentile
/// is only trusted when at least `kMinBeyond` samples lie beyond it; when
/// `p` asks for more than the sample supports, the report falls back to
/// the highest percentile that does, and says so in `percentile`.
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] inline PercentileReport percentile_of_sorted(const std::vector<double>& sorted,
                                                           double p) {
  PercentileReport r;
  r.count = sorted.size();
  if (sorted.empty()) return r;
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (p > 50.0 && n - rank < kMinBeyond) {
    rank = n > kMinBeyond ? n - kMinBeyond : 1;
  }
  r.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  r.value = sorted[rank - 1];
  r.beyond = n - rank;
  return r;
}

/// The highest percentile of `sorted` with at least kMinBeyond samples
/// beyond it (the tail the sample can vouch for).
[[nodiscard]] inline PercentileReport tail_of_sorted(const std::vector<double>& sorted) {
  return percentile_of_sorted(sorted, 100.0);
}

/// Builds one flat JSON object line: {"key": value, ...}. Values keep all
/// their digits (%.17g).
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) { return raw(key, number(v)); }
  JsonLine& nums(const std::string& key, const std::vector<double>& v) {
    std::string array = "[";
    for (std::size_t i = 0; i < v.size(); ++i) array += (i ? ", " : "") + number(v[i]);
    return raw(key, array + "]");
  }
  JsonLine& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) q.push_back(c);
    }
    q.push_back('"');
    return raw(key, q);
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  std::string body_;
};

}  // namespace perfbench

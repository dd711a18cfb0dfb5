#include "util/live_plane.hpp"

#include <chrono>
#include <utility>

namespace rdns::util {

// -- SeqlockSlot --------------------------------------------------------------

// No fences (TSan does not model them): each word is stored with release
// and loaded with acquire, so a reader that sees any word of a newer
// publication also sees that publication's odd epoch on its re-check.

void SeqlockSlot::publish(std::span<const std::uint64_t> words) noexcept {
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  epoch_.store(e + 1, std::memory_order_relaxed);  // odd: slot in flux
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i].store(words[i], std::memory_order_release);
  }
  epoch_.store(e + 2, std::memory_order_release);
}

bool SeqlockSlot::read(std::span<std::uint64_t> out) const noexcept {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
    if ((e1 & 1u) != 0) continue;  // writer mid-publish
    for (std::size_t i = 0; i < words_.size(); ++i) {
      out[i] = words_[i].load(std::memory_order_acquire);
    }
    if (epoch_.load(std::memory_order_relaxed) == e1) return true;
  }
  return false;
}

// -- RateWindows --------------------------------------------------------------

void RateWindows::add_sample(double at_s, std::uint64_t cumulative) {
  if (!samples_.empty() && at_s < samples_.back().at_s) return;  // clock went backwards
  samples_.push_back(Sample{at_s, cumulative});
  while (samples_.size() > max_samples_) samples_.pop_front();
}

double RateWindows::rate(double window_s) const {
  if (samples_.size() < 2) return 0.0;
  const Sample& last = samples_.back();
  const double boundary = last.at_s - window_s;
  // Newest sample at or before the window boundary; falls back to the
  // oldest retained sample, clamping the window to the observed span.
  const Sample* base = &samples_.front();
  for (const Sample& s : samples_) {
    if (s.at_s > boundary) break;
    base = &s;
  }
  if (base == &last) base = &samples_[samples_.size() - 2];
  const double span = last.at_s - base->at_s;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(last.cumulative - base->cumulative) / span;
}

// -- PeriodicAggregator -------------------------------------------------------

PeriodicAggregator::PeriodicAggregator(std::function<void()> pass, unsigned interval_ms)
    : pass_(std::move(pass)), interval_ms_(interval_ms == 0 ? kDefaultIntervalMs : interval_ms) {}

PeriodicAggregator::~PeriodicAggregator() { stop(); }

void PeriodicAggregator::start() {
  if (running()) return;
  {
    const std::lock_guard<std::mutex> lock{wake_mu_};
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void PeriodicAggregator::stop() {
  if (!running()) return;
  {
    const std::lock_guard<std::mutex> lock{wake_mu_};
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  aggregate_now();
}

void PeriodicAggregator::aggregate_now() {
  const std::lock_guard<std::mutex> lock{pass_mu_};
  pass_();
}

void PeriodicAggregator::run() {
  std::unique_lock<std::mutex> lock{wake_mu_};
  while (!wake_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                            [this] { return stop_requested_; })) {
    lock.unlock();
    aggregate_now();
    lock.lock();
  }
}

}  // namespace rdns::util

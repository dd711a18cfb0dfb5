#pragma once
/// \file loadgen.hpp
/// The closed-loop driver of the load generator (loadgen.cpp), exposed for
/// the benchmark's self-test, and the fixed parameters of the serve
/// workloads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "traffic.hpp"

namespace perfbench {

/// The server drains its socket with recvmmsg batches of this many
/// datagrams (`rdns_tool serve --batch` default). A streak of full batches
/// arms the shed ladder, so the closed loop keeps fewer in flight.
inline constexpr int kServerRecvBatch = 32;
/// Closed-loop queries in flight per generator thread, and threads.
inline constexpr int kClosedWindow = 12;
inline constexpr int kGeneratorThreads = 2;
static_assert(kClosedWindow * kGeneratorThreads < kServerRecvBatch,
              "the closed loop must never fill a server recv batch");
/// Closed-loop measurement window: the generator counts the queries each
/// window completes and samples the server's CPU at every window boundary;
/// the run reports medians over its windows.
inline constexpr std::int64_t kWindowNs = 250'000'000;
/// A closed-loop query unanswered after this long is lost. Nothing on the
/// closed loop's path drops a datagram, so this only fires on a host stall
/// longer than this, or on a server that loses queries.
inline constexpr std::int64_t kClosedTimeoutNs = 1'000'000'000;
/// serve_mix blocks of kMixBlock datagrams: 1,000,000 datagrams.
inline constexpr std::size_t kMixBlocks = 50'000;
/// Datagrams the traced serve replay times per pass.
inline constexpr std::size_t kTraceDatagrams = 300'000;

/// Where each generator thread is in the item stream; persists across
/// slices, so a run walks the stream (for serve_sweep: the permutation).
struct Cursor {
  std::size_t next = 0;
  std::size_t stride = 1;
  std::size_t take(std::size_t size) {
    const std::size_t i = next % size;
    next += stride;
    return i;
  }
};

/// Outcomes of one phase. A query fails when it is wrong, lost or late;
/// only a wrong one makes the run incorrect.
struct PhaseStats {
  std::uint64_t attempted = 0;  ///< datagrams the generator meant to send
  std::uint64_t ok = 0;         ///< correct outcome (reply, or silence)
  /// A reply to a pending query that differs from its reference, or any
  /// reply to a datagram that deserved silence.
  std::uint64_t wrong = 0;
  std::uint64_t lost = 0;  ///< never sent, or its reply never came
  /// A reply whose id maps to no pending query: its query had timed out
  /// (and counts as lost) or was already answered.
  std::uint64_t late = 0;
  std::uint64_t replies = 0;
  std::vector<double> latency_us;
  std::vector<std::uint64_t> windows;  ///< queries completed per window
  int max_outstanding = 0;
  [[nodiscard]] std::uint64_t failed() const { return wrong + lost + late; }
  void merge(const PhaseStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    lost += o.lost;
    late += o.late;
    replies += o.replies;
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size(), 0);
    for (std::size_t i = 0; i < o.windows.size(); ++i) windows[i] += o.windows[i];
    max_outstanding = std::max(max_outstanding, o.max_outstanding);
  }
};

/// A non-blocking UDP socket connected to 127.0.0.1:`port`.
[[nodiscard]] int connect_udp(std::uint16_t port);

/// One closed-loop thread on connected socket `fd`: `window` queries in
/// flight until `deadline`, then the in-flight ones drain.
void closed_thread(const Traffic& t, Cursor& cursor, int fd, int window, std::int64_t t0,
                   std::int64_t deadline, std::atomic<int>& outstanding, PhaseStats& st);

}  // namespace perfbench

/// \file loadgen.cpp
/// The load generator for the serve workloads: one process, two threads,
/// pinned to two cores the server does not use. It prepares its traffic and
/// every reference outcome before any server starts, prints `ready`, then
/// reads commands on stdin:
///
///   slice PORT PID   measure one server instance: a short warm-up, then a
///                    closed loop (fixed outstanding count, both threads);
///                    prints `slice-done`
///   finish           print the run's JSON summary line and exit
///
/// Server-side costs are read from /proc: CPU from the sum of
/// /proc/PID/task/*/schedstat at every window boundary (a sampler thread on
/// the spare core), wake-ups from the worker task's voluntary context
/// switches, socket drops from /proc/net/udp.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"

#include "common.hpp"
#include "util/cli.hpp"

namespace perfbench {

namespace {

constexpr int kSilentSlot = 0xF;  // id low nibble of datagrams expecting no reply
constexpr std::size_t kSilentTag = ~std::size_t{0};  // send-batch tag of such a datagram
constexpr double kWarmupS = 0.3;

void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void cpu_relax() noexcept { __builtin_ia32_pause(); }

void patch_id(std::uint8_t* buf, std::size_t len, std::uint16_t id) {
  if (len < 2) return;
  buf[0] = static_cast<std::uint8_t>(id >> 8);
  buf[1] = static_cast<std::uint8_t>(id);
}

/// Batched receive into fixed buffers.
struct RecvBatch {
  static constexpr int kMax = 32;
  std::array<std::array<std::uint8_t, 1500>, kMax> bufs{};
  std::array<iovec, kMax> iov{};
  std::array<mmsghdr, kMax> msgs{};
  RecvBatch() {
    for (int i = 0; i < kMax; ++i) {
      iov[i] = iovec{bufs[i].data(), bufs[i].size()};
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
  int recv(int fd) { return ::recvmmsg(fd, msgs.data(), kMax, MSG_DONTWAIT, nullptr); }
  [[nodiscard]] std::span<const std::uint8_t> reply(int i) const {
    return {bufs[i].data(), std::min<std::size_t>(msgs[i].msg_len, bufs[i].size())};
  }
};

/// Batched send of up to 64 tagged datagrams from caller-owned buffers.
struct SendBatch {
  static constexpr int kMax = 64;
  std::array<iovec, kMax> iov{};
  std::array<mmsghdr, kMax> msgs{};
  std::array<std::size_t, kMax> tags{};
  int count = 0;
  void add(const std::uint8_t* data, std::size_t len, std::size_t tag) {
    iov[count] = iovec{const_cast<std::uint8_t*>(data), len};
    msgs[count] = mmsghdr{};
    msgs[count].msg_hdr.msg_iov = &iov[count];
    msgs[count].msg_hdr.msg_iovlen = 1;
    tags[count] = tag;
    ++count;
  }
  /// Sends the batch, then calls on_done(tag, sent) for each datagram;
  /// `sent` is false for one the kernel did not take.
  template <class OnDone>
  void flush(int fd, OnDone&& on_done) {
    int done = 0;
    for (int spins = 0; done < count && spins < 1000; ++spins) {
      const int n = ::sendmmsg(fd, msgs.data() + done, static_cast<unsigned>(count - done), 0);
      if (n > 0) done += n;
    }
    for (int i = 0; i < count; ++i) on_done(tags[i], i < done);
    count = 0;
  }
};

static_assert(kClosedWindow < kSilentSlot, "slot ids must not collide with the silent id");

}  // namespace

int connect_udp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  return fd;
}

// ----------------------------------------------------------- closed loop --

/// One closed-loop thread: `window` queries in flight, each slot refilled
/// the moment its reply arrives. Datagrams whose correct outcome is
/// silence are sent between slots and complete when sent.
void closed_thread(const Traffic& t, Cursor& cursor, int fd, int window, std::int64_t t0,
                   std::int64_t deadline, std::atomic<int>& outstanding, PhaseStats& st) {
  struct Slot {
    std::size_t item = 0;
    std::int64_t sent_ns = 0;
    std::uint16_t gen = 0;
    bool busy = false;
    std::array<std::uint8_t, 512> buf{};
  };
  std::vector<Slot> slots(static_cast<std::size_t>(window));
  std::array<std::array<std::uint8_t, 512>, SendBatch::kMax> silent_bufs{};
  int silent_next = 0;
  std::uint16_t silent_gen = 0;
  SendBatch batch;
  RecvBatch rb;
  st.windows.assign(static_cast<std::size_t>(std::max<std::int64_t>(0, deadline - t0) / kWindowNs),
                    0);
  auto count_window = [&](std::int64_t now) {
    if (now < t0 || now >= deadline) return;
    const auto w = static_cast<std::size_t>((now - t0) / kWindowNs);
    if (w < st.windows.size()) ++st.windows[w];
  };

  auto flush = [&] {
    // Send time is taken before the syscall: a reply can land before it returns.
    const std::int64_t now = mono_ns();
    for (auto& s : slots) {
      if (s.busy && s.sent_ns == 0) s.sent_ns = now;
    }
    batch.flush(fd, [&](std::size_t tag, bool sent) {
      // A query the kernel did not take times out and is lost there, once.
      if (tag != kSilentTag) return;
      if (sent) {
        ++st.ok;
        count_window(now);
      } else {
        ++st.lost;
      }
    });
  };
  auto issue = [&](std::size_t slot_index) {
    Slot& s = slots[slot_index];
    for (;;) {
      const std::size_t i = cursor.take(t.items.size());
      const Item& item = t.items[i];
      const auto bytes = t.bytes(item);
      ++st.attempted;
      if (t.expects[item.expect].silent) {
        auto& buf = silent_bufs[static_cast<std::size_t>(silent_next++ % SendBatch::kMax)];
        std::memcpy(buf.data(), bytes.data(), bytes.size());
        patch_id(buf.data(), bytes.size(),
                 static_cast<std::uint16_t>((++silent_gen << 4) | kSilentSlot));
        batch.add(buf.data(), bytes.size(), kSilentTag);
        if (batch.count == SendBatch::kMax) flush();
        continue;
      }
      s.item = i;
      s.gen = static_cast<std::uint16_t>((s.gen + 1) & 0xFFF);
      std::memcpy(s.buf.data(), bytes.data(), bytes.size());
      patch_id(s.buf.data(), bytes.size(), static_cast<std::uint16_t>((s.gen << 4) | slot_index));
      s.busy = true;
      s.sent_ns = 0;
      batch.add(s.buf.data(), bytes.size(), slot_index);
      const int now_out = outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
      st.max_outstanding = std::max(st.max_outstanding, now_out);
      return;
    }
  };
  auto complete = [&](std::span<const std::uint8_t> reply, std::int64_t now, bool refill) {
    if (reply.size() < 2) {
      ++st.wrong;  // too short to carry an id: no correct server sends it
      return;
    }
    const auto id = static_cast<std::uint16_t>((reply[0] << 8) | reply[1]);
    const auto slot_index = static_cast<std::size_t>(id & 0xF);
    if (slot_index == kSilentSlot) {
      ++st.wrong;  // a reply to a datagram that deserved silence
      return;
    }
    if (slot_index >= slots.size() || !slots[slot_index].busy ||
        slots[slot_index].gen != (id >> 4)) {
      ++st.late;  // its query timed out, and the slot moved on
      return;
    }
    Slot& s = slots[slot_index];
    const Item& item = t.items[s.item];
    ++st.replies;
    if (reply_matches(t.bytes(item), item.question_end, id, reply, t.expects[item.expect])) {
      ++st.ok;
    } else {
      ++st.wrong;
    }
    st.latency_us.push_back(static_cast<double>(now - s.sent_ns) / 1e3);
    count_window(now);
    s.busy = false;
    outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (refill) issue(slot_index);
  };

  for (std::size_t i = 0; i < slots.size(); ++i) issue(i);
  flush();
  std::int64_t last_check = mono_ns();
  for (;;) {
    std::int64_t now = mono_ns();
    if (now >= deadline) break;
    const int n = rb.recv(fd);
    if (n <= 0) {
      if (now - last_check > 1'000'000) {
        last_check = now;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          Slot& s = slots[i];
          if (s.busy && s.sent_ns != 0 && now - s.sent_ns > kClosedTimeoutNs) {
            ++st.lost;
            s.busy = false;
            outstanding.fetch_sub(1, std::memory_order_relaxed);
            issue(i);
          }
        }
        if (batch.count > 0) flush();
      }
      cpu_relax();
      continue;
    }
    now = mono_ns();
    for (int k = 0; k < n; ++k) complete(rb.reply(k), now, /*refill=*/true);
    if (batch.count > 0) flush();
  }
  // Let the in-flight queries land so the next phase starts quiet.
  const std::int64_t drain_end = mono_ns() + kClosedTimeoutNs;
  while (std::any_of(slots.begin(), slots.end(), [](const Slot& s) { return s.busy; }) &&
         mono_ns() < drain_end) {
    const int n = rb.recv(fd);
    const std::int64_t now = mono_ns();
    for (int k = 0; k < n; ++k) complete(rb.reply(k), now, /*refill=*/false);
    if (n <= 0) cpu_relax();
  }
  for (auto& s : slots) {
    if (s.busy) {
      ++st.lost;
      outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

namespace {

// ------------------------------------------------------------ /proc reads --

struct TaskSample {
  std::int64_t cpu_ns = 0;
  std::uint64_t voluntary_switches = 0;
};

std::map<int, TaskSample> sample_tasks(int pid) {
  std::map<int, TaskSample> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string task = dir + "/" + e->d_name;
    TaskSample s;
    std::ifstream sched{task + "/schedstat"};
    sched >> s.cpu_ns;
    std::ifstream status{task + "/status"};
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        s.voluntary_switches = std::stoull(line.substr(24));
      }
    }
    out[std::stoi(e->d_name)] = s;
  }
  ::closedir(d);
  return out;
}

std::int64_t total_cpu(const std::map<int, TaskSample>& tasks) {
  std::int64_t ns = 0;
  for (const auto& [tid, s] : tasks) ns += s.cpu_ns;
  return ns;
}

/// The `drops` column of /proc/net/udp for the socket bound to `port`.
std::uint64_t udp_drops(std::uint16_t port) {
  std::ifstream in{"/proc/net/udp"};
  std::string line;
  std::getline(in, line);  // header
  std::uint64_t drops = 0;
  char want[8];
  std::snprintf(want, sizeof want, ":%04X", port);
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string slot, local;
    fields >> slot >> local;
    if (local.size() < 5 || local.substr(local.size() - 5) != want) continue;
    std::string last;
    for (std::string f; fields >> f;) last = f;
    drops += std::stoull(last);
  }
  return drops;
}

struct CpuStat {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuStat read_cpu_stat() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  in >> cpu;
  CpuStat s;
  std::uint64_t v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (i < 8) s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

struct RunTotals {
  PhaseStats closed;
  double closed_s = 0;
  double closed_cpu_s = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t drops = 0;
  std::uint64_t steal = 0;
  std::uint64_t cpu_total = 0;
  std::uint64_t warmup_attempted = 0;
  std::uint64_t warmup_failed = 0;
  std::uint64_t warmup_wrong = 0;
  std::vector<double> window_qps;     ///< queries completed/s, every window
  std::vector<double> window_cpu_us;  ///< server CPU us per completed query, every window
};

void sleep_until(std::int64_t mono) {
  const timespec at{static_cast<time_t>(mono / 1'000'000'000), static_cast<long>(mono % 1'000'000'000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) == EINTR) {
  }
}

void add_latency(JsonLine& out, const std::string& prefix, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const PercentileReport p50 = percentile_of_sorted(samples, 50);
  const PercentileReport p99 = percentile_of_sorted(samples, 99);
  const PercentileReport tail = tail_of_sorted(samples);
  out.num(prefix + "p50_us", p50.value)
      .num(prefix + "p99_us", p99.value)
      .num(prefix + "p99_reported_pct", p99.percentile)
      .num(prefix + "tail_pct", tail.percentile)
      .num(prefix + "tail_us", tail.value)
      .num(prefix + "samples", static_cast<double>(samples.size()));
}

}  // namespace

int run_loadgen(int argc, char** argv) {
  rdns::util::CliParser cli{"perfbench loadgen", "closed-loop load for the serve workloads"};
  cli.option("workload", "serve_sweep or serve_mix", "serve_sweep")
      .option("seed", "workload seed", "42")
      .option("cpus", "cores of the two generator threads and the CPU sampler, -1: unpinned",
              "-1,-1,-1")
      .option("closed-s", "closed-loop seconds per server instance", "3");
  cli.parse(std::vector<std::string>(argv + 2, argv + argc));
  const std::string workload = cli.get("workload");
  if (workload != "serve_sweep" && workload != "serve_mix") {
    throw std::invalid_argument("--workload must be serve_sweep or serve_mix");
  }
  int cpus[3] = {-1, -1, -1};
  std::sscanf(cli.get("cpus").c_str(), "%d,%d,%d", &cpus[0], &cpus[1], &cpus[2]);
  constexpr int window = kClosedWindow;
  constexpr int kThreads = kGeneratorThreads;
  const double closed_s = cli.get_double("closed-s");
  const auto seed = static_cast<std::uint64_t>(std::stoll(cli.get("seed")));

  // Preparation (not measured): world, traffic and every reference outcome.
  const std::int64_t p0 = mono_ns();
  FrozenWorld fw = freeze_world(seed);
  Traffic traffic = workload == "serve_sweep" ? sweep_traffic(*fw.world, seed)
                                              : mix_traffic(*fw.world, seed, kMixBlocks);
  const std::int64_t p1 = mono_ns();
  compute_expectations(traffic, *fw.world, fw.now,
                       std::max(1u, std::thread::hardware_concurrency()),
                       /*distinct=*/workload == "serve_sweep");
  const std::int64_t p2 = mono_ns();
  fw.world.reset();
  const std::vector<double> shares = kind_shares(traffic, traffic.items.size());
  std::fprintf(stderr, "loadgen: %zu datagrams, %zu reference outcomes; prep %.2fs + %.2fs\n",
               traffic.items.size(), traffic.expects.size(), static_cast<double>(p1 - p0) / 1e9,
               static_cast<double>(p2 - p1) / 1e9);
  std::printf("ready\n");
  std::fflush(stdout);

  Cursor cursors[kThreads];
  for (int i = 0; i < kThreads; ++i) cursors[i] = Cursor{static_cast<std::size_t>(i), kThreads};
  RunTotals run;
  int slices = 0;
  for (std::string line; std::getline(std::cin, line);) {
    std::istringstream cmd{line};
    std::string verb;
    cmd >> verb;
    if (verb == "finish") break;
    if (verb != "slice") throw std::invalid_argument("unknown command: " + line);
    int port = 0, pid = 0;
    cmd >> port >> pid;
    // The warm-up and the measured loop send from sockets of their own, so
    // a warm-up reply that comes back late never meets a measured query.
    // All stay open until the slice ends, so no phase gets an earlier one's
    // port.
    std::vector<int> sockets;
    auto new_socket = [&] {
      sockets.push_back(connect_udp(static_cast<std::uint16_t>(port)));
      return sockets.back();
    };
    const CpuStat c0 = read_cpu_stat();

    // One closed loop on both threads; with `cpu_at`, the server's CPU is
    // also sampled at every window boundary.
    auto closed = [&](double seconds, PhaseStats& out, std::vector<std::int64_t>* cpu_at) {
      int fds[kThreads];
      for (int& fd : fds) fd = new_socket();
      std::atomic<int> outstanding{0};
      PhaseStats per[kThreads];
      const std::int64_t t0 = mono_ns();
      const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
      // jthreads: joined on every way out, exceptions included.
      std::jthread sampler;
      if (cpu_at != nullptr) {
        const std::int64_t windows = (deadline - t0) / kWindowNs;
        sampler = std::jthread([&, windows] {
          pin_to(cpus[2]);
          for (std::int64_t k = 0; k <= windows; ++k) {
            sleep_until(t0 + k * kWindowNs);
            cpu_at->push_back(total_cpu(sample_tasks(pid)));
          }
        });
      }
      std::jthread second([&] {
        pin_to(cpus[1]);
        closed_thread(traffic, cursors[1], fds[1], window, t0, deadline, outstanding, per[1]);
      });
      pin_to(cpus[0]);
      closed_thread(traffic, cursors[0], fds[0], window, t0, deadline, outstanding, per[0]);
      second.join();
      if (sampler.joinable()) sampler.join();
      for (const auto& p : per) out.merge(p);
    };
    PhaseStats warmup;
    closed(kWarmupS, warmup, nullptr);  // first touches of the worker's path; not timed
    run.warmup_attempted += warmup.attempted;
    run.warmup_failed += warmup.failed();
    run.warmup_wrong += warmup.wrong;

    const auto s0 = sample_tasks(pid);
    PhaseStats closed_stats;
    std::vector<std::int64_t> cpu_at;
    closed(closed_s, closed_stats, &cpu_at);
    const auto s1 = sample_tasks(pid);
    const CpuStat c1 = read_cpu_stat();
    for (const int fd : sockets) ::close(fd);

    // The worker is the task that burned the most CPU under load.
    int worker = -1;
    std::int64_t best = -1;
    for (const auto& [tid, s] : s1) {
      const auto it = s0.find(tid);
      const std::int64_t used = s.cpu_ns - (it != s0.end() ? it->second.cpu_ns : 0);
      if (used > best) {
        best = used;
        worker = tid;
      }
    }
    const double closed_cpu = static_cast<double>(total_cpu(s1) - total_cpu(s0)) / 1e9;
    std::uint64_t wakeups = 0;
    if (s0.count(worker) != 0) {
      wakeups = s1.at(worker).voluntary_switches - s0.at(worker).voluntary_switches;
    }
    const std::uint64_t drops = udp_drops(static_cast<std::uint16_t>(port));

    std::vector<double> slice_cpu_us;
    for (std::size_t k = 0; k < closed_stats.windows.size(); ++k) {
      const std::uint64_t done = closed_stats.windows[k];
      run.window_qps.push_back(static_cast<double>(done) * 1e9 / static_cast<double>(kWindowNs));
      if (done == 0 || k + 1 >= cpu_at.size()) continue;
      slice_cpu_us.push_back(static_cast<double>(cpu_at[k + 1] - cpu_at[k]) / 1e3 /
                             static_cast<double>(done));
    }
    run.window_cpu_us.insert(run.window_cpu_us.end(), slice_cpu_us.begin(), slice_cpu_us.end());
    run.closed.merge(closed_stats);
    run.closed_s += closed_s;
    run.closed_cpu_s += closed_cpu;
    run.wakeups += wakeups;
    run.drops += drops;
    run.steal += c1.steal - c0.steal;
    run.cpu_total += c1.total - c0.total;
    ++slices;

    JsonLine slice;
    slice.num("qps", static_cast<double>(closed_stats.replies) / closed_s)
        .num("cpu_us_per_query", median(slice_cpu_us))
        .num("failed", static_cast<double>(closed_stats.failed() + warmup.failed()))
        .num("drops", static_cast<double>(drops));
    std::printf("slice-done %s\n", slice.text().c_str());
    std::fflush(stdout);
  }

  const bool shares_ok =
      workload != "serve_mix" ||
      (shares[0] == 0.70 && shares[1] == 0.10 && shares[2] == 0.10 && shares[3] == 0.05 &&
       shares[4] == 0.05);
  const bool outstanding_ok = run.closed.max_outstanding < kServerRecvBatch;
  // A query fails when it is wrong, lost or late; only a wrong one makes
  // the run incorrect (a lost or late one is a loss, e.g. a host stall
  // longer than the timeout).
  const std::uint64_t failed = run.closed.failed() + run.warmup_failed;
  const std::uint64_t wrong = run.closed.wrong + run.warmup_wrong;
  std::string why;
  if (!shares_ok) why = "serve_mix shares differ from 70/10/10/5/5";
  if (!outstanding_ok) why = "closed loop exceeded the server recv batch";
  if (wrong > 0 && why.empty()) why = std::to_string(wrong) + " wrong replies";
  if (slices == 0 && why.empty()) why = "no server measured";
  const double completed = static_cast<double>(run.closed.ok);

  JsonLine out;
  out.boolean("correct", why.empty())
      .str("why", why)
      .num("slices", slices)
      .num("prep_world_s", fw.build_s + fw.run_until_s)
      .num("prep_expect_s", static_cast<double>(p2 - p1) / 1e9)
      .num("datagrams", static_cast<double>(traffic.items.size()))
      .nums("mix_shares", shares)
      .num("attempted", static_cast<double>(run.closed.attempted + run.warmup_attempted))
      .num("failed", static_cast<double>(failed))
      .num("closed_attempted", static_cast<double>(run.closed.attempted))
      .num("closed_wrong", static_cast<double>(run.closed.wrong))
      .num("closed_lost", static_cast<double>(run.closed.lost))
      .num("closed_late", static_cast<double>(run.closed.late))
      .num("closed_replies", static_cast<double>(run.closed.replies))
      .num("closed_s", run.closed_s)
      .nums("window_qps", run.window_qps)
      .num("max_qps", median(run.window_qps))
      .nums("window_cpu_us", run.window_cpu_us)
      .num("cpu_us_per_query", median(run.window_cpu_us))
      .num("closed_server_cpu_s", run.closed_cpu_s)
      .num("qps_per_core", run.closed_cpu_s > 0
                               ? static_cast<double>(run.closed.replies) / run.closed_cpu_s
                               : 0)
      .num("max_outstanding", run.closed.max_outstanding)
      .num("worker_wakeups_per_kq", completed > 0
                                        ? static_cast<double>(run.wakeups) * 1000.0 / completed
                                        : 0)
      .num("server_sock_drops", static_cast<double>(run.drops))
      .num("steal_pct", run.cpu_total > 0 ? 100.0 * static_cast<double>(run.steal) /
                                                static_cast<double>(run.cpu_total)
                                          : 0);
  add_latency(out, "closed_", run.closed.latency_us);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench

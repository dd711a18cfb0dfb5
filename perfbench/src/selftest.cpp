/// \file selftest.cpp
/// `perfbench selftest`: checks of the benchmark's own machinery.
///   - the percentile helper reports the highest percentile with at least
///     ten samples beyond it, and the sample count;
///   - the generated serve_mix matches its stated shares and shapes;
///   - the closed loop never has a server recv batch's worth in flight;
///   - a reply that comes back after its query timed out is late, not
///     wrong; a reply to a datagram that deserved silence is wrong.
/// The drift guard (in-process pipeline vs `rdns_tool sweep`/`analyze`)
/// lives in run.py --self-test, which runs this too.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "dns/serve_guard.hpp"
#include "loadgen.hpp"
#include "net/udp.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

using namespace rdns;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentiles() {
  const auto thousand = one_to(1000);
  const PercentileReport p99 = percentile_of_sorted(thousand, 99);
  check(p99.value == 990 && p99.beyond == 10 && p99.count == 1000 && p99.percentile == 99,
        "p99 of 1000 samples is the 990th with 10 beyond");
  const PercentileReport tail = tail_of_sorted(thousand);
  check(tail.value == 990 && tail.beyond == 10 && tail.count == 1000,
        "tail of 1000 samples stops 10 samples short of the maximum");
  const auto some = one_to(500);
  const PercentileReport short_p99 = percentile_of_sorted(some, 99);
  check(short_p99.value == 490 && short_p99.beyond == 10 && short_p99.percentile == 98,
        "p99 of 500 samples falls back to p98, the highest with 10 beyond");
  const PercentileReport p50 = percentile_of_sorted(some, 50);
  check(p50.value == 250 && p50.count == 500, "p50 of 500 samples is the 250th");
  const PercentileReport tiny = tail_of_sorted(one_to(7));
  check(tiny.count == 7 && tiny.beyond < kMinBeyond, "a 7-sample tail admits it is unsupported");
}

/// A loopback responder that answers every query the way the guard would
/// (REFUSED), after an optional stall. Runs until `stop`.
class Responder {
 public:
  explicit Responder(std::int64_t stall_ns) {
    std::string error;
    auto sock = net::UdpSocket::bind({0x7F000001u, 0}, false, &error);
    if (!sock) throw std::runtime_error(error);
    socket_ = std::move(*sock);
    port = socket_.local_endpoint()->port;
    thread_ = std::thread([this, stall_ns] { loop(stall_ns); });
  }
  ~Responder() {
    stop_.store(true);
    thread_.join();
  }
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  std::uint16_t port = 0;
  std::atomic<int> max_queued{0};

 private:
  void loop(std::int64_t stall_ns) {
    std::vector<net::UdpDatagram> in;
    while (!stop_.load()) {
      in.clear();
      if (socket_.recv_batch(in, kServerRecvBatch) == 0) {
        (void)socket_.wait_readable(10);
        continue;
      }
      max_queued.store(std::max<int>(max_queued.load(), static_cast<int>(in.size())));
      if (stall_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        stall_ns = 0;
      }
      for (const auto& q : in) {
        const auto c = dns::classify_query(q.payload, true);
        (void)socket_.send(dns::make_guard_response(q.payload, c.question_end,
                                                          dns::Rcode::Refused, false),
                           q.peer);
      }
    }
  }
  net::UdpSocket socket_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Traffic whose every datagram expects a REFUSED guard reply.
Traffic refused_traffic(const sim::World& world) {
  Traffic t = mix_traffic(world, 9, 200);
  Traffic out;
  for (const Item& item : t.items) {
    if (item.kind != Kind::NsProbe) continue;
    Item copy = item;
    copy.offset = static_cast<std::uint32_t>(out.blob.size());
    const auto bytes = t.bytes(item);
    out.blob.insert(out.blob.end(), bytes.begin(), bytes.end());
    copy.expect = static_cast<std::uint32_t>(out.expects.size());
    const auto c = dns::classify_query(bytes, true);
    Expect e;
    e.guard = true;
    e.rcode = static_cast<std::uint8_t>(dns::Rcode::Refused);
    e.digest = digest_guard(
        dns::make_guard_response(bytes, c.question_end, dns::Rcode::Refused, false));
    out.expects.push_back(e);
    out.items.push_back(copy);
  }
  return out;
}

/// `traffic` with every fourth datagram's reference outcome turned into
/// silence, for a responder that answers everything.
Traffic with_silence(Traffic t) {
  const auto silent = static_cast<std::uint32_t>(t.expects.size());
  Expect e;
  e.silent = true;
  t.expects.push_back(e);
  for (std::size_t i = 0; i < t.items.size(); i += 4) t.items[i].expect = silent;
  return t;
}

/// Both closed-loop threads against `port` for `ns`, on sockets of their own.
PhaseStats closed_loop(const Traffic& traffic, std::uint16_t port, std::int64_t ns) {
  const int fds[2] = {connect_udp(port), connect_udp(port)};
  Cursor cursors[2] = {{0, 2}, {1, 2}};
  std::atomic<int> outstanding{0};
  PhaseStats per[2];
  const std::int64_t t0 = mono_ns();
  const std::int64_t deadline = t0 + ns;
  std::thread second([&] {
    closed_thread(traffic, cursors[1], fds[1], kClosedWindow, t0, deadline, outstanding, per[1]);
  });
  closed_thread(traffic, cursors[0], fds[0], kClosedWindow, t0, deadline, outstanding, per[0]);
  second.join();
  for (const int fd : fds) ::close(fd);
  per[0].merge(per[1]);
  return per[0];
}

void test_closed_loop(const Traffic& traffic) {
  {
    Responder responder{0};
    const PhaseStats st = closed_loop(traffic, responder.port, 300'000'000);
    check(st.failed() == 0 && st.replies > 1000,
          "closed loop: " + std::to_string(st.replies) + " replies, none failed");
    check(st.max_outstanding <= kClosedWindow * kGeneratorThreads &&
              st.max_outstanding < kServerRecvBatch &&
              responder.max_queued.load() < kServerRecvBatch,
          "closed loop: at most " + std::to_string(st.max_outstanding) +
              " in flight, server batches of at most " +
              std::to_string(responder.max_queued.load()) + ", below the recv batch of " +
              std::to_string(kServerRecvBatch));
  }
  {
    // The first replies are held back past the closed-loop timeout: their
    // queries are lost, the replies come back late, and none is wrong.
    Responder responder{kClosedTimeoutNs + 100'000'000};
    const PhaseStats st = closed_loop(traffic, responder.port, kClosedTimeoutNs + 400'000'000);
    check(st.wrong == 0 && st.late > 0 && st.lost > 0,
          "closed loop: " + std::to_string(st.late) +
              " replies held past the timeout count as late, not wrong");
  }
  {
    Responder responder{0};
    const PhaseStats st = closed_loop(with_silence(traffic), responder.port, 100'000'000);
    check(st.wrong > 0 && st.late == 0,
          "closed loop: " + std::to_string(st.wrong) +
              " replies to datagrams that deserved silence count as wrong");
  }
}

void test_mix(const FrozenWorld& fw) {
  const Traffic mix = mix_traffic(*fw.world, 42, 5000);
  const auto shares = kind_shares(mix, mix.items.size());
  check(shares[0] == 0.70 && shares[1] == 0.10 && shares[2] == 0.10 && shares[3] == 0.05 &&
            shares[4] == 0.05,
        "serve_mix: shares are 70/10/10/5/5 exactly");
  const auto block = kind_shares(mix, kMixBlock);
  check(block[0] == 0.70 && block[4] == 0.05, "serve_mix: every block of 20 carries the mix");

  // Shapes, checked against the program's own classifier and cache probe.
  std::map<Kind, std::map<std::string, std::size_t>> outcomes;
  std::size_t edns = 0, upper = 0;
  std::map<std::string, std::size_t> ptr_names;
  for (const Item& item : mix.items) {
    const auto bytes = mix.bytes(item);
    const auto v = dns::classify_query(bytes, true).verdict;
    outcomes[item.kind][dns::to_string(v)] += 1;
    if (bytes.size() >= 12 && bytes[11] == 1) ++edns;
    if (item.kind == Kind::Ptr) {
      std::string q(bytes.begin() + 12, bytes.begin() + item.question_end);
      for (char& c : q) {
        if (c >= 'A' && c <= 'Z') {
          c = static_cast<char>(c - 'A' + 'a');
          ++upper;
        }
      }
      ptr_names[q] += 1;
    }
  }
  auto only = [&](Kind k, const char* verdict) {
    return outcomes[k].size() == 1 && outcomes[k].count(verdict) == 1;
  };
  check(only(Kind::Ptr, "answer") && only(Kind::ThreeOctet, "answer") &&
            only(Kind::NsProbe, "refused") && only(Kind::Chaos, "answer"),
        "serve_mix: PTR, three-octet and CHAOS pass the guard, NS probes are refused");
  check(outcomes[Kind::Malformed].size() == 2 && outcomes[Kind::Malformed].count("silent-drop") &&
            outcomes[Kind::Malformed].count("formerr"),
        "serve_mix: malformed datagrams are silent drops or FORMERR");
  const double edns_share = static_cast<double>(edns) / static_cast<double>(mix.items.size());
  check(edns_share > 0.75 && edns_share < 0.85, "serve_mix: ~80% carry EDNS OPT (" +
                                                    std::to_string(edns_share) + ")");
  check(upper > 0, "serve_mix: qnames use 0x20 mixed case");
  std::size_t top = 0;
  for (const auto& [name, n] : ptr_names) top = std::max(top, n);
  const double top_share = static_cast<double>(top) / (0.7 * static_cast<double>(mix.items.size()));
  check(top_share > 0.05 && top_share < 0.13,
        "serve_mix: Zipf head takes ~1/H(n) of PTR queries (" + std::to_string(top_share) + ")");
}

}  // namespace

int run_selftest(int, char**) {
  test_percentiles();
  const FrozenWorld fw = freeze_world(42);
  test_mix(fw);
  const Traffic refused = refused_traffic(*fw.world);
  test_closed_loop(refused);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench

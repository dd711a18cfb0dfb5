/// \file serve_trace.cpp
/// The traced run of the serve workloads. It rebuilds what `rdns_tool serve`
/// builds at start (the frozen world and its AnswerCache) in process, then
/// replays the workload's datagrams through the public calls of the serve
/// path in batches of the server's recv size, timing each stage per batch:
///
///   dns::classify_query            the guard's wire classification
///   dns::make_guard_response       REFUSED / FORMERR replies
///   AnswerCache::probe             cache lookup
///   AnswerCache::assemble          cache-hit reply (+ EDNS OPT)
///   FrozenDnsView::exchange        the codec handler, behind the CHAOS plane
///   net::UdpSocket send/recv_batch the replies over a loopback socket pair
///
/// Untimed replays of the same datagrams, interleaved with the timed ones,
/// give the tracing overhead.

#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "dns/admin.hpp"
#include "dns/answer_cache.hpp"
#include "dns/serve_guard.hpp"
#include "loadgen.hpp"
#include "net/udp.hpp"
#include "traffic.hpp"
#include "util/cli.hpp"

namespace perfbench {

namespace {

using namespace rdns;

struct Stage {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  [[nodiscard]] double per_call_ns() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
};

struct ReplayStats {
  Stage classify, guard_reply, probe, assemble, exchange, send, recv;
  std::uint64_t hits = 0;
  std::uint64_t refused = 0;
  std::uint64_t formerr = 0;
  std::uint64_t dropped = 0;
  std::int64_t total_ns = 0;
  [[nodiscard]] std::int64_t staged_ns() const {
    return classify.ns + guard_reply.ns + probe.ns + assemble.ns + exchange.ns + send.ns +
           recv.ns;
  }
};

/// Replays items [0, count) once. With `timed`, every stage of every batch
/// is timed; without, only the whole replay is.
ReplayStats replay(const Traffic& traffic, std::size_t count, const dns::AnswerCache& cache,
                   const dns::UdpServerLoop::WireHandler& handler, net::UdpSocket& tx,
                   net::UdpSocket& rx, const net::UdpEndpoint& rx_endpoint, bool timed) {
  ReplayStats st;
  auto clock = [timed] { return timed ? mono_ns() : 0; };
  std::vector<std::vector<std::uint8_t>> queries(kServerRecvBatch);
  std::vector<dns::Classified> verdicts(kServerRecvBatch);
  std::vector<dns::AnswerCache::Probe> probes(kServerRecvBatch);
  std::vector<std::uint8_t> slab;
  slab.reserve(kServerRecvBatch * 600);
  std::vector<std::pair<std::size_t, std::size_t>> replies;
  std::vector<net::UdpSendView> views;
  std::vector<net::UdpDatagram> inbound;
  constexpr std::uint16_t kEdnsUdpSize = 1232;  // `rdns_tool serve --edns-udp-size` default

  const std::int64_t start = mono_ns();
  for (std::size_t base = 0; base < count; base += kServerRecvBatch) {
    const std::size_t n = std::min<std::size_t>(kServerRecvBatch, count - base);
    for (std::size_t i = 0; i < n; ++i) {
      const auto bytes = traffic.bytes(traffic.items[base + i]);
      queries[i].assign(bytes.begin(), bytes.end());
      if (queries[i].size() >= 2) {
        queries[i][0] = static_cast<std::uint8_t>((base + i) >> 8);
        queries[i][1] = static_cast<std::uint8_t>(base + i);
      }
    }
    slab.clear();
    replies.clear();
    auto emit = [&](std::span<const std::uint8_t> bytes) {
      replies.emplace_back(slab.size(), bytes.size());
      slab.insert(slab.end(), bytes.begin(), bytes.end());
    };

    std::int64_t t = clock();
    for (std::size_t i = 0; i < n; ++i) verdicts[i] = dns::classify_query(queries[i], true);
    std::int64_t u = clock();
    st.classify.ns += u - t;
    st.classify.calls += n;

    t = clock();
    for (std::size_t i = 0; i < n; ++i) {
      const dns::WireVerdict v = verdicts[i].verdict;
      if (v == dns::WireVerdict::SilentDrop) {
        ++st.dropped;
      } else if (v != dns::WireVerdict::Answer) {
        const dns::Rcode rcode = guard_rcode(v);
        (rcode == dns::Rcode::FormErr ? st.formerr : st.refused) += 1;
        emit(dns::make_guard_response(queries[i], verdicts[i].question_end, rcode, false));
        ++st.guard_reply.calls;
      }
    }
    u = clock();
    st.guard_reply.ns += u - t;

    t = clock();
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts[i].verdict != dns::WireVerdict::Answer) continue;
      probes[i] = cache.probe(queries[i]);
      ++st.probe.calls;
    }
    u = clock();
    st.probe.ns += u - t;

    t = clock();
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts[i].verdict != dns::WireVerdict::Answer || !probes[i].hit) continue;
      const std::size_t off = slab.size();
      slab.resize(off + dns::AnswerCache::reply_size(probes[i]) + 11);
      std::size_t len = dns::AnswerCache::assemble(probes[i], queries[i], slab.data() + off);
      if (probes[i].edns) len = dns::AnswerCache::append_opt(slab.data() + off, len, kEdnsUdpSize);
      slab.resize(off + len);
      replies.emplace_back(off, len);
      ++st.assemble.calls;
      ++st.hits;
    }
    u = clock();
    st.assemble.ns += u - t;

    t = clock();
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts[i].verdict != dns::WireVerdict::Answer || probes[i].hit) continue;
      if (const auto reply = handler(queries[i])) emit(*reply);
      ++st.exchange.calls;
    }
    u = clock();
    st.exchange.ns += u - t;

    views.clear();
    for (const auto& [off, len] : replies) {
      views.push_back(net::UdpSendView{std::span<const std::uint8_t>(slab.data() + off, len),
                                       rx_endpoint});
    }
    t = clock();
    std::size_t sent = 0;
    while (sent < views.size()) sent += tx.send_batch(views.data() + sent, views.size() - sent);
    u = clock();
    st.send.ns += u - t;
    st.send.calls += sent;

    t = clock();
    std::size_t got = 0;
    while (got < sent) {
      inbound.clear();
      got += rx.recv_batch(inbound, kServerRecvBatch);
    }
    u = clock();
    st.recv.ns += u - t;
    st.recv.calls += got;
  }
  st.total_ns = mono_ns() - start;
  return st;
}

}  // namespace

/// `perfbench serve-trace`: per-layer numbers of one serve workload.
int run_serve_trace(int argc, char** argv) {
  util::CliParser cli{"perfbench serve-trace", "stage-by-stage replay of a serve workload"};
  cli.option("workload", "serve_sweep or serve_mix", "serve_sweep")
      .option("seed", "workload seed", "42");
  cli.parse(std::vector<std::string>(argv + 2, argv + argc));
  const std::string workload = cli.get("workload");
  const auto seed = static_cast<std::uint64_t>(std::stoll(cli.get("seed")));

  FrozenWorld fw = freeze_world(seed);
  std::vector<dns::AnswerCache::Source> sources;
  for (const auto& org : fw.world->orgs()) {
    for (const auto& prefix : org->spec().announced) {
      sources.push_back({&org->dns(), prefix.first(), prefix.last()});
    }
  }
  const std::int64_t c0 = mono_ns();
  const auto cache = dns::AnswerCache::build(sources);
  const double cache_build_s = static_cast<double>(mono_ns() - c0) / 1e9;

  const Traffic traffic = workload == "serve_sweep" ? sweep_traffic(*fw.world, seed)
                                                    : mix_traffic(*fw.world, seed, kMixBlocks);
  const std::size_t count = std::min(traffic.items.size(), kTraceDatagrams);

  sim::FrozenDnsView view{*fw.world};
  dns::ServeIntrospection introspection{1, dns::ServeAdminConfig{}};
  const auto handler = introspection.wrap_chaos(
      [&view, now = fw.now](std::span<const std::uint8_t> q) { return view.exchange(q, now); });

  std::string error;
  auto tx = net::UdpSocket::bind({0x7F000001u, 0}, false, &error);
  auto rx = net::UdpSocket::bind({0x7F000001u, 0}, false, &error);
  if (!tx || !rx) throw std::runtime_error("loopback sockets: " + error);
  const net::UdpEndpoint rx_endpoint = *rx->local_endpoint();

  // Warm once, then untimed and timed replays of the same datagrams in
  // ABBA order, so drift between passes cancels out of the overhead.
  (void)replay(traffic, std::min<std::size_t>(count, 20000), *cache, handler, *tx, *rx,
               rx_endpoint, false);
  std::int64_t plain_ns = 0;
  std::int64_t timed_ns = 0;
  ReplayStats st;
  for (const bool timed : {false, true, true, false}) {
    const ReplayStats pass = replay(traffic, count, *cache, handler, *tx, *rx, rx_endpoint, timed);
    (timed ? timed_ns : plain_ns) += pass.total_ns;
    if (timed) st = pass;
  }

  std::uint64_t acks = 0, releases = 0, expirations = 0, added = 0, removed = 0;
  for (const auto& org : fw.world->orgs()) {
    for (const auto& seg : org->segments()) {
      acks += seg.dhcp->stats().acks;
      releases += seg.dhcp->stats().releases;
      expirations += seg.dhcp->stats().expirations;
      added += seg.bridge->stats().ptr_added;
      removed += seg.bridge->stats().ptr_removed;
    }
  }
  const auto events = static_cast<double>(fw.world->queue().executed());
  const double per_query_ns = static_cast<double>(st.staged_ns()) / static_cast<double>(count);

  JsonLine out;
  out.num("sim.build_s", fw.build_s)
      .num("sim.run_until_s", fw.run_until_s)
      .num("sim.run_until_cpu_s", fw.run_until_cpu_s)
      .num("sim.events", events)
      .num("sim.events_per_s", fw.run_until_s > 0 ? events / fw.run_until_s : 0)
      .num("sim.joins", static_cast<double>(fw.world->stats().joins))
      .num("sim.leaves", static_cast<double>(fw.world->stats().leaves))
      .num("sim.renewals", static_cast<double>(fw.world->stats().renewals))
      .num("dhcp.acks", static_cast<double>(acks))
      .num("dhcp.releases", static_cast<double>(releases))
      .num("dhcp.expirations", static_cast<double>(expirations))
      .num("dhcp.ddns.ptr_added", static_cast<double>(added))
      .num("dhcp.ddns.ptr_removed", static_cast<double>(removed))
      .num("sim.freeze_s", fw.build_s + fw.run_until_s)
      .num("dns.cache.build_s", cache_build_s)
      .num("dns.cache.entries", static_cast<double>(cache->entry_count()))
      .num("dns.cache.bytes", static_cast<double>(cache->bytes()))
      .num("dns.cache.probe_ns", st.probe.per_call_ns())
      .num("dns.cache.assemble_ns", st.assemble.per_call_ns())
      .num("dns.cache.hit_ratio", st.probe.calls > 0 ? static_cast<double>(st.hits) /
                                                           static_cast<double>(st.probe.calls)
                                                     : 0)
      .num("dns.guard.classify_ns", st.classify.per_call_ns())
      .num("dns.guard.reply_ns", st.guard_reply.per_call_ns())
      .num("dns.guard.refused", static_cast<double>(st.refused))
      .num("dns.guard.formerr", static_cast<double>(st.formerr))
      .num("dns.guard.dropped", static_cast<double>(st.dropped))
      .num("dns.codec.exchange_ns", st.exchange.per_call_ns())
      .num("dns.codec.calls", static_cast<double>(st.exchange.calls))
      .num("net.send_ns", st.send.per_call_ns())
      .num("net.recv_ns", st.recv.per_call_ns())
      .num("replayed", static_cast<double>(count))
      .num("staged_ns_per_query", per_query_ns)
      .num("trace.overhead_pct",
           plain_ns > 0
               ? 100.0 * (static_cast<double>(timed_ns) / static_cast<double>(plain_ns) - 1.0)
               : 0);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench

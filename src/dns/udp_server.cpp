#include "dns/udp_server.hpp"

#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#else
#include <fcntl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "dns/admin.hpp"
#include "dns/answer_cache.hpp"
#include "dns/wire.hpp"
#include "util/flight.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace rdns::dns {

namespace {

namespace metrics = rdns::util::metrics;
namespace flight = rdns::util::flight;

}  // namespace

UdpServeStats& UdpServeStats::operator+=(const UdpServeStats& other) noexcept {
  for (const UdpServeStatsField& f : kUdpServeStatsFields) this->*f.member += other.*f.member;
  return *this;
}

void render_serve_counters(const UdpServeStats& delta) {
  // A registry lookup per field: renders run a few times a second, never
  // per query.
  for (const UdpServeStatsField& f : kUdpServeStatsFields) {
    if (f.exported) metrics::counter(std::string{"serve."} + f.name).inc(delta.*f.member);
  }
}

struct UdpServerLoop::Worker {
  explicit Worker(const ServeHardeningOptions& hardening) : guard(hardening) {}

  net::UdpSocket socket;
  WireHandler handler;
  UdpServeStats stats;
  ServeGuard guard;
  std::atomic<bool> stop{false};
  std::atomic<bool> drain{false};
};

UdpServerLoop::UdpServerLoop(UdpServeOptions options, HandlerFactory factory)
    : options_(std::move(options)), factory_(std::move(factory)) {
  if (options_.threads == 0) options_.threads = 1;
  if (options_.batch == 0) options_.batch = 1;
}

UdpServerLoop::~UdpServerLoop() { stop(); }

bool UdpServerLoop::start(std::string* error) {
  if (running_) return true;

  // The wake fd interrupts epoll_wait/poll so stop() never has to wait for
  // a datagram: eventfd on Linux, a self-pipe elsewhere.
#if defined(__linux__)
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  wake_write_fd_ = wake_fd_;
  if (wake_fd_ < 0) {
    if (error != nullptr) *error = std::string{"eventfd: "} + std::strerror(errno);
    return false;
  }
#else
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = std::string{"pipe: "} + std::strerror(errno);
    return false;
  }
  ::fcntl(pipe_fds[0], F_SETFL, ::fcntl(pipe_fds[0], F_GETFL, 0) | O_NONBLOCK);
  wake_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
#endif

  // One SO_REUSEPORT socket per worker on the same endpoint: the kernel
  // hashes flows across them. The first bind resolves port 0; the rest
  // bind the resolved port so they actually share it.
  net::UdpEndpoint target = options_.endpoint;
  const bool reuse = options_.threads > 1;
  for (unsigned i = 0; i < options_.threads; ++i) {
    auto socket = net::UdpSocket::bind(target, reuse, error);
    if (!socket) {
      workers_.clear();
      return false;
    }
    if (i == 0) {
      const auto bound = socket->local_endpoint();
      if (!bound) {
        if (error != nullptr) *error = "getsockname failed on the first worker socket";
        workers_.clear();
        return false;
      }
      bound_ = *bound;
      target = bound_;
    }
    auto worker = std::make_unique<Worker>(options_.hardening);
    worker->socket = std::move(*socket);
    worker->handler = factory_(i);
    workers_.push_back(std::move(worker));
  }

  // A zero render registers the serve.* series, so /metrics lists them
  // from the first scrape on.
  render_serve_counters(UdpServeStats{});
  running_ = true;
  threads_.reserve(workers_.size());
  for (unsigned i = 0; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] { run_worker(*workers_[i], i); });
  }
  util::log_info("serve: listening on " + bound_.to_string() + " with " +
                 std::to_string(workers_.size()) + " worker(s)");
  return true;
}

void UdpServerLoop::request_drain() {
  if (!running_) return;
  for (auto& worker : workers_) worker->drain.store(true, std::memory_order_relaxed);
  if (wake_write_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_write_fd_, &one, sizeof(one));
  }
  // Join here rather than in stop(): stop() raises the hard-stop flag,
  // which workers honor between batches — if it raced the drain, a worker
  // could exit with backlog still queued. Each worker's drain loop is
  // bounded by drain_deadline_ms, so this join is too.
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void UdpServerLoop::stop() {
  if (!running_) return;
  for (auto& worker : workers_) worker->stop.store(true, std::memory_order_relaxed);
  if (wake_write_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_write_fd_, &one, sizeof(one));
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  totals_ = {};
  UdpServeStats unobserved;  // workers without an introspection probe
  const unsigned observed =
      options_.introspection != nullptr ? options_.introspection->workers() : 0;
  for (unsigned i = 0; i < workers_.size(); ++i) {
    totals_ += workers_[i]->stats;
    if (i >= observed) unobserved += workers_[i]->stats;
  }
  workers_.clear();
  // Every worker has published its final stats, so this fold is exact: the
  // plane renders what it observed, and the rest is rendered here.
  if (options_.introspection != nullptr) options_.introspection->aggregate_now();
  render_serve_counters(unobserved);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (wake_write_fd_ >= 0 && wake_write_fd_ != wake_fd_) ::close(wake_write_fd_);
  wake_fd_ = wake_write_fd_ = -1;
  running_ = false;
}

void UdpServerLoop::run_worker(Worker& worker, unsigned index) {
  using Clock = std::chrono::steady_clock;
  // The three serve series that no UdpServeStats field mirrors; this
  // loop is their only writer.
  metrics::Histogram& batch_size = metrics::histogram(
      "serve.recv_batch_size", metrics::Histogram::linear_bounds(1, 4, 16));
  metrics::Gauge& shed_level = metrics::gauge("serve.shed_level");
  metrics::Counter& rrl_table_flushes = metrics::counter("serve.rrl_table_flushes");
  ServeIntrospection::WorkerProbe* probe =
      options_.introspection != nullptr && index < options_.introspection->workers()
          ? &options_.introspection->probe(index)
          : nullptr;
  ServeGuard& guard = worker.guard;
  const bool guard_on = guard.options().guard;
  const bool rrl_on = guard_on && guard.rrl_armed();
  const bool restrict_ptr = guard.options().restrict_ptr;
  const Clock::time_point epoch = Clock::now();
  unsigned last_shed_level = 0;
  std::uint64_t last_table_flushes = 0;
  std::vector<net::UdpDatagram> inbound;
  inbound.reserve(options_.batch);

  // Every reply of a batch is assembled into one reused slab and flushed
  // through a single sendmmsg over borrowed iovecs: no per-reply owning
  // vector in the loop. Replies are addressed by (offset, len) so slab
  // growth never invalidates them.
  struct SlabReply {
    std::size_t offset;
    std::size_t len;
    net::UdpEndpoint peer;
  };
  std::vector<std::uint8_t> slab;
  std::vector<SlabReply> slab_replies;
  std::vector<net::UdpSendView> views;
  slab.reserve(options_.batch * (options_.payload_cap + 16));
  slab_replies.reserve(options_.batch);
  views.reserve(options_.batch);
  auto queue_reply = [&](std::span<const std::uint8_t> bytes, const net::UdpEndpoint& peer) {
    slab_replies.push_back(SlabReply{slab.size(), bytes.size(), peer});
    slab.insert(slab.end(), bytes.begin(), bytes.end());
  };
  // EDNS0/TC post-step for answers in the slab at [off, off+len): append
  // our OPT for EDNS clients, then truncate to TC=1 when the reply exceeds
  // the client's advertised size (non-EDNS: the classic 512). The caller
  // guarantees 11 spare slab bytes past `len`. Returns the final length.
  auto postprocess = [&](std::size_t off, std::size_t len, const QueryView& query, bool edns) {
    std::uint8_t* reply = slab.data() + off;
    const std::size_t limit =
        edns ? std::clamp<std::size_t>(query.edns_udp_size, 512,
                                       std::max<std::size_t>(512, options_.payload_cap))
             : 512;
    if (edns) len = AnswerCache::append_opt(reply, len, options_.edns_udp_size);
    if (len > limit) {
      // A compressed or unscanned question: the reply's own question
      // section, as the codec wrote it, is where truncation cuts.
      const std::size_t qe =
          query.question_end != 0 ? query.question_end : scan_query({reply, len}).question_end;
      if (qe != 0) {
        len = AnswerCache::truncate_to_tc(reply, qe, edns ? options_.edns_udp_size : 0);
        ++worker.stats.tc_responses;
      }
    }
    return len;
  };

  // Answer-cache fast path: canonical IN PTR questions for pre-encoded
  // addresses skip the handler — header+question memcpy, four-byte patch,
  // cached tail. Everything else is a miss and takes the handler.
  std::shared_ptr<const AnswerCache> cache;
  std::uint64_t cache_epoch_seen = 0;
  if (options_.answer_cache) {
    cache = options_.answer_cache();
    if (options_.answer_cache_epoch != nullptr) {
      cache_epoch_seen = options_.answer_cache_epoch->load(std::memory_order_acquire);
    }
  }
  // A CHAOS-wrapped handler takes the worker's scan instead of its own.
  const auto* chaos_handler = worker.handler.target<ServeIntrospection::ChaosHandler>();

#if defined(__linux__)
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return;
  epoll_event socket_event{};
  socket_event.events = EPOLLIN;
  socket_event.data.fd = worker.socket.fd();
  ::epoll_ctl(ep, EPOLL_CTL_ADD, worker.socket.fd(), &socket_event);
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.fd = wake_fd_;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, wake_fd_, &wake_event);
#endif

  // Drain state: once `worker.drain` is observed, the worker stops waiting
  // for new input, consumes whatever the kernel has already queued (bounded
  // by the deadline — a flood would keep the queue fed forever), flushes
  // its final sends/publish, and exits.
  bool draining = false;
  Clock::time_point drain_deadline{};
  bool exiting = false;

  while (!worker.stop.load(std::memory_order_relaxed) && !exiting) {
    if (!draining && worker.drain.load(std::memory_order_relaxed)) {
      draining = true;
      drain_deadline = Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
    }
    if (!draining) {
#if defined(__linux__)
      epoll_event events[2];
      const int ready = ::epoll_wait(ep, events, 2, /*timeout_ms=*/250);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0) continue;
      // The wake fd is never drained: once stop/drain is signalled it
      // stays readable, so every worker's epoll_wait returns immediately.
#else
      if (!worker.socket.wait_readable(/*timeout_ms=*/250)) continue;
#endif
    }
    // Drain the socket: keep pulling batches until the queue is dry, so a
    // burst costs one epoll wakeup, not one per datagram.
    for (;;) {
      inbound.clear();
      const std::size_t got =
          worker.socket.recv_batch(inbound, options_.batch, options_.payload_cap);
      if (got == 0) {
        if (draining) exiting = true;  // backlog consumed: done
        break;
      }
      ++worker.stats.recv_batches;
      batch_size.observe(static_cast<double>(got));
      worker.stats.datagrams_received += got;

      // Hot-reload invalidation: the switchboard bumps the epoch after
      // publishing a new generation; one acquire load per batch keeps the
      // worker's cache image in step with its zone view.
      if (options_.answer_cache && options_.answer_cache_epoch != nullptr) {
        const std::uint64_t e = options_.answer_cache_epoch->load(std::memory_order_acquire);
        if (e != cache_epoch_seen) {
          cache = options_.answer_cache();
          cache_epoch_seen = e;
        }
      }

      // Wall-clock second for the RRL buckets, computed once per batch
      // (BIND-style one-second windows don't need finer resolution).
      std::int64_t now_s = 0;
      if (rrl_on) {
        now_s = std::chrono::duration_cast<std::chrono::seconds>(Clock::now() - epoch).count();
      }
      // Backlog monitor: a full batch means the queue is outrunning us.
      unsigned shed = 0;
      if (guard_on) {
        shed = guard.on_batch(got == options_.batch);
        if (shed != last_shed_level) {
          shed_level.set(static_cast<std::int64_t>(shed));
          flight::record(flight::Kind::ShedLevel, shed, index);
          last_shed_level = shed;
        }
      }

      for (net::UdpDatagram& query : inbound) {
        if (query.truncated) {
          // Over-long datagram: the payload is a cut-off prefix, so any
          // parse would misfire. Drop it; a real resolver's retry covers.
          ++worker.stats.truncated_queries;
          continue;
        }
        if (probe != nullptr) probe->note_client(query.peer.address);
        // The one scan of this datagram's question; everything below reads it.
        const QueryView view = scan_query(query.payload);
        // CHAOS-class queries are the introspection plane's: exempt from
        // RRL, shedding and the EDNS/TC post-step (its TXT payloads are the
        // point). Under the guard only CH TXT gets this far.
        const bool chaos = view.qclass == static_cast<std::uint16_t>(RrClass::CH);
        if (guard_on) {
          const Classified verdict = classify_query(view, restrict_ptr);
          if (verdict.verdict == WireVerdict::SilentDrop) {
            ++worker.stats.dropped_malformed;
            continue;
          }
          if (verdict.verdict != WireVerdict::Answer) {
            // Error response (FORMERR/NOTIMP/REFUSED) — the first work the
            // shed ladder dumps: at L1+ the sender gets silence instead.
            if (shed >= 1) {
              ++worker.stats.shed_errors;
              ++worker.stats.dropped_policy;
              continue;
            }
            Rcode rcode = Rcode::Refused;
            if (verdict.verdict == WireVerdict::FormErr) {
              rcode = Rcode::FormErr;
              ++worker.stats.formerr_sent;
            } else if (verdict.verdict == WireVerdict::NotImp) {
              rcode = Rcode::NotImp;
              ++worker.stats.notimp_sent;
            } else {
              ++worker.stats.refused_sent;
            }
            queue_reply(make_guard_response(query.payload, verdict.question_end, rcode,
                                            /*tc=*/false),
                        query.peer);
            continue;
          }
          // In-policy query: RRL then the L3 answer shed.
          if (!chaos) {
            if (rrl_on) {
              const auto decision = guard.rrl_check(query.peer.address, now_s);
              // At L2+ the slip escape hatch closes too: over-limit
              // traffic gets pure silence.
              if (decision == ServeGuard::RrlDecision::Drop ||
                  (decision == ServeGuard::RrlDecision::Slip && shed >= 2)) {
                ++worker.stats.rrl_dropped;
                ++worker.stats.dropped_policy;
                flight::record(flight::Kind::RrlDrop, query.peer.address, index);
                continue;
              }
              if (decision == ServeGuard::RrlDecision::Slip) {
                ++worker.stats.rrl_slipped;
                flight::record(flight::Kind::RrlSlip, query.peer.address, index);
                queue_reply(make_guard_response(query.payload, verdict.question_end,
                                                Rcode::NoError, /*tc=*/true),
                            query.peer);
                continue;
              }
              if (guard.table_flushes() != last_table_flushes) {
                rrl_table_flushes.inc(guard.table_flushes() - last_table_flushes);
                last_table_flushes = guard.table_flushes();
              }
            }
            if (shed >= 3 && guard.shed_answer()) {
              ++worker.stats.shed_answers;
              ++worker.stats.dropped_policy;
              continue;
            }
          }
        }
        // Introspection is off the fast path by construction: one pointer
        // test when disabled; when enabled, clocks only tick for the
        // deterministic 1-in-N sampled subset.
        const bool sampled = probe != nullptr && probe->should_sample(query.payload);
        std::chrono::steady_clock::time_point t0{};
        if (sampled) t0 = std::chrono::steady_clock::now();
        const auto record_sample = [&](std::span<const std::uint8_t> reply) {
          const double latency_us =
              std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                  .count();
          probe->on_sampled(view, reply, latency_us, query.peer);
        };

        // The OPT echo answers standard queries only; the guard lets no
        // other kind through.
        const bool edns = !chaos && view.edns && view.standard_query();
        if (edns) ++worker.stats.edns_queries;
        const AnswerCache::Probe pr = cache != nullptr ? cache->probe(view) : AnswerCache::Probe{};
        const std::size_t off = slab.size();
        std::size_t len = 0;
        if (pr.hit) {
          ++worker.stats.cache_hits;
          slab.resize(off + AnswerCache::reply_size(pr) + 11);
          len = AnswerCache::assemble(pr, query.payload, slab.data() + off);
        } else {
          if (cache != nullptr) ++worker.stats.cache_misses;
          const auto response = chaos_handler != nullptr ? (*chaos_handler)(view)
                                                         : worker.handler(query.payload);
          if (!response) {
            // Injected timeout (or, unguarded, undecodable input): silence.
            if (sampled) record_sample({});
            ++worker.stats.dropped_timeout_fault;
            continue;
          }
          slab.resize(off + response->size() + 11);
          std::memcpy(slab.data() + off, response->data(), response->size());
          len = response->size();
        }
        if (!chaos) len = postprocess(off, len, view, edns);
        slab.resize(off + len);
        slab_replies.push_back(SlabReply{off, len, query.peer});
        if (sampled) record_sample({slab.data() + off, len});
      }
      if (!slab_replies.empty()) {
        // Slab flush: iovecs borrow straight from the slab — one sendmmsg,
        // zero owning copies.
        views.clear();
        for (const SlabReply& r : slab_replies) {
          views.push_back(net::UdpSendView{
              std::span<const std::uint8_t>(slab.data() + r.offset, r.len), r.peer});
        }
        const std::size_t sent = worker.socket.send_batch(views.data(), views.size());
        worker.stats.responses_sent += sent;
        worker.stats.send_failures += views.size() - sent;
        slab.clear();
        slab_replies.clear();
      }
      // Publish once per batch: the aggregator reads a consistent snapshot
      // without ever touching the worker's cache lines mid-datagram.
      if (probe != nullptr) probe->publish(worker.stats);

      // A sustained flood keeps this inner loop fed forever, so stop and
      // drain must be observable between batches, not just between epoll
      // wakeups.
      if (worker.stop.load(std::memory_order_relaxed)) {
        exiting = true;
        break;
      }
      if (!draining && worker.drain.load(std::memory_order_relaxed)) {
        draining = true;
        drain_deadline = Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
      }
      if (draining && Clock::now() >= drain_deadline) {
        exiting = true;
        break;
      }
    }
  }

  // Final publish so the introspection plane sees the drained totals even
  // when the last batch raced the aggregator.
  if (probe != nullptr) probe->publish(worker.stats);

#if defined(__linux__)
  ::close(ep);
#endif
}

}  // namespace rdns::dns

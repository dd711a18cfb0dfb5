#include "dns/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "dns/wire.hpp"
#include "net/arpa.hpp"
#include "util/faults.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rdns::dns {

namespace {

namespace metrics = rdns::util::metrics;

/// Process-wide query accounting, aggregated across every server instance
/// (per-instance detail stays in ServerStats). All counters are relaxed
/// atomics, safe on the concurrent handle_readonly path, and the totals
/// are plain sums, so they come out identical at any thread count.
struct ServerMetrics {
  metrics::Counter& queries = metrics::counter("dns.server.queries");
  metrics::Counter& answered = metrics::counter("dns.server.answered");
  metrics::Counter& nxdomain = metrics::counter("dns.server.nxdomain");
  metrics::Counter& nodata = metrics::counter("dns.server.nodata");
  metrics::Counter& servfail_injected = metrics::counter("dns.server.servfail_injected");
  metrics::Counter& timeouts_injected = metrics::counter("dns.server.timeouts_injected");
  metrics::Counter& truncations_injected = metrics::counter("dns.server.truncations_injected");
  metrics::Counter& refused = metrics::counter("dns.server.refused");
  metrics::Counter& updates = metrics::counter("dns.server.updates");
  metrics::Counter& qtype_ptr = metrics::counter("dns.server.qtype.ptr");
  metrics::Counter& qtype_a = metrics::counter("dns.server.qtype.a");
  metrics::Counter& qtype_soa = metrics::counter("dns.server.qtype.soa");
  metrics::Counter& qtype_other = metrics::counter("dns.server.qtype.other");
  metrics::Histogram& update_rrs = metrics::histogram(
      "dns.server.update_rrs", metrics::Histogram::exponential_bounds(1, 2, 8));
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

void count_qtype(const Message& request) {
  if (request.questions.empty()) return;
  ServerMetrics& m = server_metrics();
  switch (request.questions.front().qtype) {
    case RrType::PTR: m.qtype_ptr.inc(); break;
    case RrType::A: m.qtype_a.inc(); break;
    case RrType::SOA: m.qtype_soa.inc(); break;
    default: m.qtype_other.inc(); break;
  }
}

/// Entity key for util::faults decisions: transaction id + lowercased
/// qname, mirroring fault_hit()'s inputs so injected outcomes are a pure
/// function of the query regardless of thread count or issue order.
std::uint64_t request_entity(const Message& request) noexcept {
  std::uint64_t h = util::mix64(request.id);
  if (!request.questions.empty()) {
    for (const auto& label : request.questions.front().qname.labels()) {
      for (const char c : label) {
        const auto lower =
            static_cast<std::uint64_t>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
        h = util::mix64(h ^ lower);
      }
      h = util::mix64(h ^ 0x2EULL);  // label separator
    }
  }
  return h;
}

}  // namespace

ServerStats& ServerStats::operator+=(const ServerStats& other) noexcept {
  queries += other.queries;
  answered += other.answered;
  nxdomain += other.nxdomain;
  nodata += other.nodata;
  servfail_injected += other.servfail_injected;
  timeouts_injected += other.timeouts_injected;
  truncations_injected += other.truncations_injected;
  refused += other.refused;
  updates += other.updates;
  return *this;
}

AuthoritativeServer::AuthoritativeServer(FaultPolicy faults, std::uint64_t fault_seed)
    : faults_(faults), fault_seed_(fault_seed) {}

Zone& AuthoritativeServer::add_zone(DnsName origin, SoaRdata soa) {
  zones_.push_back(std::make_unique<Zone>(std::move(origin), std::move(soa), &pool_));
  return *zones_.back();
}

std::size_t AuthoritativeServer::populate_generic(net::Ipv4Addr first, net::Ipv4Addr last,
                                                  const DnsName& suffix, std::uint32_t ttl) {
  std::size_t inserted = 0;
  std::uint64_t total = 0;
  // Chunk on /16 boundaries: each chunk lands in one reverse zone.
  std::uint64_t v = first.value();
  const std::uint64_t end = last.value();
  while (v <= end) {
    const std::uint64_t chunk_end = std::min<std::uint64_t>(end, v | 0xFFFFu);
    const net::Ipv4Addr chunk_first{static_cast<std::uint32_t>(v)};
    const net::Ipv4Addr chunk_last{static_cast<std::uint32_t>(chunk_end)};
    Zone* zone = find_zone(DnsName::must_parse(net::to_arpa(chunk_first)));
    if (zone == nullptr) {
      throw std::invalid_argument("populate_generic: no zone for " + chunk_first.to_string());
    }
    inserted += zone->populate_generic(chunk_first, chunk_last, suffix, ttl);
    total += chunk_end - v + 1;
    v = chunk_end + 1;
  }
  // Advance statistics exactly as `total` replace-updates through handle()
  // would have on a fault-free server: each update is one query, one
  // applied update, and one update_rrs observation of its 2 authority RRs
  // (delete-RRset + add).
  ServerMetrics& m = server_metrics();
  stats_.queries += total;
  stats_.updates += total;
  m.queries.inc(total);
  m.updates.inc(total);
  for (std::uint64_t i = 0; i < total; ++i) m.update_rrs.observe(2.0);
  return inserted;
}

Zone* AuthoritativeServer::find_zone(const DnsName& name) noexcept {
  Zone* best = nullptr;
  for (const auto& zone : zones_) {
    if (name.ends_with(zone->origin())) {
      if (best == nullptr || zone->origin().label_count() > best->origin().label_count()) {
        best = zone.get();
      }
    }
  }
  return best;
}

const Zone* AuthoritativeServer::find_zone(const DnsName& name) const noexcept {
  return const_cast<AuthoritativeServer*>(this)->find_zone(name);
}

std::vector<Zone*> AuthoritativeServer::zones() noexcept {
  std::vector<Zone*> out;
  out.reserve(zones_.size());
  for (const auto& z : zones_) out.push_back(z.get());
  return out;
}

std::vector<const Zone*> AuthoritativeServer::zones() const {
  std::vector<const Zone*> out;
  out.reserve(zones_.size());
  for (const auto& z : zones_) out.push_back(z.get());
  return out;
}

bool AuthoritativeServer::fault_hit(const Message& request, std::uint64_t salt,
                                    double p) const noexcept {
  // Stateless fault decision: a hash of (server seed, transaction id,
  // lowercased qname). Unlike a shared RNG stream, the outcome for a given
  // query does not depend on how many queries other threads issued first,
  // which keeps parallel sweeps byte-identical at every thread count.
  std::uint64_t h = fault_seed_ ^ salt;
  h = util::mix64(h ^ request.id);
  if (!request.questions.empty()) {
    for (const auto& label : request.questions.front().qname.labels()) {
      for (const char c : label) {
        const auto lower =
            static_cast<std::uint64_t>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
        h = util::mix64(h ^ lower);
      }
      h = util::mix64(h ^ 0x2EULL);  // label separator
    }
  }
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

std::optional<Message> AuthoritativeServer::handle(const Message& request) {
  if (request.flags.opcode == Opcode::Update) {
    ServerMetrics& m = server_metrics();
    ++stats_.queries;
    m.queries.inc();
    if (faults_.timeout_probability > 0 &&
        fault_hit(request, 0x7E0ULL, faults_.timeout_probability)) {
      ++stats_.timeouts_injected;
      m.timeouts_injected.inc();
      return std::nullopt;
    }
    if (faults_.servfail_probability > 0 &&
        fault_hit(request, 0x5FA1ULL, faults_.servfail_probability)) {
      ++stats_.servfail_injected;
      m.servfail_injected.inc();
      return make_response(request, Rcode::ServFail);
    }
    ++stats_.updates;
    m.updates.inc();
    return apply_update(request);
  }
  return handle_readonly(request, stats_);
}

std::optional<Message> AuthoritativeServer::handle_readonly(const Message& request,
                                                            ServerStats& stats) const {
  // A response (QR=1) is never a query: answering one would complete a
  // reflection loop. serve_guard's classify_query drops it the same way.
  if (request.flags.qr) return std::nullopt;
  ServerMetrics& m = server_metrics();
  ++stats.queries;
  m.queries.inc();
  count_qtype(request);
  if (faults_.timeout_probability > 0 &&
      fault_hit(request, 0x7E0ULL, faults_.timeout_probability)) {
    ++stats.timeouts_injected;
    m.timeouts_injected.inc();
    return std::nullopt;
  }
  if (faults_.servfail_probability > 0 &&
      fault_hit(request, 0x5FA1ULL, faults_.servfail_probability)) {
    ++stats.servfail_injected;
    m.servfail_injected.inc();
    return make_response(request, Rcode::ServFail);
  }
  if (request.flags.opcode == Opcode::Update) {
    // Mutation is not allowed on the concurrent read path.
    ++stats.refused;
    m.refused.inc();
    return make_response(request, Rcode::Refused, /*authoritative=*/false);
  }
  if (request.flags.opcode != Opcode::Query) {
    // NOTIFY, IQUERY, STATUS and unassigned opcodes (RFC 1035 §4.1.1).
    ++stats.refused;
    m.refused.inc();
    return make_response(request, Rcode::NotImp, /*authoritative=*/false);
  }
  // Chaos-profile faults (util::faults) on top of the per-server policy:
  // same stateless-hash determinism, but driven by the process-wide
  // profile so `--faults flaky-dns` degrades every server at once. No
  // journal emission here — this path runs concurrently; the per-shard
  // aggregates ride in the sweep.shard events.
  if (auto* inj = util::faults::active()) {
    const std::uint64_t entity = request_entity(request);
    if (inj->should_fail(util::faults::Site::DnsTimeout, entity)) {
      ++stats.timeouts_injected;
      m.timeouts_injected.inc();
      return std::nullopt;
    }
    if (inj->should_fail(util::faults::Site::DnsServfail, entity)) {
      ++stats.servfail_injected;
      m.servfail_injected.inc();
      return make_response(request, Rcode::ServFail);
    }
    if (inj->should_fail(util::faults::Site::DnsTruncate, entity)) {
      // UDP truncation: TC bit set, no answers. The stub retries (a real
      // one would fall back to TCP).
      ++stats.truncations_injected;
      m.truncations_injected.inc();
      Message response = make_response(request, Rcode::NoError);
      response.flags.tc = true;
      return response;
    }
  }
  return answer_query(request, stats);
}

Message AuthoritativeServer::answer_query(const Message& query, ServerStats& stats) const {
  ServerMetrics& m = server_metrics();
  if (query.questions.size() != 1) {
    ++stats.refused;
    m.refused.inc();
    return make_response(query, Rcode::FormErr, /*authoritative=*/false);
  }
  const Question& q = query.questions.front();
  const Zone* zone = find_zone(q.qname);
  if (zone == nullptr) {
    ++stats.refused;
    m.refused.inc();
    return make_response(query, Rcode::Refused, /*authoritative=*/false);
  }

  auto answers = zone->find(q.qname, q.qtype);
  if (!answers.empty()) {
    Message response = make_response(query, Rcode::NoError);
    response.answers = std::move(answers);
    ++stats.answered;
    m.answered.inc();
    return response;
  }

  // Name exists but not with this type -> NODATA (NOERROR, SOA in
  // authority); name absent -> NXDOMAIN (also with SOA, RFC 2308).
  const bool exists = zone->has_name(q.qname);
  Message response = make_response(query, exists ? Rcode::NoError : Rcode::NxDomain);
  response.authority.push_back(make_soa(zone->origin(), zone->soa(), zone->soa().minimum));
  if (exists) {
    ++stats.nodata;
    m.nodata.inc();
  } else {
    ++stats.nxdomain;
    m.nxdomain.inc();
  }
  return response;
}

Message AuthoritativeServer::apply_update(const Message& update) {
  server_metrics().update_rrs.observe(static_cast<double>(update.authority.size()));
  // RFC 2136 layout: question = zone (qtype SOA), authority = update RRs.
  if (update.questions.size() != 1 || update.questions.front().qtype != RrType::SOA) {
    return make_response(update, Rcode::FormErr);
  }
  Zone* zone = find_zone(update.questions.front().qname);
  if (zone == nullptr || !(zone->origin() == update.questions.front().qname)) {
    return make_response(update, Rcode::NotZone);
  }
  // Validate owners first (RFC 2136 §3.4.1: check before any mutation).
  for (const auto& rr : update.authority) {
    if (!zone->contains(rr.name)) return make_response(update, Rcode::NotZone);
  }
  for (const auto& rr : update.authority) {
    if (rr.klass == RrClass::IN) {
      zone->add(rr);
    } else if (rr.klass == RrClass::ANY) {
      if (rr.type() == RrType::ANY) {
        zone->remove_all(rr.name);
      } else {
        zone->remove(rr.name, rr.type());
      }
    } else if (rr.klass == RrClass::NONE) {
      // Match irrespective of TTL: delete any record with same name/type/rdata.
      for (const auto& existing : zone->find(rr.name, rr.type())) {
        if (existing.rdata == rr.rdata) {
          zone->remove_exact(existing);
          break;
        }
      }
    } else {
      return make_response(update, Rcode::FormErr);
    }
  }
  return make_response(update, Rcode::NoError);
}

std::optional<std::vector<std::uint8_t>> LoopbackTransport::exchange(
    std::span<const std::uint8_t> query_wire, util::SimTime /*now*/) {
  Message query;
  try {
    query = decode(query_wire);
  } catch (const WireError&) {
    return std::nullopt;  // a real server would drop an unparseable datagram
  }
  const auto response = server_->handle(query);
  if (!response) return std::nullopt;
  return encode(*response);
}

}  // namespace rdns::dns

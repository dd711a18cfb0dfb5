#include "dns/admin.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "dns/message.hpp"
#include "dns/wire.hpp"
#include "net/admin_http.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rdns::dns {

namespace metrics = util::metrics;

namespace {

/// Latency bucket upper bounds: 1us * 2^i.
constexpr auto kLatencyBoundsUs = [] {
  std::array<double, kServeLatencyBuckets> bounds{};
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(std::uint64_t{1} << i);
  }
  return bounds;
}();

/// The lowercased dotted name of a clean question ("stats.rdns"; "." for
/// the root): the CHAOS interface's and the qname sketch's key.
[[nodiscard]] std::string lowercase_qname(const QueryView& query) {
  std::string name;
  for (std::size_t i = 0; i < query.label_count; ++i) {
    if (i > 0) name.push_back('.');
    name += util::to_lower(query.label(i));
  }
  return name.empty() ? "." : name;
}

[[nodiscard]] std::string format_double(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, std::isfinite(v) ? v : 0.0);
  return buf;
}

/// WorkerProbe slot layout: every UdpServeStats field in table order, the
/// latency buckets, the latency count and sum bits, sampled, slowlog.
constexpr std::size_t kSlotWords = kUdpServeStatsFields.size() + (kServeLatencyBuckets + 1) + 4;

}  // namespace

// -- ServeLatencySnapshot -----------------------------------------------------

double ServeLatencySnapshot::percentile(double p) const noexcept {
  return metrics::bucket_percentile(kLatencyBoundsUs, buckets, p);
}

// -- WorkerProbe --------------------------------------------------------------

ServeIntrospection::WorkerProbe::WorkerProbe(ServeIntrospection* owner, unsigned index)
    : owner_(owner),
      index_(index),
      slot_(kSlotWords),
      clients_(owner->config_.top_k),
      qnames_(owner->config_.top_k) {}

bool ServeIntrospection::WorkerProbe::should_sample(
    std::span<const std::uint8_t> query) const noexcept {
  const unsigned n = owner_->config_.sample_every;
  if (n == 0 || query.size() < 2) return false;
  if (n == 1) return true;
  // splitmix64 spreads the (often sequential) transaction ids, so "1 in N
  // by txid hash" selects an unbiased but reproducible subset.
  const std::uint64_t txid = (std::uint64_t{query[0]} << 8) | query[1];
  return util::mix64(txid) % n == 0;
}

void ServeIntrospection::WorkerProbe::note_client(std::uint32_t address) {
  client_buf_.push_back(address);
}

void ServeIntrospection::WorkerProbe::on_sampled(const QueryView& query,
                                                 std::span<const std::uint8_t> reply,
                                                 double latency_us,
                                                 const net::UdpEndpoint& client) {
  ++sampled_;
  // First bound >= the latency; past the last bound is the overflow bucket.
  const auto bound =
      std::lower_bound(kLatencyBoundsUs.begin(), kLatencyBoundsUs.end(), latency_us);
  ++latency_.buckets[static_cast<std::size_t>(bound - kLatencyBoundsUs.begin())];
  ++latency_.count;
  latency_.sum_us += latency_us;

  const bool parsed = query.question == QueryView::Question::Clean;
  std::string qname;
  if (parsed) {
    qname = lowercase_qname(query);
    qname_buf_.push_back(qname);
  }

  if (latency_us >= owner_->config_.slowlog_threshold_us) {
    ++slowlog_;
    if (util::journal::Journal* j = util::journal::active()) {
      const char* rcode = "drop";  // no reply: an injected timeout
      if (reply.size() >= 4) rcode = to_string(static_cast<Rcode>(reply[3] & 0x0F));
      util::journal::Event event{"serve.slowlog", owner_->config_.sim_time};
      event.str("qname", parsed ? qname : "<malformed>")
          .str("client", client.to_string())
          .unum("latency_us", static_cast<std::uint64_t>(std::llround(latency_us)))
          .str("rcode", rcode)
          .unum("worker", index_);
      j->emit(event);
    }
  }
}

void ServeIntrospection::WorkerProbe::publish(const UdpServeStats& stats) {
  if (!client_buf_.empty() || !qname_buf_.empty()) {
    const std::lock_guard<std::mutex> lock(sketch_mu_);
    // Sorting first bounds the sketch work at one offer per *distinct*
    // client in this drain, independent of how the kernel interleaved them.
    std::sort(client_buf_.begin(), client_buf_.end());
    std::size_t i = 0;
    while (i < client_buf_.size()) {
      std::size_t j = i + 1;
      while (j < client_buf_.size() && client_buf_[j] == client_buf_[i]) ++j;
      clients_.offer(util::ipv4_sketch_key(client_buf_[i]), j - i);
      i = j;
    }
    for (const std::string& q : qname_buf_) qnames_.offer(q);
    client_buf_.clear();
    qname_buf_.clear();
  }

  std::array<std::uint64_t, kSlotWords> words{};
  std::size_t w = 0;
  for (const UdpServeStatsField& f : kUdpServeStatsFields) words[w++] = stats.*f.member;
  for (const std::uint64_t b : latency_.buckets) words[w++] = b;
  words[w++] = latency_.count;
  words[w++] = std::bit_cast<std::uint64_t>(latency_.sum_us);
  words[w++] = sampled_;
  words[w] = slowlog_;
  slot_.publish(words);
}

bool ServeIntrospection::WorkerProbe::fold_into(Aggregate& agg) const {
  std::array<std::uint64_t, kSlotWords> words{};
  const bool consistent = slot_.read(words);
  std::size_t w = 0;
  for (const UdpServeStatsField& f : kUdpServeStatsFields) agg.totals.*f.member += words[w++];
  for (std::uint64_t& b : agg.latency.buckets) b += words[w++];
  agg.latency.count += words[w++];
  agg.latency.sum_us += std::bit_cast<double>(words[w++]);
  agg.sampled += words[w++];
  agg.slowlog += words[w];
  return consistent;
}

// -- ServeIntrospection -------------------------------------------------------

ServeIntrospection::ServeIntrospection(unsigned workers, ServeAdminConfig config)
    : config_(config), started_(std::chrono::steady_clock::now()) {
  if (workers == 0) workers = 1;
  if (config_.top_k == 0) config_.top_k = 1;
  probes_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    probes_.emplace_back(std::unique_ptr<WorkerProbe>(new WorkerProbe(this, i)));
  }
}

ServeIntrospection::~ServeIntrospection() { stop(); }

ServeIntrospection::Aggregate ServeIntrospection::aggregate() const {
  const auto hold = aggregator_.pause();
  return latest_;
}

void ServeIntrospection::aggregate_pass() {
  Aggregate agg;
  util::SpaceSaving clients{config_.top_k};
  util::SpaceSaving qnames{config_.top_k};
  for (const auto& probe : probes_) {
    if (!probe->fold_into(agg)) metrics::counter("serve.admin_torn_reads").inc();
    const std::lock_guard<std::mutex> lock(probe->sketch_mu_);
    clients.merge_from(probe->clients_);
    qnames.merge_from(probe->qnames_);
  }

  // Render each count once: every exported serve.* counter grows by what
  // the fold gained since the previous pass. A torn read never moves a
  // field backwards; only a loop restarted on this plane could, and its
  // field then renders nothing until it passes the old count.
  UdpServeStats gained;
  for (const UdpServeStatsField& f : kUdpServeStatsFields) {
    const std::uint64_t now = agg.totals.*f.member;
    std::uint64_t& seen = rendered_.*f.member;
    gained.*f.member = now > seen ? now - seen : 0;
    seen = std::max(seen, now);
  }
  render_serve_counters(gained);

  const double now_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
  agg.uptime_s = now_s;
  received_rate_.add_sample(now_s, agg.totals.datagrams_received);
  sent_rate_.add_sample(now_s, agg.totals.responses_sent);
  agg.qps_1s = received_rate_.rate(1.0);
  agg.qps_10s = received_rate_.rate(10.0);
  agg.qps_60s = received_rate_.rate(60.0);
  agg.top_clients = clients.top(config_.top_k);
  agg.top_qnames = qnames.top(config_.top_k);

  // Mirror the rest of the folded view into the global registry so the
  // Prometheus exposition and the --metrics-interval JSONL stream carry it.
  metrics::gauge("serve.qps_1s").set(std::llround(agg.qps_1s));
  metrics::gauge("serve.qps_10s").set(std::llround(agg.qps_10s));
  metrics::gauge("serve.qps_60s").set(std::llround(agg.qps_60s));
  metrics::gauge("serve.rps_1s").set(std::llround(sent_rate_.rate(1.0)));
  metrics::gauge("serve.latency_p50_us").set(std::llround(agg.latency.percentile(50)));
  metrics::gauge("serve.latency_p90_us").set(std::llround(agg.latency.percentile(90)));
  metrics::gauge("serve.latency_p99_us").set(std::llround(agg.latency.percentile(99)));
  metrics::gauge("serve.sampled_queries").set(static_cast<std::int64_t>(agg.sampled));
  metrics::gauge("serve.slowlog_events").set(static_cast<std::int64_t>(agg.slowlog));
  metrics::gauge("serve.uptime_s").set(std::llround(agg.uptime_s));
  metrics::gauge("serve.log_level").set(static_cast<std::int64_t>(util::log_level()));

  latest_ = std::move(agg);
}

// -- admin surfaces -----------------------------------------------------------

std::optional<std::vector<std::string>> ServeIntrospection::chaos_txt_strings(
    const std::string& qname) {
  if (qname == "version.rdns" || qname == "version.bind") {
    return std::vector<std::string>{util::journal::version_string()};
  }
  if (qname == "loglevel.rdns") {
    return std::vector<std::string>{util::to_string(util::log_level())};
  }
  const bool want_stats = qname == "stats.rdns";
  const bool want_clients = qname == "top.clients.rdns";
  const bool want_qnames = qname == "top.qnames.rdns";
  if (!want_stats && !want_clients && !want_qnames) return std::nullopt;

  aggregate_now();
  const Aggregate agg = aggregate();
  std::vector<std::string> out;
  if (want_stats) {
    out.push_back("received=" + std::to_string(agg.totals.datagrams_received));
    out.push_back("answered=" + std::to_string(agg.totals.responses_sent));
    out.push_back("dropped=" + std::to_string(agg.totals.dropped_total()));
    out.push_back("rrl_dropped=" + std::to_string(agg.totals.rrl_dropped));
    out.push_back("shed=" + std::to_string(agg.totals.shed_errors + agg.totals.shed_answers));
    out.push_back("qps1s=" + format_double(agg.qps_1s));
    out.push_back("qps10s=" + format_double(agg.qps_10s));
    out.push_back("qps60s=" + format_double(agg.qps_60s));
    out.push_back("p50us=" + format_double(agg.latency.percentile(50)));
    out.push_back("p99us=" + format_double(agg.latency.percentile(99)));
    out.push_back("sampled=" + std::to_string(agg.sampled));
    out.push_back("slowlog=" + std::to_string(agg.slowlog));
    out.push_back("uptime_s=" + format_double(agg.uptime_s));
    return out;
  }
  const auto& entries = want_clients ? agg.top_clients : agg.top_qnames;
  for (const auto& e : entries) {
    out.push_back(e.key + "=" + std::to_string(e.count));
    if (out.size() >= 16) break;  // keep the reply inside a 512-byte datagram
  }
  if (out.empty()) out.emplace_back("empty");
  return out;
}

UdpServerLoop::WireHandler ServeIntrospection::wrap_chaos(UdpServerLoop::WireHandler inner) {
  return ChaosHandler{this, std::move(inner)};
}

std::optional<std::vector<std::uint8_t>> ServeIntrospection::ChaosHandler::operator()(
    std::span<const std::uint8_t> query) const {
  return (*this)(scan_query(query));
}

std::optional<std::vector<std::uint8_t>> ServeIntrospection::ChaosHandler::operator()(
    const QueryView& query) const {
  if (query.question != QueryView::Question::Clean ||
      query.qclass != static_cast<std::uint16_t>(RrClass::CH) ||
      query.qtype != static_cast<std::uint16_t>(RrType::TXT)) {
    return inner(query.wire);
  }
  metrics::counter("serve.chaos_queries").inc();
  Message parsed;
  try {
    parsed = decode(query.wire);
  } catch (const WireError&) {
    return inner(query.wire);
  }
  if (parsed.questions.size() != 1) return inner(query.wire);
  const auto strings = plane->chaos_txt_strings(lowercase_qname(query));
  Message response =
      make_response(parsed, strings.has_value() ? Rcode::NoError : Rcode::NxDomain);
  if (strings.has_value()) {
    ResourceRecord rr = make_txt(parsed.questions.front().qname, *strings, /*ttl=*/0);
    rr.klass = RrClass::CH;
    response.answers.push_back(std::move(rr));
  }
  return encode(response);
}

std::string ServeIntrospection::render_prometheus() {
  aggregate_now();
  const Aggregate agg = aggregate();
  std::ostringstream out;
  // Shared admin-plane prefix (registry + rdns_build_info), then the
  // serve-specific gauges.
  out << net::prometheus_registry_page("serve");

  out << "# TYPE rdns_serve_qps gauge\n";
  out << "rdns_serve_qps{window=\"1s\"} " << metrics::json_number(agg.qps_1s) << "\n";
  out << "rdns_serve_qps{window=\"10s\"} " << metrics::json_number(agg.qps_10s) << "\n";
  out << "rdns_serve_qps{window=\"60s\"} " << metrics::json_number(agg.qps_60s) << "\n";

  if (!agg.top_clients.empty()) {
    out << "# TYPE rdns_serve_top_client gauge\n";
    for (const auto& e : agg.top_clients) {
      out << "rdns_serve_top_client{client=\"" << metrics::prometheus_label_value(e.key)
          << "\"} " << e.count << "\n";
    }
  }
  if (!agg.top_qnames.empty()) {
    out << "# TYPE rdns_serve_top_qname gauge\n";
    for (const auto& e : agg.top_qnames) {
      out << "rdns_serve_top_qname{qname=\"" << metrics::prometheus_label_value(e.key) << "\"} "
          << e.count << "\n";
    }
  }
  return out.str();
}

namespace {

void append_top_entries(std::string& out, const std::vector<util::SpaceSaving::Entry>& entries) {
  out += '[';
  bool first = true;
  for (const auto& e : entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"key\":\"";
    metrics::append_json_escaped(out, e.key);
    out += "\",\"count\":" + std::to_string(e.count);
    out += ",\"error\":" + std::to_string(e.error) + "}";
  }
  out += ']';
}

}  // namespace

std::string ServeIntrospection::render_stats_json() {
  aggregate_now();
  const Aggregate agg = aggregate();
  std::string out = "{\"schema\":\"rdns.serve-stats.v1\"";
  out += ",\"uptime_s\":" + metrics::json_number(agg.uptime_s);
  out += ",\"workers\":" + std::to_string(workers());
  out += ",\"qps\":{\"1s\":" + metrics::json_number(agg.qps_1s);
  out += ",\"10s\":" + metrics::json_number(agg.qps_10s);
  out += ",\"60s\":" + metrics::json_number(agg.qps_60s) + "}";
  out += ",\"latency_us\":{\"p50\":" + metrics::json_number(agg.latency.percentile(50));
  out += ",\"p90\":" + metrics::json_number(agg.latency.percentile(90));
  out += ",\"p99\":" + metrics::json_number(agg.latency.percentile(99));
  out += ",\"count\":" + std::to_string(agg.latency.count) + "}";
  out += ",\"totals\":{\"received\":" + std::to_string(agg.totals.datagrams_received);
  out += ",\"answered\":" + std::to_string(agg.totals.responses_sent);
  out += ",\"dropped\":" + std::to_string(agg.totals.dropped_total());
  out += ",\"dropped_malformed\":" + std::to_string(agg.totals.dropped_malformed);
  out += ",\"dropped_timeout_fault\":" + std::to_string(agg.totals.dropped_timeout_fault);
  out += ",\"dropped_policy\":" + std::to_string(agg.totals.dropped_policy);
  out += ",\"truncated\":" + std::to_string(agg.totals.truncated_queries);
  out += ",\"send_failures\":" + std::to_string(agg.totals.send_failures);
  out += ",\"recv_batches\":" + std::to_string(agg.totals.recv_batches) + "}";
  out += ",\"guard\":{\"formerr_sent\":" + std::to_string(agg.totals.formerr_sent);
  out += ",\"notimp_sent\":" + std::to_string(agg.totals.notimp_sent);
  out += ",\"refused_sent\":" + std::to_string(agg.totals.refused_sent);
  out += ",\"rrl_dropped\":" + std::to_string(agg.totals.rrl_dropped);
  out += ",\"rrl_slipped\":" + std::to_string(agg.totals.rrl_slipped);
  out += ",\"shed_errors\":" + std::to_string(agg.totals.shed_errors);
  out += ",\"shed_answers\":" + std::to_string(agg.totals.shed_answers) + "}";
  out += ",\"cache\":{\"hits\":" + std::to_string(agg.totals.cache_hits);
  out += ",\"misses\":" + std::to_string(agg.totals.cache_misses);
  out += ",\"edns_queries\":" + std::to_string(agg.totals.edns_queries);
  out += ",\"tc_responses\":" + std::to_string(agg.totals.tc_responses) + "}";
  out += ",\"sampled\":" + std::to_string(agg.sampled);
  out += ",\"slowlog\":" + std::to_string(agg.slowlog);
  out += ",\"sample_every\":" + std::to_string(config_.sample_every);
  out += ",\"log_level\":\"";
  metrics::append_json_escaped(out, util::to_string(util::log_level()));
  out += "\",\"top_clients\":";
  append_top_entries(out, agg.top_clients);
  out += ",\"top_qnames\":";
  append_top_entries(out, agg.top_qnames);
  out += "}";
  return out;
}

void ServeIntrospection::install_http_routes(net::AdminHttpServer& http) {
  net::install_admin_routes(http, "rdns admin plane\nroutes: /metrics /stats.json\n",
                            [this] { return render_prometheus(); });
  http.route("/stats.json", [this](const std::string&) {
    return net::HttpResponse{200, "application/json", render_stats_json()};
  });
}

}  // namespace rdns::dns

#include "scan/progress.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "net/admin_http.hpp"
#include "util/ascii_chart.hpp"
#include "util/journal.hpp"
#include "util/mem.hpp"
#include "util/metrics.hpp"

namespace rdns::scan {

namespace {

namespace metrics = rdns::util::metrics;
namespace journal = rdns::util::journal;

/// ShardProbe::counts_ layout.
enum Word : std::size_t {
  kDone = 0,
  kRows,
  kQueries,
  kRetries,
  kDegraded,
  kReruns,
};

/// Gauges mirroring the latest aggregate into the metrics registry, so a
/// plain /metrics scrape (or the final snapshot) carries the live view.
struct ProgressGauges {
  metrics::Gauge& rows_per_s = metrics::gauge("sweep.progress_rows_per_s");
  metrics::Gauge& percent = metrics::gauge("sweep.progress_percent");
  metrics::Gauge& shards_done = metrics::gauge("sweep.progress_shards_done");
  metrics::Gauge& eta_s = metrics::gauge("sweep.progress_eta_s");
  metrics::Counter& torn_reads = metrics::counter("sweep.progress_torn_reads");
};

ProgressGauges& progress_gauges() {
  static ProgressGauges g;
  return g;
}

std::string format_status_line(const SweepProgressPlane::Snapshot& snap,
                               const std::string& spark) {
  char buf[256];
  std::string eta = "--";
  if (snap.eta_s >= 0) eta = std::to_string(static_cast<std::uint64_t>(snap.eta_s)) + "s";
  std::snprintf(buf, sizeof buf,
                "sweep %s %5.1f%% (%" PRIu64 "/%" PRIu64 " /24s) | %" PRIu64
                " rows | %.0f rows/s | retries %" PRIu64 " | degraded %" PRIu64 " | eta %s",
                snap.day.empty() ? "-" : snap.day.c_str(), snap.percent, snap.shards_done,
                snap.shards_total, snap.rows, snap.rows_per_s_1s, snap.retries, snap.degraded,
                eta.c_str());
  std::string line{buf};
  if (!spark.empty()) {
    line += " [";
    line += spark;
    line += "]";
  }
  return line;
}

}  // namespace

// -- ShardProbe ---------------------------------------------------------------

void SweepProgressPlane::ShardProbe::on_shard_finish(std::uint64_t rows, std::uint64_t queries,
                                                     std::uint64_t retries, bool degraded,
                                                     std::uint64_t reruns) noexcept {
  ++counts_[kDone];
  counts_[kRows] += rows;
  counts_[kQueries] += queries;
  counts_[kRetries] += retries;
  if (degraded) ++counts_[kDegraded];
  counts_[kReruns] += reruns;
  publish();
}

// -- SweepProgressPlane -------------------------------------------------------

SweepProgressPlane::SweepProgressPlane() : SweepProgressPlane(Options{}) {}

SweepProgressPlane::SweepProgressPlane(const Options& options)
    : options_(options),
      started_at_(std::chrono::steady_clock::now()),
      aggregator_([this] { aggregate_pass(); }, options.aggregate_interval_ms) {}

SweepProgressPlane::~SweepProgressPlane() { stop(); }

void SweepProgressPlane::start() {
  if (aggregator_.running()) return;
  started_at_ = std::chrono::steady_clock::now();
  aggregator_.start();
}

void SweepProgressPlane::stop() {
  if (!aggregator_.running()) return;
  aggregator_.stop();  // folds the final probe state
  if (options_.tty_status) {
    std::fputs("\n", stderr);
    std::fflush(stderr);
  }
}

void SweepProgressPlane::begin_pass(std::size_t shards_total, std::size_t skipped,
                                    std::string day, util::SimTime now) {
  const ShardProbe::Counts totals = fold_totals(nullptr);
  const auto hold = aggregator_.pause();
  pass_base_done_ = totals[kDone];
  pass_total_ = shards_total;
  pass_skipped_ = skipped;
  sim_now_ = now;
  day_ = std::move(day);
  pass_open_ = true;
}

void SweepProgressPlane::end_pass() {
  const auto hold = aggregator_.pause();
  pass_open_ = false;
}

SweepProgressPlane::ShardProbe* SweepProgressPlane::acquire_probe() {
  std::lock_guard<std::mutex> lock{probes_mu_};
  if (!free_.empty()) {
    ShardProbe* probe = free_.back();
    free_.pop_back();
    return probe;
  }
  probes_.push_back(std::make_unique<ShardProbe>());
  return probes_.back().get();
}

void SweepProgressPlane::release_probe(ShardProbe* probe) {
  if (probe == nullptr) return;
  probe->publish();
  std::lock_guard<std::mutex> lock{probes_mu_};
  free_.push_back(probe);
}

SweepProgressPlane::ShardProbe::Counts SweepProgressPlane::fold_totals(
    std::size_t* probe_count) const {
  ShardProbe::Counts totals{};
  std::lock_guard<std::mutex> lock{probes_mu_};
  if (probe_count != nullptr) *probe_count = probes_.size();
  for (const auto& probe : probes_) {
    ShardProbe::Counts words{};
    // A torn copy is used anyway: progress is advisory, and the next pass
    // (250 ms later) self-heals. Count it.
    if (!probe->slot_.read(words)) progress_gauges().torn_reads.inc();
    for (std::size_t w = 0; w < words.size(); ++w) totals[w] += words[w];
  }
  return totals;
}

void SweepProgressPlane::aggregate_pass() {
  Snapshot snap;
  const ShardProbe::Counts totals = fold_totals(&snap.probes);

  const std::uint64_t done_in_pass =
      totals[kDone] > pass_base_done_ ? totals[kDone] - pass_base_done_ : 0;
  snap.shards_total = pass_total_;
  snap.shards_done = std::min<std::uint64_t>(done_in_pass + pass_skipped_, snap.shards_total);
  snap.rows = totals[kRows];
  snap.queries = totals[kQueries];
  snap.retries = totals[kRetries];
  snap.degraded = totals[kDegraded];
  snap.reruns = totals[kReruns];
  snap.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                started_at_)
                      .count();
  snap.day = day_;

  rows_rate_.add_sample(snap.uptime_s, snap.rows);
  shards_rate_.add_sample(snap.uptime_s, totals[kDone]);
  snap.rows_per_s_1s = rows_rate_.rate(1.0);
  snap.rows_per_s_10s = rows_rate_.rate(10.0);
  snap.rows_per_s_60s = rows_rate_.rate(60.0);
  snap.shards_per_s_10s = shards_rate_.rate(10.0);
  if (snap.shards_total > 0) {
    snap.percent =
        100.0 * static_cast<double>(snap.shards_done) / static_cast<double>(snap.shards_total);
    if (snap.shards_per_s_10s > 0) {
      snap.eta_s = static_cast<double>(snap.shards_total - snap.shards_done) /
                   snap.shards_per_s_10s;
    }
  }
  util::mem::update_peak_rss_gauge();
  snap.peak_rss_bytes = util::mem::peak_rss_bytes();

  ProgressGauges& gauges = progress_gauges();
  gauges.rows_per_s.set(static_cast<std::int64_t>(snap.rows_per_s_1s));
  gauges.percent.set(static_cast<std::int64_t>(snap.percent));
  gauges.shards_done.set(static_cast<std::int64_t>(snap.shards_done));
  gauges.eta_s.set(static_cast<std::int64_t>(snap.eta_s > 0 ? snap.eta_s : 0));

  latest_ = snap;
  rate_history_.push_back(snap.rows_per_s_1s);
  while (rate_history_.size() > 64) rate_history_.pop_front();

  ++passes_;
  // Journal cadence: stamped with the open pass's frozen sim clock, and
  // only while a pass is open (after end_pass the world simulates on) and
  // a journal is armed — the default stream stays wall-time free and
  // deterministic.
  if (pass_open_ && options_.journal_every > 0 && passes_ % options_.journal_every == 0 &&
      snap.shards_total > 0) {
    if (auto* j = journal::active()) {
      journal::Event e{"sweep.progress", sim_now_};
      e.str("day", snap.day)
          .unum("shards_done", snap.shards_done)
          .unum("shards_total", snap.shards_total)
          .unum("rows", snap.rows)
          .unum("retries", snap.retries)
          .unum("degraded", snap.degraded)
          .real("rows_per_s", snap.rows_per_s_1s)
          .real("percent", snap.percent);
      j->emit(e);
    }
  }

  if (options_.tty_status) {
    // Rendered inline (the pass lock is held): calling render_status_line
    // here would self-deadlock.
    const std::string spark = util::render_sparkline(
        std::vector<double>(rate_history_.begin(), rate_history_.end()), 24);
    const std::string line = format_status_line(snap, spark);
    std::fprintf(stderr, "\r%s\x1b[K", line.c_str());
    std::fflush(stderr);
  }
}

SweepProgressPlane::Snapshot SweepProgressPlane::snapshot() const {
  const auto hold = aggregator_.pause();
  return latest_;
}

std::string SweepProgressPlane::render_progress_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"schema\":\"rdns.sweep-progress.v1\"";
  out += ",\"uptime_s\":" + metrics::json_number(snap.uptime_s);
  out += ",\"day\":\"";
  metrics::append_json_escaped(out, snap.day);
  out += "\",\"shards\":{\"done\":" + std::to_string(snap.shards_done);
  out += ",\"total\":" + std::to_string(snap.shards_total);
  out += ",\"degraded\":" + std::to_string(snap.degraded);
  out += ",\"reruns\":" + std::to_string(snap.reruns) + "}";
  // Shards are /24-aligned slices of the announced space, so "shards
  // done" is the "/24s completed" number operators think in.
  out += ",\"slash24_done\":" + std::to_string(snap.shards_done);
  out += ",\"rows\":" + std::to_string(snap.rows);
  out += ",\"queries\":" + std::to_string(snap.queries);
  out += ",\"retries\":" + std::to_string(snap.retries);
  out += ",\"rows_per_s\":{\"1s\":" + metrics::json_number(snap.rows_per_s_1s);
  out += ",\"10s\":" + metrics::json_number(snap.rows_per_s_10s);
  out += ",\"60s\":" + metrics::json_number(snap.rows_per_s_60s) + "}";
  out += ",\"percent\":" + metrics::json_number(snap.percent);
  out += ",\"eta_s\":" + metrics::json_number(snap.eta_s);
  out += ",\"peak_rss_bytes\":" + std::to_string(snap.peak_rss_bytes);
  out += ",\"probes\":" + std::to_string(snap.probes);
  out += "}";
  return out;
}

std::string SweepProgressPlane::render_status_line() const {
  const auto hold = aggregator_.pause();
  const std::string spark = util::render_sparkline(
      std::vector<double>(rate_history_.begin(), rate_history_.end()), 24);
  return format_status_line(latest_, spark);
}

std::string SweepProgressPlane::render_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out = net::prometheus_registry_page("sweep");
  out += "# TYPE rdns_sweep_rows_per_s gauge\n";
  out += "rdns_sweep_rows_per_s{window=\"1s\"} " + metrics::json_number(snap.rows_per_s_1s) + "\n";
  out += "rdns_sweep_rows_per_s{window=\"10s\"} " + metrics::json_number(snap.rows_per_s_10s) + "\n";
  out += "rdns_sweep_rows_per_s{window=\"60s\"} " + metrics::json_number(snap.rows_per_s_60s) + "\n";
  out += "# TYPE rdns_sweep_percent gauge\n";
  out += "rdns_sweep_percent " + metrics::json_number(snap.percent) + "\n";
  out += "# TYPE rdns_sweep_shards_done gauge\n";
  out += "rdns_sweep_shards_done " + std::to_string(snap.shards_done) + "\n";
  return out;
}

void SweepProgressPlane::install_http_routes(net::AdminHttpServer& http) {
  net::install_admin_routes(http, "rdns sweep progress plane\nroutes: /metrics /progress.json\n",
                            [this] { return render_prometheus(); });
  http.route("/progress.json", [this](const std::string&) {
    return net::HttpResponse{200, "application/json", render_progress_json()};
  });
}

}  // namespace rdns::scan

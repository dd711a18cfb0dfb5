#include "scan/rdns_snapshot.hpp"

#include <cstdio>
#include <mutex>

#include "net/ip_bitset.hpp"
#include "scan/progress.hpp"
#include "util/faults.hpp"
#include "util/flight.hpp"
#include "util/journal.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace rdns::scan {

namespace {

namespace metrics = rdns::util::metrics;

/// Sweep throughput accounting. Everything here is deterministic: rows and
/// shard/org partitions depend only on the world and the sweep schedule,
/// never on the thread count.
struct SweepMetrics {
  metrics::Counter& rows = metrics::counter("sweep.rows");
  metrics::Counter& sweeps = metrics::counter("sweep.sweeps");
  metrics::Counter& bulk_passes = metrics::counter("sweep.bulk_passes");
  metrics::Counter& wire_shards = metrics::counter("sweep.wire_shards");
  metrics::Counter& shard_reruns = metrics::counter("sweep.shard_reruns");
  metrics::Counter& degraded_shards = metrics::counter("sweep.degraded_shards");
  metrics::Counter& rrl_throttled = metrics::counter("sweep.rrl_throttled");
  metrics::Counter& refused = metrics::counter("sweep.refused");
  metrics::Histogram& org_rows = metrics::histogram(
      "sweep.org_rows", metrics::Histogram::exponential_bounds(16, 4, 10));
  metrics::Histogram& shard_rows = metrics::histogram(
      "sweep.shard_rows", metrics::Histogram::linear_bounds(32, 32, 8));
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

}  // namespace

void append_snapshot_row(std::string& out, std::string_view date_text, net::Ipv4Addr address,
                         std::string_view ptr_text) {
  out.append(date_text);  // "YYYY-MM-DD": never needs quoting
  out.push_back(',');
  char quad[16];
  const int quad_len = std::snprintf(quad, sizeof quad, "%u.%u.%u.%u", address.octet(0),
                                     address.octet(1), address.octet(2), address.octet(3));
  out.append(quad, static_cast<std::size_t>(quad_len));
  out.push_back(',');
  const std::size_t field_start = out.size();
  bool needs_quoting = false;
  for (char c : ptr_text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    needs_quoting |= (c == ',' || c == '"' || c == '\r' || c == '\n');
    out.push_back(c);
  }
  if (needs_quoting) {
    // Unreachable for valid hostnames; redo through csv_escape so the
    // bytes match util::CsvWriter exactly even for hostile inputs.
    const std::string field = out.substr(field_start);
    out.resize(field_start);
    out.append(util::csv_escape(field));
  }
  out.push_back('\n');
}

void CsvSnapshotSink::on_row(const util::CivilDate& date, net::Ipv4Addr address,
                             const dns::DnsName& ptr) {
  line_.clear();
  append_snapshot_row(line_, util::format_date(date), address, ptr.to_string());
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void CsvSnapshotSink::on_raw_rows(std::string_view bytes, std::uint64_t /*rows*/) {
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void CsvSnapshotSink::on_shard_degraded(const util::CivilDate& date, net::Ipv4Addr first,
                                        net::Ipv4Addr /*last*/) {
  line_.clear();
  append_snapshot_row(line_, util::format_date(date), first, kDegradedSentinel);
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

std::uint64_t sweep_bulk(const sim::World& world, const util::CivilDate& date,
                         SnapshotSink& sink, util::ThreadPool* pool_opt) {
  const auto span = util::trace::Tracer::global().scope("bulk_pass");
  util::ThreadPool& pool = pool_opt != nullptr ? *pool_opt : util::ThreadPool::global();
  SweepMetrics& sm = sweep_metrics();
  sm.bulk_passes.inc();

  const auto& orgs = world.orgs();
  std::uint64_t rows = 0;
  if (sink.wants_raw_rows()) {
    // Streaming path: workers render each org's rows straight to CSV bytes
    // (no DnsName or row-vector materialization — the 10M-device sweeps
    // would otherwise copy every hostname twice); the fold hands the
    // blocks to the sink in org order, so the byte stream is identical to
    // the per-row path below.
    struct OrgBlob {
      std::string bytes;
      std::uint64_t rows = 0;
    };
    const std::string date_text = util::format_date(date);
    util::map_reduce_chunks<OrgBlob>(
        pool, orgs.size(), /*chunk=*/1,
        [&](std::size_t ci, std::uint64_t, std::uint64_t) {
          OrgBlob out;
          orgs[ci]->for_each_ptr_text(
              [&](net::Ipv4Addr a, std::string_view target, std::uint32_t /*ttl*/) {
                append_snapshot_row(out.bytes, date_text, a, target);
                ++out.rows;
              });
          return out;
        },
        [&](std::size_t ci, OrgBlob&& blob) {
          sm.org_rows.observe(static_cast<double>(blob.rows));
          sink.on_raw_rows(blob.bytes, blob.rows);
          rows += blob.rows;
          if (auto* j = util::journal::active()) {
            util::journal::Event e{"sweep.org", world.now()};
            e.str("org", orgs[ci]->name()).unum("rows", blob.rows);
            j->emit(e);
          }
        });
    sm.rows.inc(rows);
    if (auto* j = util::journal::active()) {
      util::journal::Event e{"sweep.pass", world.now()};
      e.str("date", util::format_date(date)).unum("rows", rows);
      j->emit(e);
    }
    sink.on_sweep_end(date);
    return rows;
  }
  using Rows = std::vector<std::pair<net::Ipv4Addr, dns::DnsName>>;
  // One chunk per org: for_each_ptr only reads zone state, so orgs snapshot
  // concurrently; the fold visits them in org order — the serial iteration
  // order of World::snapshot_ptrs — keeping the byte stream identical.
  util::map_reduce_chunks<Rows>(
      pool, orgs.size(), /*chunk=*/1,
      [&](std::size_t ci, std::uint64_t, std::uint64_t) {
        Rows out;
        orgs[ci]->for_each_ptr(
            [&](net::Ipv4Addr a, const dns::DnsName& ptr) { out.emplace_back(a, ptr); });
        return out;
      },
      [&](std::size_t ci, Rows&& org_rows) {
        sm.org_rows.observe(static_cast<double>(org_rows.size()));
        for (auto& [a, ptr] : org_rows) {
          sink.on_row(date, a, ptr);
          ++rows;
        }
        // The fold runs on the calling thread in org order, so these events
        // land in the same order at any thread count.
        if (auto* j = util::journal::active()) {
          util::journal::Event e{"sweep.org", world.now()};
          e.str("org", orgs[ci]->name()).unum("rows", org_rows.size());
          j->emit(e);
        }
      });
  sm.rows.inc(rows);
  if (auto* j = util::journal::active()) {
    util::journal::Event e{"sweep.pass", world.now()};
    e.str("date", util::format_date(date)).unum("rows", rows);
    j->emit(e);
  }
  sink.on_sweep_end(date);
  return rows;
}

std::vector<SweepShard> shard_address_space(const std::vector<net::Prefix>& prefixes) {
  std::vector<SweepShard> shards;
  for (const auto& prefix : prefixes) {
    const std::uint64_t first = prefix.first().value();
    const std::uint64_t last = prefix.last().value();
    for (std::uint64_t base = first; base <= last;) {
      // Advance to the end of the covering /24 (or the prefix, whichever
      // comes first) so shards never straddle a /24 boundary.
      const std::uint64_t slash24_end = (base | 0xFFULL);
      SweepShard shard;
      shard.first = static_cast<std::uint32_t>(base);
      shard.last = static_cast<std::uint32_t>(std::min(last, slash24_end));
      shards.push_back(shard);
      base = static_cast<std::uint64_t>(shard.last) + 1;
    }
  }
  return shards;
}

std::uint64_t sweep_wire(sim::World& world, const util::CivilDate& date, SnapshotSink& sink,
                         dns::ResolverStats* stats_out, util::ThreadPool* pool_opt,
                         const WireSweepOptions& options) {
  const auto span = util::trace::Tracer::global().scope("wire_sweep");
  util::ThreadPool& pool = pool_opt != nullptr ? *pool_opt : util::ThreadPool::global();
  SweepMetrics& sm = sweep_metrics();
  const auto shards = shard_address_space(world.announced_prefixes());
  sm.wire_shards.inc(shards.size());

  // Per-shard result rows, funnelled through a bounded reorder buffer so
  // the sink observes them in shard order — byte-identical to the serial
  // walk — while workers run ahead by at most `capacity` shards.
  struct ShardRows {
    std::vector<std::pair<net::Ipv4Addr, dns::DnsName>> rows;
    /// Raw-sink path: rows pre-rendered to CSV bytes in the worker
    /// (append_snapshot_row); `rows` stays empty and row_count counts.
    std::string bytes;
    std::uint64_t row_count = 0;
    /// Pre-rendered journal events for this shard (empty when disabled).
    /// Workers render into a per-shard buffer; the merge consumer appends
    /// them in shard order, so the journal stream is thread-invariant.
    std::string journal_lines;
    /// Both attempts exhausted the retry budget: no rows, one sentinel.
    bool degraded = false;
    /// Already emitted by a checkpointed predecessor run (resume path).
    bool skipped = false;
  };
  // Captured once: toggling the journal mid-sweep must not tear the stream.
  util::journal::Journal* const jrn = util::journal::active();
  const bool raw = sink.wants_raw_rows();
  const std::string date_text = util::format_date(date);
  std::uint64_t rows_emitted = 0;
  std::size_t shards_done = 0;
  util::OrderedMergeBuffer<ShardRows> merge{
      /*capacity=*/std::size_t{8} * pool.size(),
      [&](std::size_t seq, ShardRows&& shard_rows) {
        if (shard_rows.degraded) {
          sink.on_shard_degraded(date, net::Ipv4Addr{shards[seq].first},
                                 net::Ipv4Addr{shards[seq].last});
        } else if (raw) {
          sink.on_raw_rows(shard_rows.bytes, shard_rows.row_count);
          rows_emitted += shard_rows.row_count;
        } else {
          for (auto& [address, ptr] : shard_rows.rows) {
            sink.on_row(date, address, ptr);
            ++rows_emitted;
          }
        }
        if (jrn != nullptr && !shard_rows.journal_lines.empty()) {
          jrn->append_raw(shard_rows.journal_lines);
        }
        ++shards_done;
        if (options.on_shard_done && !shard_rows.skipped) {
          options.on_shard_done(shards_done, shards.size(), rows_emitted);
        }
      }};

  // Retry/timeout counters and per-org server stats accumulate per shard
  // and fold under a mutex; every field is a sum, so the totals are
  // independent of merge order (and therefore of the thread count).
  dns::ResolverStats resolver_totals;
  std::vector<dns::ServerStats> server_totals(world.orgs().size());
  std::mutex stats_mutex;
  const util::SimTime now = world.now();
  const sim::World& frozen = world;

  // Shard retry budget from the armed chaos profile (0 = unlimited, the
  // fault-free fast path: one attempt, no budget accounting).
  const util::faults::Injector* const inj = util::faults::active();
  const std::uint64_t budget = inj != nullptr ? inj->profile().shard_retry_budget : 0;
  const int max_attempts = budget > 0 ? 2 : 1;

  if (options.progress != nullptr) {
    options.progress->begin_pass(shards.size(), options.skip_shards, date_text, now);
  }

  pool.parallel_for_chunks(
      shards.size(), /*chunk=*/1,
      [&](std::size_t shard_index, std::uint64_t /*begin*/, std::uint64_t /*end*/) {
        if (shard_index < options.skip_shards) {
          ShardRows done;
          done.skipped = true;
          merge.put(shard_index, std::move(done));
          return;
        }
        ShardRows out;
        const ProgressProbeLease lease{options.progress};
        try {
          const SweepShard& shard = shards[shard_index];
          util::flight::record(util::flight::Kind::ShardStart, shard.first, shard_index);
          if (lease.probe() != nullptr) lease.probe()->on_shard_start();
          // Transport per shard: the in-process frozen view by default, or
          // a caller-supplied socket transport (UDP sweeps). Only the
          // in-process view carries per-org server stats to fold back.
          std::unique_ptr<dns::Transport> owned_transport;
          sim::FrozenDnsView* view = nullptr;
          if (options.make_transport) {
            owned_transport = options.make_transport();
          } else {
            auto frozen_view = std::make_unique<sim::FrozenDnsView>(frozen);
            view = frozen_view.get();
            owned_transport = std::move(frozen_view);
          }
          dns::Transport& transport = *owned_transport;
          dns::ResolverStats shard_stats;
          util::journal::Buffer buf;
          bool exhausted = false;
          std::uint64_t reruns = 0;
          for (int attempt = 0; attempt < max_attempts; ++attempt) {
            out.rows.clear();
            out.bytes.clear();
            out.row_count = 0;
            // One resolver per shard attempt, transaction ids seeded by the
            // shard index (re-run attempts perturb the seed so their query
            // stream differs): the stream of shard k / attempt a is the
            // same no matter which worker runs it.
            const std::uint64_t id_seed =
                0x1D5EEDULL ^ util::mix64(shard_index + 1) ^
                (attempt == 0 ? 0ULL
                              : util::mix64(0xFA117EDULL + static_cast<std::uint64_t>(attempt)));
            dns::StubResolver resolver{transport, /*retries=*/1, id_seed};
            if (budget > 0) {
              dns::RetryPolicy policy;
              policy.retry_budget = budget;
              resolver.set_retry_policy(policy);
            }
            if (jrn != nullptr) resolver.set_retry_journal(&buf);
            for (std::uint64_t v = shard.first; v <= shard.last; ++v) {
              const net::Ipv4Addr a{static_cast<std::uint32_t>(v)};
              const auto result = resolver.lookup_ptr(a, now);
              if (result.status == dns::LookupStatus::Ok && result.ptr) {
                if (raw) {
                  append_snapshot_row(out.bytes, date_text, a, result.ptr->to_string());
                } else {
                  out.rows.emplace_back(a, *result.ptr);
                }
                ++out.row_count;
              }
            }
            shard_stats += resolver.stats();
            exhausted = resolver.budget_exhausted();
            if (jrn != nullptr) {
              const dns::ResolverStats& rs = resolver.stats();
              util::journal::Event e{"sweep.shard", now};
              e.str("first", net::Ipv4Addr{shard.first}.to_string())
                  .str("last", net::Ipv4Addr{shard.last}.to_string())
                  .unum("rows", out.row_count)
                  .unum("ok", rs.ok)
                  .unum("nxdomain", rs.nxdomain)
                  .unum("servfail", rs.servfail)
                  .unum("timeout", rs.timeout);
              if (max_attempts > 1) {
                e.unum("attempt", static_cast<std::uint64_t>(attempt))
                    .boolean("exhausted", exhausted);
              }
              buf.emit(e);
            }
            if (!exhausted) break;
            if (attempt + 1 < max_attempts) {
              sm.shard_reruns.inc();
              ++reruns;
            }
          }
          if (exhausted) {
            // Graceful degradation: both attempts burned their budget, so
            // the shard's rows are untrustworthy — drop them, record the
            // gap. The sweep keeps going.
            out.rows.clear();
            out.bytes.clear();
            out.row_count = 0;
            out.degraded = true;
            sm.degraded_shards.inc();
            if (jrn != nullptr) {
              util::journal::Event e{"sweep.shard_degraded", now};
              e.str("first", net::Ipv4Addr{shard.first}.to_string())
                  .str("last", net::Ipv4Addr{shard.last}.to_string());
              buf.emit(e);
            }
          }
          if (out.degraded) {
            util::flight::record(util::flight::Kind::ShardDegrade, shard.first, shard_index);
          } else {
            util::flight::record(util::flight::Kind::ShardFinish, out.row_count, shard_index);
          }
          if (lease.probe() != nullptr) {
            lease.probe()->on_shard_finish(out.row_count, shard_stats.queries_sent,
                                           shard_stats.retries, out.degraded, reruns);
          }
          sm.shard_rows.observe(static_cast<double>(out.row_count));
          if (jrn != nullptr) out.journal_lines = buf.take();
          std::lock_guard lock{stats_mutex};
          resolver_totals += shard_stats;
          if (view != nullptr) view->merge_into(server_totals);
        } catch (...) {
          // The merge cursor must advance even for a failed shard, or
          // producers behind it would block forever.
          merge.put(shard_index, ShardRows{});
          throw;
        }
        merge.put(shard_index, std::move(out));
      });
  if (options.progress != nullptr) options.progress->end_pass();

  world.merge_server_stats(server_totals);
  if (stats_out != nullptr) *stats_out = resolver_totals;
  sm.rows.inc(rows_emitted);
  // Server-side defense signals folded from the per-shard resolvers: TC
  // slips (RRL throttling) and REFUSED outcomes from a defended target.
  if (resolver_totals.rrl_throttled > 0) sm.rrl_throttled.inc(resolver_totals.rrl_throttled);
  if (resolver_totals.refused > 0) sm.refused.inc(resolver_totals.refused);
  if (jrn != nullptr) {
    util::journal::Event e{"sweep.pass", now};
    e.str("date", util::format_date(date)).unum("rows", rows_emitted);
    jrn->emit(e);
  }
  sink.on_sweep_end(date);
  return rows_emitted;
}

SweepDriver::SweepDriver(sim::World& world, int hour_of_day, int every_days, int second_hour)
    : world_(&world),
      hour_of_day_(hour_of_day),
      every_days_(every_days),
      second_hour_(second_hour) {}

namespace {

/// De-duplicates by address within one sweep (union-of-instants mode) and
/// defers on_sweep_end to the driver. Announced space is dense, so the
/// seen-set is a per-/16 bitmap (net::Ipv4Bitset) — one bit per address
/// instead of a hash-set node; see bench_micro_components for the
/// serial-path win.
class UnionPass final : public SnapshotSink {
 public:
  UnionPass(SnapshotSink& inner) : inner_(&inner) {}

  void on_row(const util::CivilDate& date, net::Ipv4Addr address,
              const dns::DnsName& ptr) override {
    if (!seen_.insert(address)) return;
    inner_->on_row(date, address, ptr);
    ++rows_;
  }

  void finish(const util::CivilDate& date) {
    inner_->on_sweep_end(date);
    seen_.clear();
  }

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

 private:
  SnapshotSink* inner_;
  net::Ipv4Bitset seen_;
  std::uint64_t rows_ = 0;
};

/// A sink wrapper suppressing on_sweep_end from the inner bulk passes.
class NoEndSink final : public SnapshotSink {
 public:
  explicit NoEndSink(SnapshotSink& inner) : inner_(&inner) {}
  void on_row(const util::CivilDate& date, net::Ipv4Addr address,
              const dns::DnsName& ptr) override {
    inner_->on_row(date, address, ptr);
  }

 private:
  SnapshotSink* inner_;
};

}  // namespace

SweepStats SweepDriver::run(const util::CivilDate& from, const util::CivilDate& to,
                            SnapshotSink& sink) {
  SweepStats stats;
  for (util::CivilDate date = from; !(to < date); date = util::add_days(date, every_days_)) {
    const auto day_span = util::trace::Tracer::global().scope("day");
    const util::SimTime at = util::to_sim_time(date) + hour_of_day_ * util::kHour;
    if (at < world_->now()) continue;  // never rewind the clock
    world_->run_until(at);
    if (second_hour_ < 0) {
      stats.total_rows += sweep_bulk(*world_, date, sink);
    } else {
      UnionPass unioned{sink};
      NoEndSink pass{unioned};
      const std::uint64_t before = unioned.rows();
      (void)sweep_bulk(*world_, date, pass);
      world_->run_until(util::to_sim_time(date) + second_hour_ * util::kHour);
      (void)sweep_bulk(*world_, date, pass);
      unioned.finish(date);
      stats.total_rows += unioned.rows() - before;
    }
    ++stats.sweeps;
    sweep_metrics().sweeps.inc();
  }
  return stats;
}

}  // namespace rdns::scan

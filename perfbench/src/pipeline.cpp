/// \file pipeline.cpp
/// The `pipeline` workload: the call sequence of `rdns_tool sweep` and then
/// `rdns_tool analyze` at their defaults, in process, with the thread pool
/// at its default size (RDNS_THREADS unset: one thread per core).
///
/// Untraced iterations call exactly what the tool calls (SweepDriver::run
/// into a CsvSnapshotSink, then replay_csv into DynamicityDetector +
/// PtrCorpus and the §4/§5 analyses). The traced iteration drives the same
/// day loop itself through World::run_until and scan::sweep_bulk, so each
/// call can carry a span, and checks that its CSV and report are byte-
/// identical to the untraced ones.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/classify.hpp"
#include "core/cooccur.hpp"
#include "core/dynamicity.hpp"
#include "core/names.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "net/ip_bitset.hpp"
#include "scan/csv_replay.hpp"
#include "scan/rdns_snapshot.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace {

using namespace rdns;

constexpr int kSweepHour = 14;   // cmd_sweep: SweepDriver{world, 14, 1, 21}
constexpr int kSecondHour = 21;

struct Config {
  std::uint64_t seed = 42;
  int orgs = 24;
  double scale = 0.4;
  util::CivilDate from{2021, 1, 2};
  util::CivilDate to{2021, 2, 6};
};

std::unique_ptr<sim::World> build_world(const Config& cfg) {
  core::WorldScale scale;
  scale.population = cfg.scale;
  auto world = core::make_internet_world(cfg.seed, cfg.orgs, scale);
  world->start(util::add_days(cfg.from, -1), util::add_days(cfg.to, 1));
  return world;
}

std::uint64_t sweep_days(const Config& cfg) {
  std::uint64_t days = 0;
  for (util::CivilDate d = cfg.from; !(cfg.to < d); d = util::add_days(d, 1)) ++days;
  return days;
}

/// cmd_analyze's fan-out of replayed rows to the detector and the corpus.
struct Tee final : scan::SnapshotSink {
  std::vector<scan::SnapshotSink*> sinks;
  void on_row(const util::CivilDate& d, net::Ipv4Addr a, const dns::DnsName& n) override {
    for (auto* s : sinks) s->on_row(d, a, n);
  }
  void on_sweep_end(const util::CivilDate& d) override {
    for (auto* s : sinks) s->on_sweep_end(d);
  }
};

/// Runs one named analysis step (the traced run wraps each in a span).
using StepFn = std::function<void(const char* name, const std::function<void()>& body)>;

void run_step(const char*, const std::function<void()>& body) { body(); }

/// cmd_analyze's steps after the replay, at its default thresholds.
void analyses(core::PipelineReport& report, core::DynamicityDetector& detector,
              core::PtrCorpus& corpus, const StepFn& step) {
  step("core.dynamicity", [&] {
    core::DynamicityConfig dyn;
    dyn.min_days_over = 5;
    report.dynamicity = detector.analyze(dyn);
  });
  core::PtrCorpus dynamic_corpus;
  step("core.leaks", [&] {
    dynamic_corpus.restrict_to(report.dynamicity.dynamic_blocks());
    for (const auto& [hostname, entry] : corpus.entries()) dynamic_corpus.add_entry(entry);
    core::LeakConfig leak;
    leak.min_unique_names = 20;
    leak.min_ratio = 0.1;
    report.leaks = core::identify_leaking_networks(dynamic_corpus, leak);
    report.types = core::classify_all(report.leaks.identified);
  });
  step("core.cooccur", [&] {
    report.cooccurrence = core::count_device_terms(dynamic_corpus, report.leaks.identified);
  });
  step("core.names", [&] { report.leaks.matches_per_name = core::count_name_matches(corpus); });
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  out << text;
  out.close();
  return static_cast<bool>(out);
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa{a, std::ios::binary};
  std::ifstream fb{b, std::ios::binary};
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20), bb(1 << 20);
  for (;;) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (!std::equal(ba.begin(), ba.begin() + fa.gcount(), bb.begin())) return false;
    if (fa.gcount() == 0) return true;
  }
}

/// Identification ground truth: an identified suffix is correct when it is
/// the suffix of an org whose DHCP segments all carry client names over
/// into PTRs (dhcp::DdnsPolicy::CarryOverClientId).
std::size_t count_carry_over(const sim::World& world, const std::vector<std::string>& suffixes) {
  std::size_t hits = 0;
  for (const auto& suffix : suffixes) {
    for (const auto& org : world.orgs()) {
      std::string name = org->spec().suffix.to_string();
      if (!name.empty() && name.back() == '.') name.pop_back();
      if (util::to_lower(name) != util::to_lower(suffix)) continue;
      const auto& segments = org->spec().segments;
      const bool carry = !segments.empty() &&
                         std::all_of(segments.begin(), segments.end(), [](const auto& s) {
                           return s.ddns_policy == dhcp::DdnsPolicy::CarryOverClientId;
                         });
      if (carry) ++hits;
      break;
    }
  }
  return hits;
}

/// One `rdns_tool analyze` at its defaults: replay the CSV into the
/// detector and the corpus, run the analyses, write the report.
struct Analysis {
  core::PipelineReport report;
  scan::ReplayStats replay;
  std::string markdown;
  bool written = false;
  double seconds = 0;
  double cpu_seconds = 0;  ///< process CPU, every thread
};

Analysis analyze_csv(const std::string& csv, const std::string& report_md) {
  Analysis a;
  const std::int64_t t0 = mono_ns();
  const std::int64_t c0 = process_cpu_ns();
  {
    std::ifstream in{csv};
    core::DynamicityDetector detector;
    core::PtrCorpus corpus;
    Tee tee;
    tee.sinks = {&detector, &corpus};
    a.replay = scan::replay_csv(in, tee);
    a.report.sweep_rows = a.replay.rows;
    a.report.sweeps = a.replay.sweeps;
    analyses(a.report, detector, corpus, run_step);
    a.markdown = core::render_markdown_report(a.report);
    a.written = write_file(report_md, a.markdown);
  }
  a.seconds = static_cast<double>(mono_ns() - t0) / 1e9;
  a.cpu_seconds = static_cast<double>(process_cpu_ns() - c0) / 1e9;
  return a;
}

struct Iteration {
  double setup_s = 0;
  double sweep_s = 0;
  double sweep_cpu_s = 0;
  std::vector<double> analyze_s;
  std::vector<double> analyze_cpu_s;
  std::uint64_t sweeps = 0;
  std::uint64_t rows = 0;
  std::size_t identified = 0;
  std::size_t identified_true = 0;
  bool correct = false;
  std::string why;
};

/// One untraced sweep, then the analysis twice over its CSV: exactly the
/// tool's public call sequences. The analysis is the most memory-bound step,
/// so it gets two samples per sweep.
Iteration run_iteration(const Config& cfg, const std::string& csv, const std::string& report_md) {
  Iteration it;
  const std::int64_t t0 = mono_ns();
  auto world = build_world(cfg);
  const std::int64_t t1 = mono_ns();
  it.setup_s = static_cast<double>(t1 - t0) / 1e9;

  const std::int64_t c1 = process_cpu_ns();
  scan::SweepStats stats;
  {
    std::ofstream out{csv};
    scan::CsvSnapshotSink sink{out};
    scan::SweepDriver driver{*world, kSweepHour, 1, kSecondHour};
    stats = driver.run(cfg.from, cfg.to, sink);
    out.close();
    if (!out) it.why = "CSV write failed";
  }
  const std::int64_t t2 = mono_ns();
  it.sweep_s = static_cast<double>(t2 - t1) / 1e9;
  it.sweep_cpu_s = static_cast<double>(process_cpu_ns() - c1) / 1e9;

  const Analysis first = analyze_csv(csv, report_md);
  const Analysis second = analyze_csv(csv, report_md);
  it.analyze_s = {first.seconds, second.seconds};
  it.analyze_cpu_s = {first.cpu_seconds, second.cpu_seconds};
  const core::PipelineReport& report = first.report;
  const scan::ReplayStats& replay = first.replay;
  if (!first.written || !second.written) it.why = "report write failed";
  if (it.why.empty() && first.markdown != second.markdown) it.why = "repeated analysis differs";

  it.sweeps = stats.sweeps;
  it.rows = stats.total_rows;
  it.identified = report.leaks.identified.size();
  it.identified_true = count_carry_over(*world, report.leaks.identified);
  if (it.why.empty()) {
    if (stats.sweeps != sweep_days(cfg)) {
      it.why = "sweep count " + std::to_string(stats.sweeps);
    } else if (stats.total_rows == 0) {
      it.why = "no rows swept";
    } else if (replay.rows != stats.total_rows || replay.sweeps != stats.sweeps ||
               replay.skipped != 0) {
      it.why = "replay disagrees with the sweep";
    } else if (it.identified == 0) {
      it.why = "no network identified";
    } else if (it.identified_true != it.identified) {
      it.why = "identified a network that is not a carry-over org";
    }
  }
  it.correct = it.why.empty();
  return it;
}

// ---------------------------------------------------------------- traced --

/// In-memory span log: name, parent, wall start/end and process CPU.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t cpu_ns = 0;
  };

  int open(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, mono_ns(), 0, process_cpu_ns()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = mono_ns();
    spans_[static_cast<std::size_t>(id)].cpu_ns =
        process_cpu_ns() - spans_[static_cast<std::size_t>(id)].cpu_ns;
  }
  /// A span measured elsewhere (per-row accumulations), attached to a parent.
  void add(std::string name, int parent, std::int64_t total_ns) {
    spans_.push_back(Span{std::move(name), parent, 0, total_ns, 0});
  }

  [[nodiscard]] double total_s(const std::string& name) const {
    std::int64_t ns = 0;
    for (const auto& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }
  [[nodiscard]] double cpu_s(const std::string& name) const {
    std::int64_t ns = 0;
    for (const auto& s : spans_) {
      if (s.name == name) ns += s.cpu_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }
  /// Wall time attributed to layer spans: spans whose parent is a phase
  /// (sweep, analyze) or a day of the sweep. Day spans only group their
  /// children, so they count through them, not themselves.
  [[nodiscard]] double attributed_s() const {
    std::int64_t ns = 0;
    for (const auto& s : spans_) {
      if (s.parent < 0 || s.name == "day") continue;
      const std::string& parent = spans_[static_cast<std::size_t>(s.parent)].name;
      if (parent == "sweep" || parent == "analyze" || parent == "day") ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }

  bool write_json(const std::string& path) const {
    std::ofstream out{path};
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"cpu_ns\": " << s.cpu_ns << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// The two-instant union of SweepDriver (which keeps its own sink file-
/// local): first sighting of an address within a sweep day wins, the
/// inner sink sees one on_sweep_end per day. Times every write into the
/// CSV sink.
class TimedUnionSink final : public scan::SnapshotSink {
 public:
  explicit TimedUnionSink(scan::SnapshotSink& inner) : inner_(&inner) {}
  void on_row(const util::CivilDate& date, net::Ipv4Addr address,
              const dns::DnsName& ptr) override {
    if (!seen_.insert(address)) return;
    const std::int64_t t0 = mono_ns();
    inner_->on_row(date, address, ptr);
    write_ns += mono_ns() - t0;
    ++rows;
  }
  void on_sweep_end(const util::CivilDate&) override {}  // the day loop calls finish()
  void finish(const util::CivilDate& date) {
    const std::int64_t t0 = mono_ns();
    inner_->on_sweep_end(date);
    write_ns += mono_ns() - t0;
    seen_.clear();
  }
  std::int64_t write_ns = 0;
  std::uint64_t rows = 0;

 private:
  scan::SnapshotSink* inner_;
  net::Ipv4Bitset seen_;
};

/// cmd_analyze's Tee with the time spent inside the core sinks measured.
struct TimedTee final : scan::SnapshotSink {
  Tee tee;
  std::int64_t ingest_ns = 0;
  void on_row(const util::CivilDate& d, net::Ipv4Addr a, const dns::DnsName& n) override {
    const std::int64_t t0 = mono_ns();
    tee.on_row(d, a, n);
    ingest_ns += mono_ns() - t0;
  }
  void on_sweep_end(const util::CivilDate& d) override {
    const std::int64_t t0 = mono_ns();
    tee.on_sweep_end(d);
    ingest_ns += mono_ns() - t0;
  }
};

struct Traced {
  JsonLine layers;
  bool correct = false;
  std::string why;
};

Traced run_traced(const Config& cfg, const std::string& work, const std::string& reference_csv,
                  const std::string& reference_report, double untraced_sweep_analyze_s) {
  namespace metrics = util::metrics;
  Traced result;
  SpanLog log;
  metrics::Registry::global().reset_values();
  metrics::set_collect_timing(true);

  const int setup = log.open("sim.build", -1);
  auto world = build_world(cfg);
  log.close(setup);

  const std::string csv = work + "/traced.csv";
  const std::string report_md = work + "/traced_report.md";
  const int sweep = log.open("sweep", -1);
  std::uint64_t rows = 0;
  {
    std::ofstream out{csv};
    scan::CsvSnapshotSink sink{out};
    TimedUnionSink unioned{sink};
    for (util::CivilDate date = cfg.from; !(cfg.to < date); date = util::add_days(date, 1)) {
      const int day = log.open("day", sweep);
      const util::SimTime at = util::to_sim_time(date) + kSweepHour * util::kHour;
      if (at < world->now()) {
        log.close(day);
        continue;
      }
      for (const int hour : {kSweepHour, kSecondHour}) {
        const int run = log.open("sim.run_until", day);
        world->run_until(util::to_sim_time(date) + hour * util::kHour);
        log.close(run);
        const int bulk = log.open("scan.sweep_bulk", day);
        const std::int64_t before = unioned.write_ns;
        (void)scan::sweep_bulk(*world, date, unioned);
        log.add("scan.csv_write", bulk, unioned.write_ns - before);
        log.close(bulk);
      }
      const int fin = log.open("scan.csv_write", day);
      unioned.finish(date);
      log.close(fin);
      log.close(day);
    }
    const int close = log.open("scan.csv_write", sweep);
    out.close();
    log.close(close);
    rows = unioned.rows;
  }
  log.close(sweep);

  const int analyze = log.open("analyze", -1);
  core::PipelineReport report;
  {
    core::DynamicityDetector detector;
    core::PtrCorpus corpus;
    TimedTee timed;
    timed.tee.sinks = {&detector, &corpus};
    const int replay_span = log.open("scan.replay", analyze);
    std::ifstream in{csv};
    const scan::ReplayStats replay = scan::replay_csv(in, timed);
    log.add("core.ingest", replay_span, timed.ingest_ns);
    log.close(replay_span);
    report.sweep_rows = replay.rows;
    report.sweeps = replay.sweeps;
    analyses(report, detector, corpus, [&](const char* name, const std::function<void()>& body) {
      const int span = log.open(name, analyze);
      body();
      log.close(span);
    });
    const int render = log.open("core.report", analyze);
    if (!write_file(report_md, core::render_markdown_report(report))) result.why = "report";
    log.close(render);
  }
  log.close(analyze);
  metrics::set_collect_timing(false);

  const double sweep_s = log.total_s("sweep");
  const double analyze_s = log.total_s("analyze");
  const double covered = log.attributed_s();
  const double run_until_s = log.total_s("sim.run_until");
  const double bulk_s = log.total_s("scan.sweep_bulk");
  const auto events = static_cast<double>(world->queue().executed());

  std::uint64_t acks = 0, releases = 0, expirations = 0, added = 0, removed = 0;
  for (const auto& org : world->orgs()) {
    for (const auto& seg : org->segments()) {
      acks += seg.dhcp->stats().acks;
      releases += seg.dhcp->stats().releases;
      expirations += seg.dhcp->stats().expirations;
      added += seg.bridge->stats().ptr_added;
      removed += seg.bridge->stats().ptr_removed;
    }
  }

  auto& registry = metrics::Registry::global();
  const double busy_s = static_cast<double>(registry.counter("thread_pool.busy_ns").value()) / 1e9;
  const auto& wait = registry.histogram("thread_pool.queue_wait_us",
                                        metrics::Histogram::exponential_bounds(1, 4, 12));
  const auto& par = registry.histogram("thread_pool.region_parallelism_x100",
                                       metrics::Histogram::exponential_bounds(25, 2, 12));
  const double parallelism =
      par.count() > 0 ? par.sum() / static_cast<double>(par.count()) / 100.0 : 0.0;

  const std::size_t identified = report.leaks.identified.size();
  const std::size_t identified_true = count_carry_over(*world, report.leaks.identified);
  const auto csv_bytes = static_cast<double>(std::filesystem::file_size(csv));

  result.layers.num("sim.build_s", log.total_s("sim.build"))
      .num("sim.run_until_s", run_until_s)
      .num("sim.run_until_cpu_s", log.cpu_s("sim.run_until"))
      .num("sim.events", events)
      .num("sim.events_per_s", run_until_s > 0 ? events / run_until_s : 0)
      .num("sim.joins", static_cast<double>(world->stats().joins))
      .num("sim.leaves", static_cast<double>(world->stats().leaves))
      .num("sim.renewals", static_cast<double>(world->stats().renewals))
      .num("dhcp.acks", static_cast<double>(acks))
      .num("dhcp.releases", static_cast<double>(releases))
      .num("dhcp.expirations", static_cast<double>(expirations))
      .num("dhcp.ddns.ptr_added", static_cast<double>(added))
      .num("dhcp.ddns.ptr_removed", static_cast<double>(removed))
      .num("scan.sweep_bulk_s", bulk_s)
      .num("scan.sweep_bulk_cpu_s", log.cpu_s("scan.sweep_bulk"))
      .num("scan.rows", static_cast<double>(rows))
      .num("scan.rows_per_s", bulk_s > 0 ? static_cast<double>(rows) / bulk_s : 0)
      .num("scan.csv_write_s", log.total_s("scan.csv_write"))
      .num("scan.csv_bytes", csv_bytes)
      .num("scan.replay_s", log.total_s("scan.replay"))
      .num("core.ingest_s", log.total_s("core.ingest"))
      .num("core.dynamicity_s", log.total_s("core.dynamicity"))
      .num("core.leaks_s", log.total_s("core.leaks"))
      .num("core.cooccur_s", log.total_s("core.cooccur"))
      .num("core.names_s", log.total_s("core.names"))
      .num("core.report_s", log.total_s("core.report"))
      .num("core.identified", static_cast<double>(identified))
      .num("core.identified_true", static_cast<double>(identified_true))
      .num("util.pool.busy_s", busy_s)
      .num("util.pool.queue_wait_p99_us", wait.percentile(99))
      .num("util.pool.parallelism", parallelism)
      .num("pipeline.unattributed_pct",
           sweep_s + analyze_s > 0 ? 100.0 * (1.0 - covered / (sweep_s + analyze_s)) : 0)
      .num("trace.overhead_pct",
           untraced_sweep_analyze_s > 0
               ? 100.0 * ((sweep_s + analyze_s) / untraced_sweep_analyze_s - 1.0)
               : 0)
      .num("traced.sweep_s", sweep_s)
      .num("traced.analyze_s", analyze_s);

  if (!log.write_json(work + "/spans.json")) result.why = "span log write failed";
  if (result.why.empty() && covered < 0.95 * (sweep_s + analyze_s)) {
    result.why = "layer spans cover under 95% of sweep + analyze";
  }
  if (result.why.empty() && !same_bytes(csv, reference_csv)) {
    result.why = "traced day loop CSV differs from SweepDriver::run";
  }
  if (result.why.empty() && !same_bytes(report_md, reference_report)) {
    result.why = "traced report differs from the untraced report";
  }
  result.correct = result.why.empty();
  return result;
}

}  // namespace

/// `perfbench pipeline`: untraced iterations until --seconds of measured
/// work (at least one), --setups timed world builds spread around them, and
/// with --trace 1 one traced iteration. Prints one JSON line.
int run_pipeline(int argc, char** argv) {
  util::CliParser cli{"perfbench pipeline", "the sweep + analyze pipeline, in process"};
  cli.option("seed", "world seed", "42")
      .option("seconds", "measured sweep + analyze seconds (at least one iteration)", "10")
      .option("work", "directory for the CSV, report and span log", ".")
      .option("trace", "1: one traced iteration after the untraced ones", "0")
      .option("orgs", "organizations in the world", "24")
      .option("scale", "population scale", "0.4")
      .option("from", "first sweep day", "2021-01-02")
      .option("to", "last sweep day", "2021-02-06")
      .option("setups", "timed world builds", "16")
      .option("keep", "1: keep the CSVs", "0");
  cli.parse(std::vector<std::string>(argv + 2, argv + argc));
  Config cfg;
  cfg.seed = static_cast<std::uint64_t>(std::stoll(cli.get("seed")));
  cfg.orgs = cli.get_int("orgs");
  cfg.scale = cli.get_double("scale");
  cfg.from = util::parse_date(cli.get("from"));
  cfg.to = util::parse_date(cli.get("to"));
  const std::string work = cli.get("work");
  std::filesystem::create_directories(work);
  const std::string csv = work + "/sweep.csv";
  const std::string report_md = work + "/report.md";

  // Set-up time: dedicated world builds, a few before each iteration and
  // the rest at the end, so the samples span the run rather than one
  // moment of a shared host's load. Wall and process CPU of each.
  const auto setups = static_cast<std::size_t>(cli.get_int("setups"));
  std::vector<double> setup, setup_cpu, sweep, sweep_cpu, analyze, analyze_cpu;
  auto sample_setup = [&](std::size_t n) {
    for (std::size_t i = 0; i < n && setup.size() < setups; ++i) {
      const std::int64_t t0 = mono_ns();
      const std::int64_t c0 = process_cpu_ns();
      auto world = build_world(cfg);
      setup_cpu.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e9);
      setup.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    }
  };
  std::vector<Iteration> runs;
  double measured = 0;
  while (runs.empty() || measured < cli.get_double("seconds")) {
    sample_setup(4);
    Iteration it = run_iteration(cfg, csv, report_md);
    sweep.push_back(it.sweep_s);
    sweep_cpu.push_back(it.sweep_cpu_s);
    analyze.insert(analyze.end(), it.analyze_s.begin(), it.analyze_s.end());
    analyze_cpu.insert(analyze_cpu.end(), it.analyze_cpu_s.begin(), it.analyze_cpu_s.end());
    measured += it.sweep_s + it.analyze_s[0] + it.analyze_s[1];
    std::fprintf(stderr,
                 "pipeline: build %.3fs sweep %.3fs (cpu %.3fs) analyze %.3fs %.3fs (cpu %.3fs "
                 "%.3fs)%s%s\n",
                 it.setup_s, it.sweep_s, it.sweep_cpu_s, it.analyze_s[0], it.analyze_s[1],
                 it.analyze_cpu_s[0], it.analyze_cpu_s[1], it.correct ? "" : " INCORRECT: ",
                 it.why.c_str());
    const bool ok = it.correct;
    runs.push_back(std::move(it));
    if (!ok) break;
  }
  sample_setup(setups);

  // Iterations stop at the first incorrect one.
  const Iteration& last = runs.back();
  bool correct = last.correct;
  std::string why = last.why;

  std::string traced_json = "{}";
  bool traced_ok = false;
  if (cli.get_int("trace") != 0) {
    const double untraced = median(sweep) + median(analyze);
    Traced traced = run_traced(cfg, work, csv, report_md, untraced);
    traced_json = traced.layers.text();
    traced_ok = traced.correct;
    if (!traced.correct) {
      correct = false;
      if (why.empty()) why = traced.why;
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonLine out;
  out.boolean("correct", correct)
      .str("why", why)
      .num("iterations", static_cast<double>(runs.size()))
      .nums("setup_s", setup)
      .nums("setup_cpu_s", setup_cpu)
      .nums("sweep_s", sweep)
      .nums("sweep_cpu_s", sweep_cpu)
      .nums("analyze_s", analyze)
      .nums("analyze_cpu_s", analyze_cpu)
      .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .num("sweeps", static_cast<double>(last.sweeps))
      .num("rows", static_cast<double>(last.rows))
      .num("identified", static_cast<double>(last.identified))
      .num("identified_true", static_cast<double>(last.identified_true))
      .num("threads", static_cast<double>(util::ThreadPool::global().size()))
      .boolean("traced_ok", traced_ok)
      .raw("layers", traced_json);
  std::printf("%s\n", out.text().c_str());
  if (cli.get_int("keep") == 0) {
    for (const char* name : {"/sweep.csv", "/traced.csv"}) std::filesystem::remove(work + name);
  }
  return 0;
}

}  // namespace perfbench

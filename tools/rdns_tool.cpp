/// \file rdns_tool.cpp
/// The command-line face of the library — zdns/massdns-style tooling for
/// the paper's pipeline. Subcommands:
///
///   sweep     simulate a synthetic Internet and record daily full-space
///             PTR sweeps as (date,ip,ptr) CSV — a stand-in for downloading
///             OpenINTEL/Rapid7 data
///   analyze   run the §4/§5 identification pipeline over a sweep CSV and
///             emit a markdown report
///   audit     audit a reverse zone FILE (dig AXFR / IPAM export) for
///             privacy leaks
///   campaign  run the §6 supplemental measurement against the paper world
///             and print the Table 3/4/5 summaries
///   track     follow a given name through a campaign (the §7.1 case study)
///   serve     host a frozen world's reverse zones on a real UDP port
///   top       live terminal monitor polling a serve admin endpoint
///
/// Every subcommand prints usage with --help.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/journal_audit.hpp"
#include "core/mitigation.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/run_report.hpp"
#include "core/timing.hpp"
#include "core/tracking.hpp"
#include "dns/admin.hpp"
#include "dns/answer_cache.hpp"
#include "dns/tcp_server.hpp"
#include "dns/udp_server.hpp"
#include "dns/udp_transport.hpp"
#include "dns/zonefile.hpp"
#include "net/admin_http.hpp"
#include "net/arpa.hpp"
#include "scan/campaign.hpp"
#include "scan/checkpoint.hpp"
#include "scan/csv_replay.hpp"
#include "scan/progress.hpp"
#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/faults.hpp"
#include "util/flight.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace rdns;

/// Options every subcommand shares, declared once: `--threads N` (0 = auto:
/// RDNS_THREADS env override, else hardware concurrency) plus the
/// observability surface (`--metrics-out FILE.json`, `--trace`). The
/// metrics/trace flags are read ahead of dispatch in main() so collection
/// is live before any subcommand work starts; they are declared here so
/// parse() accepts them and --help documents them.
util::CliParser& add_common_options(util::CliParser& cli) {
  return cli.option("threads", "worker threads (0 = auto: RDNS_THREADS or hardware)", "0")
      .option("metrics-out", "write a metrics + span-tree JSON snapshot to this path",
              std::nullopt)
      .option("journal-out", "append the rdns.events.v1 event journal to this path (JSONL)",
              std::nullopt)
      .option("faults", "chaos profile to arm (flag beats RDNS_FAULTS; default none)",
              std::nullopt)
      .option("flight-out",
              "arm the flight recorder; dump rdns.flight.v1 JSONL here (also on SIGUSR2)",
              std::nullopt)
      .flag("trace", "print a phase-timing summary to stderr at exit")
      .flag("verbose", "log at info level (flag beats RDNS_LOG_LEVEL)")
      .flag("quiet", "log errors only (beats --verbose)");
}

void apply_common_options(const util::CliParser& cli) {
  const int threads = cli.get_int("threads");
  if (threads < 0) throw util::CliError{"--threads must be >= 0"};
  util::ThreadPool::set_global_size(static_cast<unsigned>(threads));
  util::set_log_level(util::resolve_log_level(cli.get_flag("verbose"), cli.get_flag("quiet"),
                                              std::getenv("RDNS_LOG_LEVEL")));
  std::string faults_name = "none";
  if (const auto opt = cli.get_optional("faults")) {
    faults_name = *opt;
  } else if (const char* env = std::getenv("RDNS_FAULTS")) {
    faults_name = env;
  }
  const util::faults::Profile* profile = util::faults::find_profile(faults_name);
  if (profile == nullptr) {
    throw util::CliError{"unknown chaos profile \"" + faults_name +
                         "\" (known: " + util::faults::profile_names() + ")"};
  }
  util::faults::Injector::global().configure(*profile);
  if (const auto path = cli.get_optional("journal-out")) {
    if (!util::journal::Journal::global().open(*path)) {
      throw util::CliError{"cannot write journal to " + *path};
    }
  }
  if (const auto path = cli.get_optional("flight-out")) {
    auto& recorder = util::flight::FlightRecorder::global();
    if (!recorder.set_dump_path(*path)) {
      throw util::CliError{"cannot write flight dump to " + *path};
    }
    recorder.arm();
  }
}

/// Record run provenance once the world (if any) is built: the manifest
/// heads the journal and is embedded in metrics snapshots.
void record_run_manifest(const std::string& tool, std::uint64_t seed,
                         const sim::World* world) {
  util::journal::RunManifest manifest;
  manifest.tool = tool;
  manifest.version = util::journal::version_string();
  manifest.seed = seed;
  manifest.world_digest = world != nullptr ? world->config_digest() : 0;
  manifest.faults = util::faults::Injector::global().profile_name();
  manifest.threads = util::ThreadPool::global().size();
  util::journal::Journal::global().set_manifest(manifest);
}

/// SIGUSR1 asks for a log-level cycle, SIGUSR2 for a flight-recorder dump
/// segment. sig_atomic_t because they are written from signal handlers;
/// shared by the serve loop (which polls inline) and SignalWatcher (which
/// polls on a helper thread for the batch subcommands).
volatile std::sig_atomic_t g_cycle_log_request = 0;
volatile std::sig_atomic_t g_flight_dump_request = 0;

void handle_cycle_log_signal(int) { g_cycle_log_request = 1; }
void handle_flight_dump_signal(int) { g_flight_dump_request = 1; }

/// Apply any pending SIGUSR1/SIGUSR2 request. Runs outside signal context.
void poll_operator_signals(const char* tool) {
  if (g_cycle_log_request != 0) {
    g_cycle_log_request = 0;
    const util::LogLevel next = util::cycle_log_level(util::log_level());
    util::set_log_level(next);
    // Always visible regardless of the (possibly raised) level: the whole
    // point of the SIGUSR1 cycle is to confirm where the knob landed.
    std::fprintf(stderr, "%s: log level now %s (SIGUSR1)\n", tool, util::to_string(next));
  }
  if (g_flight_dump_request != 0) {
    g_flight_dump_request = 0;
    auto& recorder = util::flight::FlightRecorder::global();
    std::string error;
    if (recorder.dump_now(&error)) {
      std::fprintf(stderr, "%s: flight segment appended to %s (SIGUSR2)\n", tool,
                   recorder.dump_path().c_str());
    } else {
      std::fprintf(stderr, "%s: flight dump failed: %s (SIGUSR2)\n", tool, error.c_str());
    }
  }
}

/// Propagates the serve plane's operator signals to the batch subcommands
/// (sweep, campaign, track): a helper thread polls the handler flags every
/// 100 ms for the lifetime of the subcommand, so a multi-hour sweep can
/// have its log level cycled (SIGUSR1) or its flight recorder drained
/// (SIGUSR2) without stopping.
class SignalWatcher {
 public:
  explicit SignalWatcher(std::string tool) : tool_(std::move(tool)) {
    std::signal(SIGUSR1, handle_cycle_log_signal);
    std::signal(SIGUSR2, handle_flight_dump_signal);
    thread_ = std::thread([this] { run(); });
  }
  ~SignalWatcher() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    std::signal(SIGUSR1, SIG_DFL);
    std::signal(SIGUSR2, SIG_DFL);
  }
  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  void run() {
    while (!stop_.load(std::memory_order_relaxed)) {
      poll_operator_signals(tool_.c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    poll_operator_signals(tool_.c_str());  // apply a request that raced shutdown
  }

  std::string tool_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Wire-mode sweep loop with optional checkpoint/resume. Factored out of
/// cmd_sweep so the bulk path stays the simple SweepDriver call. When
/// `make_transport` is set, every shard resolves through it (UDP mode)
/// instead of the in-process frozen view. `progress_tty`/`admin_port` arm
/// the live progress plane (scan/progress.hpp).
int run_wire_sweep(sim::World& world, const util::CivilDate& from, const util::CivilDate& to,
                   const std::string& output, const std::optional<std::string>& checkpoint_path,
                   bool resume, long fail_after_shards, bool progress_tty,
                   std::optional<int> admin_port,
                   std::function<std::unique_ptr<dns::Transport>()> make_transport = {}) {
  constexpr int kHourOfDay = 14;

  scan::SweepCheckpointConfig ckcfg;
  if (const auto manifest = util::journal::Journal::global().manifest()) {
    ckcfg.manifest = *manifest;
  }
  ckcfg.mode = "wire";
  ckcfg.from = util::format_date(from);
  ckcfg.to = util::format_date(to);
  ckcfg.every_days = 1;
  ckcfg.hour = kHourOfDay;

  scan::SweepProgress done;  // committed prefix of a previous run (zero = fresh)
  if (resume) {
    std::string error;
    const auto loaded = scan::load_checkpoint(*checkpoint_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::string why;
    if (!scan::checkpoints_compatible(loaded->config, ckcfg, &why)) {
      std::fprintf(stderr, "error: checkpoint %s is from a different run (%s differs)\n",
                   checkpoint_path->c_str(), why.c_str());
      return 2;
    }
    done = loaded->progress;
    // Roll the CSV back to the committed prefix: bytes past the last
    // checkpoint were written but never promised.
    std::error_code ec;
    std::filesystem::resize_file(output, done.csv_bytes, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot truncate %s to %llu bytes: %s\n", output.c_str(),
                   static_cast<unsigned long long>(done.csv_bytes), ec.message().c_str());
      return 2;
    }
  }

  std::fstream out;
  if (resume) {
    out.open(output, std::ios::in | std::ios::out);
    if (out) out.seekp(static_cast<std::streamoff>(done.csv_bytes));
  } else {
    out.open(output, std::ios::out | std::ios::trunc);
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 2;
  }

  scan::CsvSnapshotSink sink{out};

  // The progress plane is observe-only (the CSV stays byte-identical when
  // armed); it lives across the whole day loop so rows/s rates span the run.
  std::optional<scan::SweepProgressPlane> plane;
  net::AdminHttpServer admin;
  if (progress_tty || admin_port) {
    scan::SweepProgressPlane::Options popt;
    popt.tty_status = progress_tty;
    plane.emplace(popt);
    if (admin_port) {
      plane->install_http_routes(admin);
      std::string error;
      const net::UdpEndpoint admin_endpoint{0x7f000001u,
                                            static_cast<std::uint16_t>(*admin_port)};
      if (!admin.start(admin_endpoint, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      // Same parseable banner shape as `rdns_tool serve` — the e2e harness
      // and `rdns_tool top` read the port from this line.
      std::printf("admin on %s\n", admin.endpoint().to_string().c_str());
      std::fflush(stdout);
    }
    plane->start();
  }

  std::uint64_t total_rows = done.rows;
  std::uint64_t sweeps = 0;
  std::uint64_t day_ordinal = 0;
  long shards_committed_here = 0;  // by THIS process, drives --fail-after-shards
  for (util::CivilDate date = from; !(to < date);
       date = util::add_days(date, 1), ++day_ordinal) {
    if (resume) {
      if (day_ordinal < done.day_ordinal) continue;
      if (day_ordinal == done.day_ordinal && done.day_complete) continue;
    }
    const util::SimTime at = util::to_sim_time(date) + kHourOfDay * util::kHour;
    if (at < world.now()) continue;
    world.run_until(at);

    scan::WireSweepOptions options;
    options.make_transport = make_transport;
    options.progress = plane ? &*plane : nullptr;
    if (resume && day_ordinal == done.day_ordinal && !done.day_complete) {
      options.skip_shards = static_cast<std::size_t>(done.shards_done);
    }
    if (checkpoint_path) {
      options.on_shard_done = [&](std::size_t shards_done, std::size_t shards_total,
                                  std::uint64_t rows_so_far) {
        ++shards_committed_here;
        const bool forced =
            fail_after_shards > 0 && shards_committed_here >= fail_after_shards;
        // Every 16 shards plus the day boundary keeps save cost negligible
        // against thousands of PTR queries per shard.
        if (!forced && shards_done % 16 != 0 && shards_done != shards_total) return;
        out.flush();  // the checkpoint may only promise bytes that are on disk
        scan::SweepCheckpoint cp;
        cp.config = ckcfg;
        cp.progress.day = util::format_date(date);
        cp.progress.day_ordinal = day_ordinal;
        cp.progress.shards_done = shards_done;
        cp.progress.shards_total = shards_total;
        cp.progress.day_complete = shards_done == shards_total;
        cp.progress.csv_bytes = static_cast<std::uint64_t>(out.tellp());
        cp.progress.rows = total_rows + rows_so_far;
        std::string error;
        if (!scan::save_checkpoint(*checkpoint_path, cp, &error)) {
          util::log_warn("sweep: " + error);
        }
        if (auto* j = util::journal::active()) {
          util::journal::Event e{"sweep.checkpoint", world.now()};
          e.str("day", cp.progress.day)
              .unum("shards_done", cp.progress.shards_done)
              .unum("shards_total", cp.progress.shards_total)
              .unum("csv_bytes", cp.progress.csv_bytes);
          j->emit(e);
        }
        if (forced) {
          // Simulated kill for the resume tests: the checkpoint is written,
          // the process dies without unwinding (as a real crash would).
          std::_Exit(3);
        }
      };
    }
    total_rows += scan::sweep_wire(world, date, sink, nullptr, nullptr, options);
    ++sweeps;
  }
  out.flush();
  admin.stop();
  if (plane) plane->stop();
  std::printf("wrote %s rows over %llu sweeps to %s%s\n",
              util::with_commas(static_cast<std::int64_t>(total_rows)).c_str(),
              static_cast<unsigned long long>(sweeps), output.c_str(),
              resume ? " (resumed)" : "");
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool sweep",
                      "simulate a synthetic Internet and record daily PTR sweeps as CSV"};
  cli.option("orgs", "number of organizations", "24")
      .option("seed", "world seed", "42")
      .option("from", "first sweep date (YYYY-MM-DD)", "2021-01-02")
      .option("to", "last sweep date (YYYY-MM-DD)", "2021-02-06")
      .option("scale", "population scale factor", "0.4")
      .option("mode", "bulk (zone reads, two-instant union) or wire (per-address PTR queries)",
              "bulk")
      .option("checkpoint", "wire mode: persist resume state to this file as shards commit",
              std::nullopt)
      .option("fail-after-shards", "testing: die (exit 3) after committing N shards", "0")
      .option("transport", "wire mode: inproc (deterministic reference) or udp://host:port "
              "(a live `rdns_tool serve` instance)", "inproc")
      .option("udp-timeout", "udp transport: per-attempt reply deadline (ms)", "1000")
      .flag("tcp-fallback",
            "udp transport: retry TC=1 answers over TCP on the same port "
            "(pair with `rdns_tool serve --tcp`)")
      .option("admin-port",
              "wire mode: serve /progress.json + /metrics over HTTP on this port "
              "(0 = kernel-assigned, printed as `admin on ...`)",
              std::nullopt)
      .flag("progress", "wire mode: live TTY status line (rows/s sparkline) on stderr")
      .flag("resume", "continue from --checkpoint instead of starting over")
      .positional("output", "output CSV path", "sweeps.csv");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);

  const std::string mode = cli.get("mode");
  if (mode != "bulk" && mode != "wire") {
    throw util::CliError{"--mode must be bulk or wire"};
  }
  const auto checkpoint_path = cli.get_optional("checkpoint");
  const bool resume = cli.get_flag("resume");
  if ((checkpoint_path || resume) && mode != "wire") {
    throw util::CliError{"--checkpoint/--resume require --mode wire"};
  }
  if (resume && !checkpoint_path) {
    throw util::CliError{"--resume requires --checkpoint"};
  }
  const bool progress_tty = cli.get_flag("progress");
  std::optional<int> admin_port;
  if (const auto opt = cli.get_optional("admin-port")) {
    admin_port = std::atoi(opt->c_str());
    if (*admin_port < 0 || *admin_port > 65535) {
      throw util::CliError{"--admin-port must be in [0, 65535]"};
    }
  }
  if ((progress_tty || admin_port) && mode != "wire") {
    throw util::CliError{"--progress/--admin-port require --mode wire"};
  }

  std::function<std::unique_ptr<dns::Transport>()> make_transport;
  const std::string transport = cli.get("transport");
  if (transport != "inproc") {
    if (mode != "wire") throw util::CliError{"--transport requires --mode wire"};
    const auto endpoint = dns::UdpTransport::parse_uri(transport);
    if (!endpoint) {
      throw util::CliError{"--transport must be inproc or udp://a.b.c.d:port, got \"" +
                           transport + "\""};
    }
    const int timeout_ms = cli.get_int("udp-timeout");
    if (timeout_ms <= 0) throw util::CliError{"--udp-timeout must be > 0"};
    const bool tcp_fallback = cli.get_flag("tcp-fallback");
    make_transport = [endpoint, timeout_ms, tcp_fallback]() -> std::unique_ptr<dns::Transport> {
      dns::UdpTransport::Options options;
      options.server = *endpoint;
      options.timeout_ms = timeout_ms;
      if (tcp_fallback) options.tcp_port = endpoint->port;
      return std::make_unique<dns::UdpTransport>(options);
    };
  } else if (cli.get_flag("tcp-fallback")) {
    throw util::CliError{"--tcp-fallback requires --transport udp://..."};
  }

  const auto from = util::parse_date(cli.get("from"));
  const auto to = util::parse_date(cli.get("to"));
  core::WorldScale scale;
  scale.population = cli.get_double("scale");
  auto world = core::make_internet_world(static_cast<std::uint64_t>(cli.get_int("seed")),
                                         cli.get_int("orgs"), scale);
  record_run_manifest("rdns_tool.sweep", static_cast<std::uint64_t>(cli.get_int("seed")),
                      world.get());
  world->start(util::add_days(from, -1), util::add_days(to, 1));

  const SignalWatcher signals{"sweep"};
  if (mode == "wire") {
    return run_wire_sweep(*world, from, to, cli.get("output"), checkpoint_path, resume,
                          cli.get_int("fail-after-shards"), progress_tty, admin_port,
                          std::move(make_transport));
  }

  std::ofstream out{cli.get("output")};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", cli.get("output").c_str());
    return 2;
  }
  scan::CsvSnapshotSink sink{out};
  scan::SweepDriver driver{*world, 14, 1, /*second_hour=*/21};
  const auto stats = driver.run(from, to, sink);
  std::printf("wrote %s rows over %llu sweeps to %s\n",
              util::with_commas(static_cast<std::int64_t>(stats.total_rows)).c_str(),
              static_cast<unsigned long long>(stats.sweeps), cli.get("output").c_str());
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool analyze",
                      "run the identification pipeline over a (date,ip,ptr) sweep CSV"};
  cli.option("min-names", "unique given names required per suffix (paper: 50)", "20")
      .option("min-ratio", "unique-names/records ratio required (paper: 0.1)", "0.1")
      .option("min-days", "days over the 10% change threshold (paper: 7)", "5")
      .option("report", "write a markdown report to this path", std::nullopt)
      .positional("input", "sweep CSV path");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);
  record_run_manifest("rdns_tool.analyze", 0, nullptr);

  std::ifstream in{cli.get("input")};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", cli.get("input").c_str());
    return 2;
  }

  core::DynamicityDetector detector;
  core::PtrCorpus corpus;
  struct Tee final : scan::SnapshotSink {
    std::vector<scan::SnapshotSink*> sinks;
    void on_row(const util::CivilDate& d, net::Ipv4Addr a, const dns::DnsName& n) override {
      for (auto* s : sinks) s->on_row(d, a, n);
    }
    void on_sweep_end(const util::CivilDate& d) override {
      for (auto* s : sinks) s->on_sweep_end(d);
    }
  } tee;
  tee.sinks = {&detector, &corpus};
  scan::ReplayStats replay;
  {
    const auto span = util::trace::Tracer::global().scope("parse");
    replay = scan::replay_csv(in, tee);
  }
  std::printf("replayed %s rows (%llu skipped) over %llu sweeps\n",
              util::with_commas(static_cast<std::int64_t>(replay.rows)).c_str(),
              static_cast<unsigned long long>(replay.skipped),
              static_cast<unsigned long long>(replay.sweeps));

  core::PipelineReport report;
  report.sweep_rows = replay.rows;
  report.sweeps = replay.sweeps;
  core::DynamicityConfig dyn;
  dyn.min_days_over = cli.get_int("min-days");
  {
    const auto span = util::trace::Tracer::global().scope("dynamicity");
    report.dynamicity = detector.analyze(dyn);
  }

  core::PtrCorpus dynamic_corpus;
  dynamic_corpus.restrict_to(report.dynamicity.dynamic_blocks());
  for (const auto& [hostname, entry] : corpus.entries()) dynamic_corpus.add_entry(entry);
  core::LeakConfig leak;
  leak.min_unique_names = static_cast<std::size_t>(cli.get_int("min-names"));
  leak.min_ratio = cli.get_double("min-ratio");
  {
    const auto span = util::trace::Tracer::global().scope("terms");
    report.leaks = core::identify_leaking_networks(dynamic_corpus, leak);
    report.cooccurrence = core::count_device_terms(dynamic_corpus, report.leaks.identified);
    report.types = core::classify_all(report.leaks.identified);
  }
  {
    const auto span = util::trace::Tracer::global().scope("names");
    report.leaks.matches_per_name = core::count_name_matches(corpus);
  }

  std::printf("dynamic /24s: %zu of %zu; identified networks: %zu\n",
              report.dynamicity.dynamic_count, report.dynamicity.total_slash24_seen,
              report.leaks.identified.size());
  for (const auto& suffix : report.leaks.identified) {
    std::printf("  %-40s %s\n", suffix.c_str(),
                core::to_string(core::classify_suffix(suffix)));
  }

  if (const auto path = cli.get_optional("report")) {
    std::ofstream report_out{*path};
    if (!report_out) {
      std::fprintf(stderr, "cannot write %s\n", path->c_str());
      return 2;
    }
    report_out << core::render_markdown_report(report);
    std::printf("report written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_audit(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool audit",
                      "audit a reverse zone file for privacy-sensitive PTR targets"};
  cli.flag("quiet", "print counts only").positional("zonefile", "zone file path");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);
  record_run_manifest("rdns_tool.audit", 0, nullptr);

  std::ifstream in{cli.get("zonefile")};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", cli.get("zonefile").c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  dns::Zone zone = dns::parse_zone(buffer.str());

  core::StreamAuditor auditor;
  zone.for_each([&auditor](const dns::ResourceRecord& rr) {
    if (const auto* ptr = std::get_if<dns::PtrRdata>(&rr.rdata)) {
      if (const auto address = net::from_arpa(rr.name.to_string())) {
        auditor.inspect(*address, ptr->ptrdname.to_canonical_string());
      }
    }
  });
  const auto& report = auditor.report();
  std::printf("%s: %llu records, %zu findings (%llu owner names, %llu device models)\n",
              zone.origin().to_canonical_string().c_str(),
              static_cast<unsigned long long>(report.records_audited), report.findings.size(),
              static_cast<unsigned long long>(report.owner_name_leaks),
              static_cast<unsigned long long>(report.device_model_leaks));
  if (!cli.get_flag("quiet")) {
    for (const auto& finding : report.findings) {
      std::printf("  [%-24s] %-16s %s\n", core::to_string(finding.severity),
                  finding.address.to_string().c_str(), finding.hostname.c_str());
    }
  }
  return report.clean() ? 0 : 1;
}

int cmd_campaign(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool campaign",
                      "run the supplemental measurement against the nine-network paper world"};
  cli.option("seed", "world seed", "1")
      .option("scale", "population scale factor", "0.3")
      .option("from", "campaign start (YYYY-MM-DD)", "2021-10-25")
      .option("to", "campaign end (YYYY-MM-DD)", "2021-11-07");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);

  core::WorldScale scale;
  scale.population = cli.get_double("scale");
  auto world = core::make_paper_world(static_cast<std::uint64_t>(cli.get_int("seed")), scale);
  record_run_manifest("rdns_tool.campaign", static_cast<std::uint64_t>(cli.get_int("seed")),
                      world.get());
  const auto from = util::parse_date(cli.get("from"));
  const auto to = util::parse_date(cli.get("to"));
  world->start(util::add_days(from, -1), util::add_days(to, 1));
  scan::SupplementalCampaign campaign{*world, scan::paper_targets(*world),
                                      scan::CampaignWindow{from, to}};
  {
    const SignalWatcher signals{"campaign"};
    campaign.run();
  }

  const auto totals = campaign.totals();
  std::printf("ICMP: %s responses / %s unique IPs\n",
              util::with_commas(static_cast<std::int64_t>(totals.icmp_responses)).c_str(),
              util::with_commas(static_cast<std::int64_t>(totals.icmp_unique_ips)).c_str());
  std::printf("rDNS: %s responses / %s unique IPs / %s unique PTRs\n",
              util::with_commas(static_cast<std::int64_t>(totals.rdns_responses)).c_str(),
              util::with_commas(static_cast<std::int64_t>(totals.rdns_unique_ips)).c_str(),
              util::with_commas(static_cast<std::int64_t>(totals.rdns_unique_ptrs)).c_str());
  for (const auto& row : campaign.network_rows()) {
    std::printf("  %-14s %-11s observed %6llu (%5.1f%%)\n", row.name.c_str(), row.type.c_str(),
                static_cast<unsigned long long>(row.addresses_observed), row.percent_observed);
  }
  const auto funnel = core::build_funnel(campaign.engine().groups());
  std::printf("groups: %s all -> %s successful -> %s reverted -> %s reliable\n",
              util::with_commas(static_cast<std::int64_t>(funnel.all_groups)).c_str(),
              util::with_commas(static_cast<std::int64_t>(funnel.successful)).c_str(),
              util::with_commas(static_cast<std::int64_t>(funnel.reverted)).c_str(),
              util::with_commas(static_cast<std::int64_t>(funnel.reliable)).c_str());
  const auto usable = core::usable_groups(campaign.engine().groups());
  if (!usable.empty()) {
    std::printf("PTR lingering: %.0f%% of usable groups revert within 60 minutes\n",
                100.0 * core::fraction_within_minutes(usable, 60.0));
  }
  // The Fig. 7 failure tail: departed clients whose PTR was never seen
  // leaving the zone before the back-off schedule gave up — slow
  // operators on a clean network, plus lost DynDNS removals under
  // --faults broken-ddns.
  const auto stale = core::stale_groups(campaign.engine().groups());
  if (!stale.empty()) {
    std::printf("stale PTRs: %zu departed clients whose record was never seen leaving the zone "
                "(%.0f%% of departures cleaned within 60 minutes)\n",
                stale.size(), 100.0 * core::fraction_removed_within(usable, stale, 60.0));
  }
  return 0;
}

int cmd_track(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool track",
                      "follow a given name's devices through a campaign (Life of Brian)"};
  cli.option("network", "target network name", "Academic-A")
      .option("seed", "world seed", "123")
      .option("scale", "population scale factor", "0.25")
      .option("weeks", "number of weeks to render", "2")
      .positional("name", "given name to track", "brian");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);

  core::WorldScale scale;
  scale.population = cli.get_double("scale");
  auto world = core::make_paper_world(static_cast<std::uint64_t>(cli.get_int("seed")), scale);
  record_run_manifest("rdns_tool.track", static_cast<std::uint64_t>(cli.get_int("seed")),
                      world.get());
  const util::CivilDate from{2021, 11, 15};
  const int weeks = cli.get_int("weeks");
  const util::CivilDate to = util::add_days(from, weeks * 7 - 1);
  world->start(util::add_days(from, -1), util::add_days(to, 1));

  const sim::Organization* target = world->org_by_name(cli.get("network"));
  if (target == nullptr) {
    std::fprintf(stderr, "unknown network %s\n", cli.get("network").c_str());
    return 2;
  }
  scan::SupplementalCampaign campaign{
      *world,
      {{cli.get("network"), target->spec().measurement_targets}},
      scan::CampaignWindow{from, to}};
  {
    const SignalWatcher signals{"track"};
    campaign.run();
  }

  const auto segments = core::segments_matching(campaign.engine().groups(), cli.get("name"),
                                                cli.get("network"));
  std::printf("%zu presence periods for hostnames containing '%s' on %s\n", segments.size(),
              cli.get("name").c_str(), cli.get("network").c_str());
  for (const auto& [hostname, date] : core::first_seen_dates(segments)) {
    std::printf("  %-28s first seen %s\n", hostname.c_str(),
                util::format_date(date).c_str());
  }
  return 0;
}

/// SIGINT/SIGTERM set this; the serve loop polls it. sig_atomic_t because
/// it is written from a signal handler.
volatile std::sig_atomic_t g_serve_stop = 0;

void handle_serve_signal(int) { g_serve_stop = 1; }

/// SIGHUP asks for a hot zone reload; the serve loop polls it (the /reload
/// admin route sets its own atomic — see cmd_serve).
volatile std::sig_atomic_t g_serve_reload = 0;

void handle_serve_reload_signal(int) { g_serve_reload = 1; }

/// RCU-style zone generation plumbing for hot reload (SIGHUP or GET
/// /reload): the main thread builds a fresh frozen world and publishes it
/// under the mutex with an epoch bump; each worker's handler notices the
/// epoch change *between* queries, folds its per-org stats into the
/// outgoing generation, and re-anchors its read-only view on the new one.
/// No query is ever dropped by a reload — the swap happens between
/// datagrams, and the old world stays alive (shared_ptr) until the last
/// worker lets go of it.
struct ZoneSwitchboard {
  struct Generation {
    std::shared_ptr<sim::World> world;
    util::SimTime frozen_now = 0;
    /// Pre-serialized answer images for this generation's zones (null when
    /// the cache is disabled). Swapped atomically with the world, so a
    /// cached tail can never outlive the zone it encodes.
    std::shared_ptr<const dns::AnswerCache> cache;
  };
  /// Per-worker handler state. Stable address: slots are created
  /// sequentially by the handler factory before any worker thread runs,
  /// and each slot is touched only by its own worker thereafter.
  struct Slot {
    std::uint64_t seen_epoch = 0;
    Generation gen;
    std::unique_ptr<sim::FrozenDnsView> view;
  };

  std::atomic<std::uint64_t> epoch{0};
  std::mutex mu;       ///< guards `current` and every per-org stats merge
  Generation current;  ///< guarded by mu
  std::vector<std::unique_ptr<Slot>> slots;

  /// A handler noticed `epoch` moved: retire the slot's generation
  /// (merging its view stats under the mutex) and adopt the current one.
  void adopt(Slot& slot) {
    std::lock_guard<std::mutex> lock{mu};
    if (slot.view != nullptr) {
      slot.gen.world->merge_server_stats(slot.view->per_org_stats());
    }
    slot.gen = current;
    slot.seen_epoch = epoch.load(std::memory_order_relaxed);
    slot.view = std::make_unique<sim::FrozenDnsView>(*slot.gen.world);
  }

  /// Publish a new generation; returns the new epoch value.
  std::uint64_t publish(std::shared_ptr<sim::World> world, util::SimTime frozen_now,
                        std::shared_ptr<const dns::AnswerCache> cache = nullptr) {
    std::lock_guard<std::mutex> lock{mu};
    current.world = std::move(world);
    current.frozen_now = frozen_now;
    current.cache = std::move(cache);
    return epoch.fetch_add(1, std::memory_order_release) + 1;
  }

  /// Snapshot the current generation's answer cache (the serve loop's
  /// `answer_cache` provider; called once per epoch change, not per query).
  [[nodiscard]] std::shared_ptr<const dns::AnswerCache> current_cache() {
    std::lock_guard<std::mutex> lock{mu};
    return current.cache;
  }

  /// Final fold at shutdown (workers already joined, so the slots are
  /// quiescent; the mutex still serializes against a racing publish).
  void merge_all() {
    std::lock_guard<std::mutex> lock{mu};
    for (auto& slot : slots) {
      if (slot->view != nullptr) {
        slot->gen.world->merge_server_stats(slot->view->per_org_stats());
        slot->view.reset();
      }
    }
  }
};

/// One rdns.observability.v1 snapshot as a single JSONL line — the
/// streaming cousin of trace::write_snapshot_json, appended every
/// --metrics-interval seconds while serving.
void append_metrics_snapshot_line(std::ostream& out) {
  std::string line = "{\"schema\":\"rdns.observability.v1\",\"generated_unix\":" +
                     std::to_string(static_cast<long long>(std::time(nullptr))) + ",";
  if (const auto manifest = util::journal::Journal::global().manifest()) {
    line += "\"manifest\":" + util::journal::manifest_json(*manifest) + ",";
  }
  util::metrics::Registry::global().append_json_compact(line);
  line += ",\"spans\":null}\n";
  out << line;
  out.flush();
}

int cmd_serve(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool serve",
                      "host a frozen world's reverse zones on a real UDP port"};
  cli.option("orgs", "number of organizations", "24")
      .option("seed", "world seed", "42")
      .option("scale", "population scale factor", "0.4")
      .option("date", "freeze the world at this date (YYYY-MM-DD)", "2021-01-02")
      .option("hour", "freeze hour of day (matches the sweep instant)", "14")
      .option("bind", "address to bind", "127.0.0.1")
      .option("port", "UDP port (0 = kernel-assigned, printed at startup)", "5533")
      .option("duration", "seconds to serve (0 = until SIGINT/SIGTERM)", "0")
      .option("batch", "max datagrams per recvmmsg/sendmmsg batch", "32")
      .option("admin-port", "enable the HTTP admin endpoint on this port (0 = kernel-assigned)",
              std::nullopt)
      .option("sample", "sampled tracing: clock 1 query in N by txid hash (0 = off)", "8")
      .option("slowlog-us",
              "sampled queries slower than this emit serve.slowlog journal events", "1000")
      .option("top-k", "heavy-hitter sketch capacity (client IPs and qnames)", "64")
      .option("metrics-interval",
              "append a metrics snapshot line to --metrics-out every N seconds (0 = off)", "0")
      .flag("no-guard", "disable the serve-guard front-end (wire defense, RRL, shed)")
      .option("rrl-rate", "per-/24 response rate limit in responses/s (0 = RRL off)", "0")
      .option("rrl-burst", "RRL token-bucket burst (0 = same as --rrl-rate)", "0")
      .option("rrl-slip", "answer every Nth over-limit query with TC=1 instead of dropping",
              "2")
      .option("shed-l1", "full-batch streak that arms shed level 1 (0 = never)", "8")
      .option("shed-l2", "full-batch streak that arms shed level 2 (0 = never)", "32")
      .option("shed-l3", "full-batch streak that arms shed level 3 (0 = never)", "128")
      .option("drain-deadline-ms",
              "max time a draining worker keeps consuming backlog at shutdown", "2000")
      .flag("no-answer-cache",
            "disable the pre-serialized answer cache (always disabled under fault injection)")
      .flag("tcp", "also listen for DNS-over-TCP on the same port (TC=1 fallback)")
      .option("edns-udp-size",
              "EDNS payload size advertised in OPT replies (RFC 6891; clamp floor 512)",
              "1232");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);

  const auto bind_addr = net::Ipv4Addr::parse(cli.get("bind"));
  if (!bind_addr) throw util::CliError{"--bind must be an IPv4 address"};
  const int port = cli.get_int("port");
  if (port < 0 || port > 65535) throw util::CliError{"--port must be in [0, 65535]"};
  const int duration_s = cli.get_int("duration");
  if (duration_s < 0) throw util::CliError{"--duration must be >= 0"};
  const int sample_every = cli.get_int("sample");
  if (sample_every < 0) throw util::CliError{"--sample must be >= 0"};
  const int slowlog_us = cli.get_int("slowlog-us");
  if (slowlog_us < 0) throw util::CliError{"--slowlog-us must be >= 0"};
  const int top_k = cli.get_int("top-k");
  if (top_k < 1) throw util::CliError{"--top-k must be >= 1"};
  const double metrics_interval_s = cli.get_double("metrics-interval");
  if (metrics_interval_s < 0) throw util::CliError{"--metrics-interval must be >= 0"};
  const auto metrics_out = cli.get_optional("metrics-out");
  if (metrics_interval_s > 0 && !metrics_out) {
    throw util::CliError{"--metrics-interval needs --metrics-out PATH for the JSONL stream"};
  }
  std::optional<int> admin_port;
  if (const auto opt = cli.get_optional("admin-port")) {
    admin_port = std::atoi(opt->c_str());
    if (*admin_port < 0 || *admin_port > 65535) {
      throw util::CliError{"--admin-port must be in [0, 65535]"};
    }
  }
  const double rrl_rate = cli.get_double("rrl-rate");
  if (rrl_rate < 0) throw util::CliError{"--rrl-rate must be >= 0"};
  const double rrl_burst = cli.get_double("rrl-burst");
  if (rrl_burst < 0) throw util::CliError{"--rrl-burst must be >= 0"};
  const int rrl_slip = cli.get_int("rrl-slip");
  if (rrl_slip < 1) throw util::CliError{"--rrl-slip must be >= 1"};
  const int drain_deadline_ms = cli.get_int("drain-deadline-ms");
  if (drain_deadline_ms < 0) throw util::CliError{"--drain-deadline-ms must be >= 0"};
  const int edns_udp_size = cli.get_int("edns-udp-size");
  if (edns_udp_size < 512 || edns_udp_size > 65535) {
    throw util::CliError{"--edns-udp-size must be in [512, 65535]"};
  }
  const bool want_tcp = cli.get_flag("tcp");

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const int orgs = cli.get_int("orgs");
  const int hour = cli.get_int("hour");
  core::WorldScale scale;
  scale.population = cli.get_double("scale");
  const auto date = util::parse_date(cli.get("date"));

  // The world build is a named closure because hot reload (SIGHUP or GET
  // /reload) runs it again: an identically-parameterized rebuild freezes at
  // the same instant, so answers stay byte-identical across generations.
  // The first build heads the journal with the run manifest and journals
  // its dhcp/ddns history; rebuilds replay that same history, so they run
  // with the journal suspended (its timestamps would go backwards).
  const auto build_world = [&](bool first) -> std::shared_ptr<sim::World> {
    std::optional<util::journal::ScopedSuspend> mute;
    if (!first) mute.emplace();
    std::shared_ptr<sim::World> w = core::make_internet_world(seed, orgs, scale);
    if (first) record_run_manifest("rdns_tool.serve", seed, w.get());
    w->start(util::add_days(date, -1), util::add_days(date, 1));
    w->run_until(util::to_sim_time(date) + hour * util::kHour);
    return w;
  };
  std::shared_ptr<sim::World> world = build_world(/*first=*/true);
  const util::SimTime frozen_now = world->now();

  // Answer cache: pre-serialize every PTR answer in the announced ranges so
  // the hot path is two memcpys + a header patch (see dns/answer_cache.hpp).
  // A cache hit bypasses the deterministic fault sites, so any active fault
  // injection — global injector or a per-org FaultPolicy — force-disables it.
  bool cache_enabled = !cli.get_flag("no-answer-cache");
  const char* cache_disabled_why = nullptr;
  if (cache_enabled && util::faults::active() != nullptr) {
    cache_enabled = false;
    cache_disabled_why = "fault injection active (--faults)";
  }
  if (cache_enabled) {
    for (const auto& org : world->orgs()) {
      const dns::FaultPolicy& f = org->dns().faults();
      if (f.servfail_probability > 0 || f.timeout_probability > 0) {
        cache_enabled = false;
        cache_disabled_why = "per-org DNS fault policy active";
        break;
      }
    }
  }
  const auto build_cache =
      [&](sim::World& w) -> std::shared_ptr<const dns::AnswerCache> {
    if (!cache_enabled) return nullptr;
    std::vector<dns::AnswerCache::Source> sources;
    for (const auto& org : w.orgs()) {
      for (const auto& prefix : org->spec().announced) {
        sources.push_back({&org->dns(), prefix.first(), prefix.last()});
      }
    }
    return dns::AnswerCache::build(sources);
  };
  std::shared_ptr<const dns::AnswerCache> cache = build_cache(*world);

  // Zone generations live on the switchboard; each worker's handler slot
  // re-anchors between queries when the epoch moves (see ZoneSwitchboard).
  ZoneSwitchboard board;
  board.publish(world, frozen_now, cache);

  dns::UdpServeOptions options;
  options.endpoint.address = bind_addr->value();
  options.endpoint.port = static_cast<std::uint16_t>(port);
  options.threads = std::max(1u, util::ThreadPool::global().size());
  options.batch = static_cast<std::size_t>(std::max(1, cli.get_int("batch")));
  options.drain_deadline_ms = static_cast<unsigned>(drain_deadline_ms);
  options.hardening.guard = !cli.get_flag("no-guard");
  options.hardening.rrl_rate = rrl_rate;
  options.hardening.rrl_burst = rrl_burst;
  options.hardening.rrl_slip = static_cast<unsigned>(rrl_slip);
  options.hardening.shed_l1_batches = static_cast<unsigned>(std::max(0, cli.get_int("shed-l1")));
  options.hardening.shed_l2_batches = static_cast<unsigned>(std::max(0, cli.get_int("shed-l2")));
  options.hardening.shed_l3_batches = static_cast<unsigned>(std::max(0, cli.get_int("shed-l3")));
  options.edns_udp_size = static_cast<std::uint16_t>(edns_udp_size);
  if (cache_enabled) {
    options.answer_cache = [&board]() { return board.current_cache(); };
    options.answer_cache_epoch = &board.epoch;
  }

  // The introspection plane is always armed (its disabled-path cost is one
  // pointer test per query): sampled latency + slowlog, heavy-hitter
  // sketches, the CHAOS TXT interface, and — with --admin-port — HTTP.
  dns::ServeAdminConfig admin_cfg;
  admin_cfg.sample_every = static_cast<unsigned>(sample_every);
  admin_cfg.slowlog_threshold_us = static_cast<double>(slowlog_us);
  admin_cfg.top_k = static_cast<std::size_t>(top_k);
  admin_cfg.sim_time = frozen_now;
  dns::ServeIntrospection introspection{options.threads, admin_cfg};
  options.introspection = &introspection;

  // One read-only view per worker: each owns its per-org statistics, so
  // the hot path takes no locks; they fold back into their generation's
  // world at adopt/shutdown. The factory runs sequentially inside start(),
  // before any worker thread exists, so the slot vector needs no
  // synchronization.
  dns::UdpServerLoop loop{options, [&](unsigned) -> dns::UdpServerLoop::WireHandler {
    board.slots.push_back(std::make_unique<ZoneSwitchboard::Slot>());
    ZoneSwitchboard::Slot* slot = board.slots.back().get();
    board.adopt(*slot);
    ZoneSwitchboard* b = &board;
    return introspection.wrap_chaos([slot, b](std::span<const std::uint8_t> query) {
      if (b->epoch.load(std::memory_order_acquire) != slot->seen_epoch) b->adopt(*slot);
      return slot->view->exchange(query, slot->gen.frozen_now);
    });
  }};
  std::string error;
  if (!loop.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  introspection.start();

  // DNS-over-TCP companion listener on the same port number: answers that
  // the UDP path truncates (TC=1) are retrievable in full here. One extra
  // switchboard slot, owned by the TCP event-loop thread; its handler
  // re-anchors on epoch moves exactly like a UDP worker's, so reloads need
  // no handler swap. Safe to append the slot here: workers hold their own
  // Slot* and never touch the vector.
  std::unique_ptr<dns::DnsTcpServer> tcp;
  if (want_tcp) {
    board.slots.push_back(std::make_unique<ZoneSwitchboard::Slot>());
    ZoneSwitchboard::Slot* slot = board.slots.back().get();
    board.adopt(*slot);
    ZoneSwitchboard* b = &board;
    dns::DnsTcpServer::Options tcp_options;
    tcp_options.endpoint = {bind_addr->value(), loop.endpoint().port};
    tcp = std::make_unique<dns::DnsTcpServer>(
        tcp_options, [slot, b](std::span<const std::uint8_t> query) {
          if (b->epoch.load(std::memory_order_acquire) != slot->seen_epoch) b->adopt(*slot);
          return slot->view->exchange(query, slot->gen.frozen_now);
        });
    if (!tcp->start(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      loop.stop();
      introspection.stop();
      return 2;
    }
  }

  net::AdminHttpServer admin;
  std::atomic<bool> http_reload{false};
  if (admin_port) {
    introspection.install_http_routes(admin);
    // GET /reload schedules a hot zone reload; the main loop performs the
    // (seconds-long) world rebuild so the admin plane stays responsive.
    admin.route("/reload", [&http_reload](const std::string&) {
      http_reload.store(true, std::memory_order_relaxed);
      return net::HttpResponse{200, "text/plain; charset=utf-8", "zone reload scheduled\n"};
    });
    net::UdpEndpoint admin_endpoint{bind_addr->value(), static_cast<std::uint16_t>(*admin_port)};
    if (!admin.start(admin_endpoint, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      loop.stop();
      return 2;
    }
  }

  // The harnesses (pytest e2e, load bench, `rdns_tool top`) parse these
  // lines for the ports.
  std::printf("serving on %s with %u workers (world frozen at %s %02d:00)\n",
              loop.endpoint().to_string().c_str(), loop.threads(),
              util::format_date(date).c_str(), cli.get_int("hour"));
  // The harnesses read `admin on` as the line right after the serve
  // banner; the informational tcp/cache lines must print after it.
  if (admin.running()) {
    std::printf("admin on %s\n", admin.endpoint().to_string().c_str());
  }
  if (tcp != nullptr && tcp->running()) {
    std::printf("tcp on %s\n", tcp->endpoint().to_string().c_str());
  }
  if (cache != nullptr) {
    std::printf("answer cache: %s entries, %s bytes\n",
                util::with_commas(static_cast<std::int64_t>(cache->entry_count())).c_str(),
                util::with_commas(static_cast<std::int64_t>(cache->bytes())).c_str());
  } else if (cache_disabled_why != nullptr) {
    std::printf("answer cache disabled: %s\n", cache_disabled_why);
  }
  std::fflush(stdout);
  if (auto* j = util::journal::active()) {
    util::journal::Event e{"serve.start", frozen_now};
    e.str("endpoint", loop.endpoint().to_string())
        .unum("workers", loop.threads())
        .unum("port", loop.endpoint().port)
        .unum("guard", options.hardening.guard ? 1 : 0)
        .unum("rrl_rate", static_cast<std::uint64_t>(options.hardening.rrl_rate));
    j->emit(e);
  }

  std::ofstream metrics_stream;
  if (metrics_interval_s > 0) {
    metrics_stream.open(*metrics_out);
    if (!metrics_stream) throw util::CliError{"cannot write " + *metrics_out};
  }

  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGHUP, handle_serve_reload_signal);
  std::signal(SIGUSR1, handle_cycle_log_signal);
  std::signal(SIGUSR2, handle_flight_dump_signal);
  g_serve_reload = 0;
  std::uint64_t reloads_done = 0;
  const auto started = std::chrono::steady_clock::now();
  auto next_snapshot =
      started + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(metrics_interval_s));
  while (g_serve_stop == 0) {
    const auto now = std::chrono::steady_clock::now();
    if (duration_s > 0 && now - started >= std::chrono::seconds(duration_s)) break;
    if (g_cycle_log_request != 0 || g_flight_dump_request != 0) {
      const bool cycled = g_cycle_log_request != 0;
      poll_operator_signals("serve");
      if (cycled) introspection.aggregate_now();  // refresh the serve.log_level gauge
    }
    if (g_serve_reload != 0 || http_reload.load(std::memory_order_relaxed)) {
      g_serve_reload = 0;
      http_reload.store(false, std::memory_order_relaxed);
      const auto build_t0 = std::chrono::steady_clock::now();
      std::shared_ptr<sim::World> next_world = build_world(/*first=*/false);
      const util::SimTime next_now = next_world->now();
      // Rebuild the answer cache against the new generation before the
      // epoch bump: workers notice the bump and swap world + cache as one.
      std::shared_ptr<const dns::AnswerCache> next_cache = build_cache(*next_world);
      const auto build_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - build_t0)
              .count());
      const std::uint64_t new_epoch =
          board.publish(std::move(next_world), next_now, std::move(next_cache));
      ++reloads_done;
      util::metrics::counter("serve.zone_reloads").inc();
      if (auto* j = util::journal::active()) {
        util::journal::Event e{"serve.reload", frozen_now};
        e.unum("epoch", new_epoch).unum("build_ms", build_ms);
        j->emit(e);
      }
      std::printf("zone reload #%llu complete in %llu ms\n",
                  static_cast<unsigned long long>(reloads_done),
                  static_cast<unsigned long long>(build_ms));
      std::fflush(stdout);
    }
    if (metrics_stream.is_open() && now >= next_snapshot) {
      introspection.aggregate_now();
      append_metrics_snapshot_line(metrics_stream);
      next_snapshot = now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(metrics_interval_s));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGHUP, SIG_DFL);

  // Graceful drain: workers stop waiting for new datagrams, consume what
  // the kernel already accepted (bounded by --drain-deadline-ms), flush
  // their final sendmmsg batches, then exit; stop() joins and folds stats.
  const auto drain_t0 = std::chrono::steady_clock::now();
  loop.request_drain();
  loop.stop();
  const auto drain_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                            drain_t0)
          .count());
  if (auto* j = util::journal::active()) {
    util::journal::Event e{"serve.drain", frozen_now};
    e.unum("deadline_ms", static_cast<std::uint64_t>(drain_deadline_ms))
        .unum("drain_ms", drain_ms)
        .unum("reloads", reloads_done);
    j->emit(e);
  }
  if (tcp != nullptr) tcp->stop();
  admin.stop();
  introspection.stop();
  if (metrics_stream.is_open()) {
    // Final snapshot so even sub-interval runs leave at least one line.
    introspection.aggregate_now();
    append_metrics_snapshot_line(metrics_stream);
    metrics_stream.close();
  }

  board.merge_all();
  const dns::UdpServeStats& totals = loop.stats();
  if (auto* j = util::journal::active()) {
    util::journal::Event e{"serve.stop", frozen_now};
    for (const dns::UdpServeStatsField& f : dns::kUdpServeStatsFields) {
      if (f.exported) e.unum(f.name, totals.*f.member);
    }
    j->emit(e);
  }
  std::printf(
      "served %s datagrams (%s answered, %llu dropped, %llu send failures)\n"
      "  drops: %llu malformed, %llu timeout-fault, %llu policy (%llu rrl, %llu shed)\n"
      "  cache: %s hits, %s misses; %llu edns queries, %llu tc responses\n",
      util::with_commas(static_cast<std::int64_t>(totals.datagrams_received)).c_str(),
      util::with_commas(static_cast<std::int64_t>(totals.responses_sent)).c_str(),
      static_cast<unsigned long long>(totals.dropped_total()),
      static_cast<unsigned long long>(totals.send_failures),
      static_cast<unsigned long long>(totals.dropped_malformed),
      static_cast<unsigned long long>(totals.dropped_timeout_fault),
      static_cast<unsigned long long>(totals.dropped_policy),
      static_cast<unsigned long long>(totals.rrl_dropped),
      static_cast<unsigned long long>(totals.shed_errors + totals.shed_answers),
      util::with_commas(static_cast<std::int64_t>(totals.cache_hits)).c_str(),
      util::with_commas(static_cast<std::int64_t>(totals.cache_misses)).c_str(),
      static_cast<unsigned long long>(totals.edns_queries),
      static_cast<unsigned long long>(totals.tc_responses));
  return 0;
}

/// One rendered frame of `rdns_tool top`: headline numbers, a QPS
/// sparkline over the recent polls, and the heavy-hitter tables.
std::string render_top_frame(const util::journal::JsonValue& doc,
                             const std::deque<double>& qps_history) {
  std::string out;
  char line[256];
  const util::journal::JsonValue* qps = doc.find("qps");
  const util::journal::JsonValue* latency = doc.find("latency_us");
  const util::journal::JsonValue* totals = doc.find("totals");
  std::snprintf(line, sizeof line, "rdns top — up %.0fs, %lld workers, log %s\n",
                doc.get_number("uptime_s"),
                static_cast<long long>(doc.get_int("workers")),
                doc.get_string("log_level", "?").c_str());
  out += line;
  std::snprintf(line, sizeof line,
                "qps 1s/10s/60s: %.0f / %.0f / %.0f    latency us p50/p90/p99: "
                "%.0f / %.0f / %.0f\n",
                qps != nullptr ? qps->get_number("1s") : 0.0,
                qps != nullptr ? qps->get_number("10s") : 0.0,
                qps != nullptr ? qps->get_number("60s") : 0.0,
                latency != nullptr ? latency->get_number("p50") : 0.0,
                latency != nullptr ? latency->get_number("p90") : 0.0,
                latency != nullptr ? latency->get_number("p99") : 0.0);
  out += line;
  std::snprintf(line, sizeof line,
                "received %lld  answered %lld  dropped %lld  sampled %lld  slowlog %lld\n",
                static_cast<long long>(totals != nullptr ? totals->get_int("received") : 0),
                static_cast<long long>(totals != nullptr ? totals->get_int("answered") : 0),
                static_cast<long long>(totals != nullptr ? totals->get_int("dropped") : 0),
                static_cast<long long>(doc.get_int("sampled")),
                static_cast<long long>(doc.get_int("slowlog")));
  out += line;

  if (qps_history.size() >= 2) {
    util::Series series;
    series.label = "qps(1s)";
    series.values.assign(qps_history.begin(), qps_history.end());
    util::ChartOptions chart;
    chart.width = 60;
    chart.height = 8;
    chart.title = "QPS (1s window, one point per poll)";
    out += util::render_line_chart({series}, chart);
  }

  const auto render_table = [&out](const util::journal::JsonValue* entries,
                                   const char* heading) {
    if (entries == nullptr || entries->array.empty()) return;
    out += heading;
    out += '\n';
    std::size_t shown = 0;
    for (const util::journal::JsonValue& entry : entries->array) {
      char row[160];
      std::snprintf(row, sizeof row, "  %-40s %10lld (±%lld)\n",
                    entry.get_string("key", "?").c_str(),
                    static_cast<long long>(entry.get_int("count")),
                    static_cast<long long>(entry.get_int("error")));
      out += row;
      if (++shown >= 10) break;
    }
  };
  render_table(doc.find("top_clients"), "top clients:");
  render_table(doc.find("top_qnames"), "top qnames:");
  return out;
}

/// One rendered frame of `rdns_tool top` against a *sweep* progress plane
/// (/progress.json, schema rdns.sweep-progress.v1) instead of a serve
/// endpoint: shard completion, rows/s windows, ETA, and a rate sparkline.
std::string render_sweep_frame(const util::journal::JsonValue& doc,
                               const std::deque<double>& rate_history) {
  std::string out;
  char line[256];
  const util::journal::JsonValue* shards = doc.find("shards");
  const util::journal::JsonValue* rates = doc.find("rows_per_s");
  std::snprintf(line, sizeof line, "rdns sweep — up %.0fs, day %s\n", doc.get_number("uptime_s"),
                doc.get_string("day", "?").c_str());
  out += line;
  const double eta = doc.get_number("eta_s", -1);
  std::snprintf(line, sizeof line,
                "shards %lld/%lld (%.1f%%)   rows %lld   eta %s\n",
                static_cast<long long>(shards != nullptr ? shards->get_int("done") : 0),
                static_cast<long long>(shards != nullptr ? shards->get_int("total") : 0),
                doc.get_number("percent"),
                static_cast<long long>(doc.get_int("rows")),
                eta >= 0 ? (util::format("%.0fs", eta).c_str()) : "?");
  out += line;
  std::snprintf(line, sizeof line,
                "rows/s 1s/10s/60s: %.0f / %.0f / %.0f   retries %lld   degraded %lld   "
                "reruns %lld\n",
                rates != nullptr ? rates->get_number("1s") : 0.0,
                rates != nullptr ? rates->get_number("10s") : 0.0,
                rates != nullptr ? rates->get_number("60s") : 0.0,
                static_cast<long long>(doc.get_int("retries")),
                static_cast<long long>(shards != nullptr ? shards->get_int("degraded") : 0),
                static_cast<long long>(shards != nullptr ? shards->get_int("reruns") : 0));
  out += line;
  if (rate_history.size() >= 2) {
    out += "rows/s: [" +
           util::render_sparkline({rate_history.begin(), rate_history.end()}, 60) + "]\n";
  }
  return out;
}

int cmd_top(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool top",
                      "live terminal monitor polling a serve or sweep admin endpoint"};
  cli.option("interval", "poll/refresh interval in milliseconds", "1000")
      .option("frames", "frames to render before exiting (0 = until SIGINT)", "0")
      .flag("no-clear", "do not clear the terminal between frames (append frames)")
      .flag("once", "poll one document and print it raw (machine-readable), then exit")
      .positional("endpoint", "admin endpoint to poll (host:port — the `admin on` line)");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);

  const auto endpoint = net::UdpEndpoint::parse(cli.get("endpoint"));
  if (!endpoint) throw util::CliError{"endpoint must be host:port (e.g. 127.0.0.1:9053)"};
  const int interval_ms = std::max(50, cli.get_int("interval"));
  const int frames = std::max(0, cli.get_int("frames"));
  const bool clear = !cli.get_flag("no-clear");

  // A serve plane answers /stats.json, a sweep plane /progress.json; probe
  // once so both kinds of endpoint work with the same invocation.
  std::string path = "/stats.json";
  {
    std::string probe_error;
    if (!net::http_get(*endpoint, path, &probe_error)) path = "/progress.json";
  }

  if (cli.get_flag("once")) {
    std::string error;
    const auto body = net::http_get(*endpoint, path, &error);
    if (!body) {
      std::fprintf(stderr, "error: cannot poll %s%s: %s\n", endpoint->to_string().c_str(),
                   path.c_str(), error.c_str());
      return 2;
    }
    std::fputs(body->c_str(), stdout);
    if (!body->empty() && body->back() != '\n') std::fputc('\n', stdout);
    return 0;
  }

  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  std::deque<double> rate_history;
  int rendered = 0;
  while (g_serve_stop == 0) {
    std::string error;
    const auto body = net::http_get(*endpoint, path, &error);
    if (!body) {
      std::fprintf(stderr, "error: cannot poll %s%s: %s\n", endpoint->to_string().c_str(),
                   path.c_str(), error.c_str());
      return 2;
    }
    const auto doc = util::journal::parse_json(*body, &error);
    if (!doc) {
      std::fprintf(stderr, "error: bad %s from %s: %s\n", path.c_str(),
                   endpoint->to_string().c_str(), error.c_str());
      return 2;
    }
    const bool sweep_doc = doc->get_string("schema") == "rdns.sweep-progress.v1";
    if (sweep_doc) {
      const util::journal::JsonValue* rates = doc->find("rows_per_s");
      rate_history.push_back(rates != nullptr ? rates->get_number("1s") : 0.0);
    } else {
      const util::journal::JsonValue* qps = doc->find("qps");
      rate_history.push_back(qps != nullptr ? qps->get_number("1s") : 0.0);
    }
    while (rate_history.size() > 60) rate_history.pop_front();

    if (clear && rendered > 0) std::fputs("\x1b[H\x1b[2J", stdout);
    std::fputs((sweep_doc ? render_sweep_frame(*doc, rate_history)
                          : render_top_frame(*doc, rate_history))
                   .c_str(),
               stdout);
    std::fflush(stdout);
    if (++rendered >= frames && frames > 0) break;
    for (int slept = 0; slept < interval_ms && g_serve_stop == 0; slept += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool verify",
                      "replay an event journal and audit the invariants it must satisfy"};
  cli.option("window", "max simulated seconds between lease end and PTR removal", "120")
      .option("tolerance", "slack (seconds) on promised back-off probe times", "60")
      .option("snapshot", "cross-check provenance against this metrics snapshot JSON",
              std::nullopt)
      .positional("journal", "event journal path (.jsonl)");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);
  record_run_manifest("rdns_tool.verify", 0, nullptr);

  core::AuditConfig config;
  config.removal_window = cli.get_int("window");
  config.probe_tolerance = cli.get_int("tolerance");
  const core::JournalAuditReport report = core::audit_journal_file(cli.get("journal"), config);
  std::fputs(core::render_audit_report(report).c_str(), stdout);
  if (!report.parsed) return 2;

  if (const auto snapshot_path = cli.get_optional("snapshot")) {
    std::ifstream in{*snapshot_path};
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", snapshot_path->c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto doc = util::journal::parse_json(buffer.str(), &error);
    if (!doc) {
      std::fprintf(stderr, "cannot parse %s: %s\n", snapshot_path->c_str(), error.c_str());
      return 2;
    }
    const util::journal::JsonValue* embedded = doc->find("manifest");
    if (embedded == nullptr) {
      std::printf("provenance: %s carries no manifest\n", snapshot_path->c_str());
      return 1;
    }
    std::string why;
    if (!util::journal::manifests_compatible(*report.manifest,
                                             core::manifest_from_json(*embedded), &why)) {
      std::printf("provenance: %s is from a DIFFERENT run (%s differs)\n",
                  snapshot_path->c_str(), why.c_str());
      return 1;
    }
    std::printf("provenance: %s matches the journal (same seed/world/version)\n",
                snapshot_path->c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmd_report(const std::vector<std::string>& args) {
  util::CliParser cli{"rdns_tool report",
                      "fold a run's journal, metrics snapshot and flight dump into one "
                      "rdns.report.v1 document"};
  cli.option("snapshot", "metrics snapshot JSON from the same run (--metrics-out)",
             std::nullopt)
      .option("flight", "flight-recorder JSONL dump from the same run (--flight-out)",
              std::nullopt)
      .option("out", "write the rdns.report.v1 JSON here instead of stdout", std::nullopt)
      .option("markdown", "also write a markdown narrative to this path", std::nullopt)
      .option("title", "report title", "rdns run report")
      .option("window", "max simulated seconds between lease end and PTR removal", "120")
      .option("tolerance", "slack (seconds) on promised back-off probe times", "60")
      .positional("journal", "event journal path (.jsonl)");
  add_common_options(cli);
  if (cli.handle_help(args)) return 0;
  cli.parse(args);
  apply_common_options(cli);
  record_run_manifest("rdns_tool.report", 0, nullptr);

  core::RunReportOptions options;
  options.title = cli.get("title");
  options.audit.removal_window = cli.get_int("window");
  options.audit.probe_tolerance = cli.get_int("tolerance");
  const core::RunReport report =
      core::build_run_report(cli.get("journal"), cli.get_optional("snapshot").value_or(""),
                             cli.get_optional("flight").value_or(""), options);
  if (!report.audit.parsed) {
    std::fprintf(stderr, "error: cannot replay journal %s\n", cli.get("journal").c_str());
    return 2;
  }

  const std::string json = core::render_run_report_json(report);
  if (const auto out_path = cli.get_optional("out")) {
    std::ofstream out{*out_path, std::ios::trunc};
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 2;
    }
    out << json;
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (const auto md_path = cli.get_optional("markdown")) {
    std::ofstream out{*md_path, std::ios::trunc};
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", md_path->c_str());
      return 2;
    }
    out << core::render_run_report_markdown(report);
  }
  for (const auto& problem : report.errors) {
    std::fprintf(stderr, "warning: %s\n", problem.c_str());
  }
  return report.ok() ? 0 : 1;
}

void print_usage() {
  std::printf(
      "rdns_tool — reverse-DNS privacy measurement toolkit\n"
      "subcommands:\n"
      "  sweep     record daily PTR sweeps of a synthetic Internet to CSV\n"
      "  analyze   identification pipeline over a sweep CSV (+ markdown report)\n"
      "  audit     audit a reverse zone file for privacy leaks\n"
      "  campaign  run the supplemental measurement (Tables 3/4/5 summary)\n"
      "  track     follow a given name's devices (Life of Brian)\n"
      "  serve     host a frozen world's reverse zones on a real UDP port\n"
      "  top       live terminal monitor polling a serve or sweep admin endpoint\n"
      "  verify    replay an event journal (--journal-out) and audit invariants\n"
      "  report    fold journal + metrics snapshot + flight dump into rdns.report.v1\n"
      "run `rdns_tool <subcommand> --help` for options\n");
}

}  // namespace

namespace {

int dispatch(const std::string& command, const std::vector<std::string>& args) {
  if (command == "sweep") return cmd_sweep(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "audit") return cmd_audit(args);
  if (command == "campaign") return cmd_campaign(args);
  if (command == "track") return cmd_track(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "top") return cmd_top(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "report") return cmd_report(args);
  print_usage();
  return 2;
}

/// Pre-parse scan for the observability options so collection is enabled
/// before the subcommand builds its parser. Accepts both `--metrics-out
/// PATH` and `--metrics-out=PATH`; stops at `--` like the real parser.
struct ObservabilityOptions {
  std::optional<std::string> metrics_out;
  bool trace = false;
  /// True when `serve --metrics-interval N` (N > 0) streams JSONL snapshots
  /// itself — main() must not overwrite the stream with a final document.
  bool metrics_streamed = false;
};

ObservabilityOptions scan_observability_options(const std::vector<std::string>& args) {
  ObservabilityOptions opts;
  std::string interval;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--") break;
    if (arg == "--trace") opts.trace = true;
    if (arg == "--metrics-out" && i + 1 < args.size()) opts.metrics_out = args[i + 1];
    if (arg.rfind("--metrics-out=", 0) == 0) opts.metrics_out = arg.substr(14);
    if (arg == "--metrics-interval" && i + 1 < args.size()) interval = args[i + 1];
    if (arg.rfind("--metrics-interval=", 0) == 0) interval = arg.substr(19);
  }
  opts.metrics_streamed = !interval.empty() && std::atof(interval.c_str()) > 0;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  const ObservabilityOptions obs = scan_observability_options(args);
  if (obs.metrics_out || obs.trace) {
    util::metrics::set_collect_timing(true);
    util::trace::Tracer::global().set_enabled(true);
  }

  int exit_code = 2;
  try {
    // One root span around the whole dispatch, so the span tree's total
    // wall time tracks the process runtime.
    const auto root = util::trace::Tracer::global().scope("rdns_tool." + command);
    exit_code = dispatch(command, args);
  } catch (const util::CliError& e) {
    std::fprintf(stderr, "error: %s (try `rdns_tool %s --help`)\n", e.what(),
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Flush the journal before the process reports success, so chained
  // tooling (ctest fixtures, `verify`) reads a complete stream.
  util::journal::Journal::global().close();
  if (obs.trace) {
    std::fputs(util::trace::Tracer::global().render_text().c_str(), stderr);
  }
  if (obs.metrics_out && !obs.metrics_streamed) {
    std::ofstream out{*obs.metrics_out};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", obs.metrics_out->c_str());
      return 2;
    }
    util::trace::write_snapshot_json(out, util::metrics::Registry::global(),
                                     util::trace::Tracer::global());
  }
  return exit_code;
}

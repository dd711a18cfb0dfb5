/// SweepProgressPlane: leased seqlock probes, aggregation, the
/// /progress.json + /metrics routes, and the determinism contract (a wire
/// sweep's CSV is byte-identical with the plane armed at any pool size).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "net/admin_http.hpp"
#include "scan/progress.hpp"
#include "scan/rdns_snapshot.hpp"
#include "sim/world.hpp"
#include "test_paths.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace rdns {
namespace {

using scan::SweepProgressPlane;
using util::CivilDate;

TEST(SweepProgressPlane, FoldsLeasedProbesIntoSnapshot) {
  SweepProgressPlane plane;
  plane.begin_pass(10, 0, "2021-11-01", 3600);

  auto* probe = plane.acquire_probe();
  ASSERT_NE(probe, nullptr);
  probe->on_shard_start();
  probe->on_shard_finish(/*rows=*/120, /*queries=*/256, /*retries=*/3, /*degraded=*/false,
                         /*reruns=*/0);
  probe->on_shard_finish(/*rows=*/80, /*queries=*/256, /*retries=*/0, /*degraded=*/true,
                         /*reruns=*/1);
  plane.release_probe(probe);

  plane.aggregate_now();
  const auto snap = plane.snapshot();
  EXPECT_EQ(snap.shards_done, 2u);
  EXPECT_EQ(snap.shards_total, 10u);
  EXPECT_EQ(snap.rows, 200u);
  EXPECT_EQ(snap.queries, 512u);
  EXPECT_EQ(snap.retries, 3u);
  EXPECT_EQ(snap.degraded, 1u);
  EXPECT_EQ(snap.reruns, 1u);
  EXPECT_DOUBLE_EQ(snap.percent, 20.0);
  EXPECT_EQ(snap.day, "2021-11-01");
  EXPECT_EQ(snap.probes, 1u);
}

TEST(SweepProgressPlane, SkippedShardsCountAsDoneImmediately) {
  SweepProgressPlane plane;
  plane.begin_pass(8, 3, "2021-11-02", 0);
  plane.aggregate_now();
  EXPECT_EQ(plane.snapshot().shards_done, 3u);

  auto* probe = plane.acquire_probe();
  probe->on_shard_finish(10, 10, 0, false, 0);
  plane.release_probe(probe);
  plane.aggregate_now();
  const auto snap = plane.snapshot();
  EXPECT_EQ(snap.shards_done, 4u);
  EXPECT_DOUBLE_EQ(snap.percent, 50.0);
}

TEST(SweepProgressPlane, SecondPassRebasesShardCountButKeepsRows) {
  SweepProgressPlane plane;
  plane.begin_pass(4, 0, "2021-11-01", 0);
  auto* probe = plane.acquire_probe();
  for (int i = 0; i < 4; ++i) probe->on_shard_finish(25, 25, 0, false, 0);
  plane.release_probe(probe);
  plane.aggregate_now();
  EXPECT_EQ(plane.snapshot().shards_done, 4u);
  EXPECT_EQ(plane.snapshot().rows, 100u);

  // A new pass (next sweep day) restarts the shard counter; rows stay
  // run-cumulative.
  plane.begin_pass(4, 0, "2021-11-02", 86400);
  plane.aggregate_now();
  const auto snap = plane.snapshot();
  EXPECT_EQ(snap.shards_done, 0u);
  EXPECT_EQ(snap.rows, 100u);
  EXPECT_EQ(snap.day, "2021-11-02");
}

TEST(SweepProgressPlane, ReleasedProbeCarriesTotalsToNextLease) {
  SweepProgressPlane plane;
  plane.begin_pass(4, 0, "2021-11-01", 0);
  auto* first = plane.acquire_probe();
  first->on_shard_finish(10, 10, 1, false, 0);
  plane.release_probe(first);

  // Single free probe: the next lease must reuse it and keep its totals.
  auto* second = plane.acquire_probe();
  EXPECT_EQ(second, first);
  second->on_shard_finish(5, 5, 0, false, 0);
  plane.release_probe(second);

  plane.aggregate_now();
  const auto snap = plane.snapshot();
  EXPECT_EQ(snap.shards_done, 2u);
  EXPECT_EQ(snap.rows, 15u);
  EXPECT_EQ(snap.retries, 1u);
  EXPECT_EQ(snap.probes, 1u);
}

TEST(SweepProgressPlane, ProgressJsonCarriesSchemaAndCounters) {
  SweepProgressPlane plane;
  plane.begin_pass(2, 0, "2021-11-03", 0);
  auto* probe = plane.acquire_probe();
  probe->on_shard_finish(42, 64, 2, false, 0);
  plane.release_probe(probe);
  plane.aggregate_now();

  const std::string json = plane.render_progress_json();
  EXPECT_NE(json.find("\"schema\":\"rdns.sweep-progress.v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slash24_done\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"day\":\"2021-11-03\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows_per_s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"eta_s\""), std::string::npos) << json;
}

TEST(SweepProgressPlane, StatusLineMentionsProgress) {
  SweepProgressPlane plane;
  plane.begin_pass(2, 1, "2021-11-04", 0);
  plane.aggregate_now();
  const std::string line = plane.render_status_line();
  EXPECT_NE(line.find("sweep"), std::string::npos) << line;
  EXPECT_NE(line.find("50.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("2021-11-04"), std::string::npos) << line;
}

TEST(SweepProgressPlane, HttpRoutesServeProgressAndMetrics) {
  SweepProgressPlane plane;
  plane.begin_pass(5, 0, "2021-11-05", 0);
  auto* probe = plane.acquire_probe();
  probe->on_shard_finish(7, 7, 0, false, 0);
  plane.release_probe(probe);
  plane.aggregate_now();

  net::AdminHttpServer http;
  plane.install_http_routes(http);
  std::string error;
  ASSERT_TRUE(http.start(net::UdpEndpoint{0x7f000001u, 0}, &error)) << error;

  const auto progress = net::http_get(http.endpoint(), "/progress.json", &error);
  ASSERT_TRUE(progress.has_value()) << error;
  EXPECT_NE(progress->find("rdns.sweep-progress.v1"), std::string::npos);

  const auto metrics_page = net::http_get(http.endpoint(), "/metrics", &error);
  ASSERT_TRUE(metrics_page.has_value()) << error;
  EXPECT_NE(metrics_page->find("rdns_build_info"), std::string::npos);
  EXPECT_NE(metrics_page->find("rdns_sweep_percent"), std::string::npos);

  const auto index = net::http_get(http.endpoint(), "/", &error);
  ASSERT_TRUE(index.has_value()) << error;
  EXPECT_NE(index->find("/progress.json"), std::string::npos);
  http.stop();
}

/// TSan target: leased publishers hammer the seqlock while the aggregation
/// thread folds at an aggressive interval; the final fold is exact.
TEST(SweepProgressPlane, ConcurrentLeasesAggregateExactly) {
  SweepProgressPlane::Options options;
  options.aggregate_interval_ms = 1;
  options.journal_every = 0;
  SweepProgressPlane plane{options};
  plane.start();
  constexpr int kThreads = 4;
  constexpr int kShardsPerThread = 200;
  plane.begin_pass(kThreads * kShardsPerThread, 0, "2021-11-06", 0);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&plane] {
      for (int i = 0; i < kShardsPerThread; ++i) {
        const scan::ProgressProbeLease lease{&plane};
        ASSERT_NE(lease.probe(), nullptr);
        lease.probe()->on_shard_start();
        lease.probe()->on_shard_finish(3, 4, 1, false, 0);
      }
    });
  }
  for (auto& w : workers) w.join();
  plane.stop();  // final aggregation pass

  const auto snap = plane.snapshot();
  const auto total = static_cast<std::uint64_t>(kThreads) * kShardsPerThread;
  EXPECT_EQ(snap.shards_done, total);
  EXPECT_EQ(snap.rows, 3 * total);
  EXPECT_EQ(snap.queries, 4 * total);
  EXPECT_EQ(snap.retries, total);
  EXPECT_DOUBLE_EQ(snap.percent, 100.0);
  EXPECT_LE(snap.probes, static_cast<std::size_t>(kThreads));
}

/// After end_pass the world simulates on, so an event stamped with the
/// closed pass's instant would land behind newer ones: none may follow.
TEST(SweepProgressPlane, JournalsNothingBetweenEndPassAndNextBeginPass) {
  const std::string path = test::temp_path("sweep_progress_end_pass.events.jsonl");
  auto& journal = util::journal::Journal::global();
  ASSERT_TRUE(journal.open(path));
  SweepProgressPlane::Options options;
  options.journal_every = 1;
  SweepProgressPlane plane{options};

  plane.begin_pass(1, 0, "2021-11-07", 3600);
  auto* probe = plane.acquire_probe();
  probe->on_shard_finish(5, 5, 0, false, 0);
  plane.release_probe(probe);
  plane.aggregate_now();  // open pass: journals one event
  plane.end_pass();
  for (int i = 0; i < 4; ++i) plane.aggregate_now();
  plane.begin_pass(1, 0, "2021-11-08", 90000);
  plane.aggregate_now();  // reopened: journals again
  journal.close();

  std::ifstream in{path};
  std::vector<std::string> days;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"sweep.progress\"") == std::string::npos) continue;
    days.push_back(line.substr(line.find("\"day\":\"") + 7, 10));
  }
  std::remove(path.c_str());
  EXPECT_EQ(days, (std::vector<std::string>{"2021-11-07", "2021-11-08"}));
}

TEST(SweepProgressPlane, NullPlaneLeaseIsInert) {
  const scan::ProgressProbeLease lease{nullptr};
  EXPECT_EQ(lease.probe(), nullptr);
}

/// Determinism contract: arming the plane must not change the sweep CSV.
TEST(SweepProgressPlane, WireSweepCsvUnchangedByArmedPlane) {
  sim::World world;
  sim::OrgSpec o;
  o.name = "progress-target";
  o.type = sim::OrgType::Academic;
  o.suffix = dns::DnsName::must_parse("progress.edu");
  o.announced = {net::Prefix::must_parse("10.91.0.0/22")};
  sim::SegmentSpec wifi;
  wifi.label = "wifi";
  wifi.prefix = net::Prefix::must_parse("10.91.1.0/24");
  wifi.schedule = sim::ScheduleKind::AlwaysOn;
  wifi.user_count = 0;
  wifi.always_on_count = 20;
  o.segments = {wifi};
  o.seed = 777;
  world.add_org(std::move(o));
  world.start(CivilDate{2021, 11, 1}, CivilDate{2021, 11, 2});
  world.run_until(util::to_sim_time(CivilDate{2021, 11, 1}) + 12 * util::kHour);

  std::string baseline;
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool{threads};
    std::ostringstream out;
    scan::CsvSnapshotSink sink{out};

    SweepProgressPlane::Options options;
    options.aggregate_interval_ms = 1;
    options.journal_every = 0;
    SweepProgressPlane plane{options};
    plane.start();
    scan::WireSweepOptions sweep_options;
    sweep_options.progress = &plane;
    const auto rows =
        scan::sweep_wire(world, CivilDate{2021, 11, 1}, sink, nullptr, &pool, sweep_options);
    plane.stop();

    EXPECT_GT(rows, 0u);
    const auto snap = plane.snapshot();
    EXPECT_EQ(snap.rows, rows);
    EXPECT_EQ(snap.shards_done, snap.shards_total);
    if (baseline.empty()) {
      baseline = out.str();
      // Unarmed control: identical world and day, no plane at all.
      std::ostringstream control;
      scan::CsvSnapshotSink control_sink{control};
      scan::sweep_wire(world, CivilDate{2021, 11, 1}, control_sink, nullptr, &pool);
      EXPECT_EQ(control.str(), baseline);
    } else {
      EXPECT_EQ(out.str(), baseline) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace rdns

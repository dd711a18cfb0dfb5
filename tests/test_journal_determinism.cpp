/// End-to-end journal guarantees: the event stream of a campaign + wire
/// sweep is byte-identical at every pool size, a clean journal passes the
/// invariant auditor, and targeted corruptions (a dropped ACK, a forged
/// overlapping lease) are caught by name.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/journal_audit.hpp"
#include "scan/rdns_snapshot.hpp"
#include "scan/reactive.hpp"
#include "sim/world.hpp"
#include "test_paths.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"

namespace rdns {
namespace {

using util::CivilDate;

/// Same recipe as the reactive-engine tests: office-schedule clients on one
/// measured /24, deterministic seeds everywhere.
sim::OrgSpec office_org() {
  sim::OrgSpec o;
  o.name = "Academic-T";
  o.type = sim::OrgType::Academic;
  o.suffix = dns::DnsName::must_parse("reactive-test.edu");
  o.announced = {net::Prefix::must_parse("10.91.0.0/16")};
  o.measurement_targets = {net::Prefix::must_parse("10.91.64.0/24")};
  sim::SegmentSpec seg;
  seg.label = "wifi";
  seg.prefix = net::Prefix::must_parse("10.91.64.0/24");
  seg.schedule = sim::ScheduleKind::OfficeWorker;
  seg.user_count = 25;
  seg.lease_seconds = 3600;
  o.segments = {seg};
  o.seed = 4242;
  return o;
}

/// Run the full producer set (DHCP/DDNS via the world, the reactive
/// campaign, one parallel wire sweep) with the global journal armed and
/// `threads` workers; returns the journal bytes.
std::string journaled_run(unsigned threads, const std::string& path) {
  auto& journal = util::journal::Journal::global();
  util::journal::RunManifest manifest;
  manifest.tool = "test.journal_determinism";
  manifest.version = util::journal::version_string();
  manifest.seed = 99;
  manifest.threads = threads;
  journal.set_manifest(manifest);
  EXPECT_TRUE(journal.open(path));

  auto world = std::make_unique<sim::World>();
  world->add_org(office_org());
  world->start(CivilDate{2021, 11, 1}, CivilDate{2021, 11, 5});

  scan::ReactiveEngine::Config config;
  config.seed = 99;
  scan::ReactiveEngine engine{
      *world, {{"Academic-T", {net::Prefix::must_parse("10.91.64.0/24")}}}, config};
  engine.run(util::to_sim_time(CivilDate{2021, 11, 1}),
             util::to_sim_time(CivilDate{2021, 11, 4}));

  util::ThreadPool pool{threads};
  std::ostringstream csv;
  scan::CsvSnapshotSink sink{csv};
  scan::sweep_wire(*world, CivilDate{2021, 11, 4}, sink, nullptr, &pool);

  journal.close();
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class JournalDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string path = test::temp_path("test_journal_determinism.events.jsonl");
    baseline_ = new std::string{journaled_run(1, path)};
    std::remove(path.c_str());
  }
  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
  }

  static const std::string& baseline() { return *baseline_; }

 private:
  static std::string* baseline_;
};

std::string* JournalDeterminism::baseline_ = nullptr;

TEST_F(JournalDeterminism, ByteIdenticalAcrossPoolSizes) {
  ASSERT_FALSE(baseline().empty());
  for (const unsigned threads : {4u, 8u}) {
    const std::string path = test::temp_path("test_journal_determinism_" +
                                             std::to_string(threads) + ".events.jsonl");
    const std::string journal = journaled_run(threads, path);
    EXPECT_EQ(journal, baseline()) << threads << " threads";
    std::remove(path.c_str());
  }
}

TEST_F(JournalDeterminism, CleanJournalPassesAudit) {
  const auto report = core::audit_journal_text(baseline());
  EXPECT_TRUE(report.parsed);
  for (const auto& v : report.violations) {
    ADD_FAILURE() << "line " << v.line << ": " << v.invariant << ": " << v.detail;
  }
  EXPECT_TRUE(report.ok());
  ASSERT_TRUE(report.manifest.has_value());
  EXPECT_EQ(report.manifest->seed, 99u);
  EXPECT_GT(report.leases_started, 0u);
  EXPECT_EQ(report.ptr_added, report.leases_started);
  EXPECT_GT(report.timing.usable_groups, 0u);
  // Fig. 7 cross-check: the event-derived linger CDF agrees with the one
  // core/timing computes over the group summaries.
  EXPECT_NEAR(report.timing.fraction_within_60min,
              report.timing.summary_fraction_within_60min, 1e-9);
}

/// First line matching `needle`, as [start, end) byte offsets including the
/// trailing newline; npos when absent.
std::pair<std::size_t, std::size_t> find_line(const std::string& text,
                                              const std::string& needle) {
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {std::string::npos, std::string::npos};
  const std::size_t start = text.rfind('\n', at) + 1;  // 0 when on line one
  const std::size_t end = text.find('\n', at) + 1;
  return {start, end};
}

TEST_F(JournalDeterminism, AuditCatchesDanglingPtrAdd) {
  // Drop the first new-lease ACK: the bridge's PTR add for that address now
  // has no bound lease behind it.
  const auto [start, end] = find_line(baseline(), "\"renew\":false");
  ASSERT_NE(start, std::string::npos);
  std::string corrupted = baseline();
  corrupted.erase(start, end - start);

  const auto report = core::audit_journal_text(corrupted);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) found |= v.invariant == "ptr-add-without-ack";
  EXPECT_TRUE(found) << render_audit_report(report);
}

TEST_F(JournalDeterminism, AuditCatchesOverlappingLeases) {
  // Forge a second new-lease ACK for the same address from a different
  // client while the first lease is still live.
  const auto [start, end] = find_line(baseline(), "\"renew\":false");
  ASSERT_NE(start, std::string::npos);
  std::string ack = baseline().substr(start, end - start);
  const std::size_t mac = ack.find("\"mac\":\"");
  ASSERT_NE(mac, std::string::npos);
  ack.replace(mac + 7, 17, "02:00:00:00:00:01");
  std::string corrupted = baseline();
  corrupted.insert(end, ack);

  const auto report = core::audit_journal_text(corrupted);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) found |= v.invariant == "overlapping-leases";
  EXPECT_TRUE(found) << render_audit_report(report);
}

}  // namespace
}  // namespace rdns

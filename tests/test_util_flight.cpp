/// util::FlightRecorder: ring wrap-around accounting, concurrent writers
/// (the TSan matrix leg runs this suite), drain determinism and the
/// rdns.flight.v1 JSONL dump shape.

#include "util/flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.hpp"

namespace {

using namespace rdns;
using util::flight::Event;
using util::flight::FlightRecorder;
using util::flight::Kind;

TEST(FlightRecorder, DisarmedRecordsNothing) {
  FlightRecorder recorder;
  recorder.record(Kind::QueryIssue, 1, 2);
  std::vector<Event> events;
  const auto stats = recorder.drain(events);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_TRUE(events.empty());
}

TEST(FlightRecorder, RecordsAndDrainsInOrder) {
  FlightRecorder recorder;
  recorder.arm(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(Kind::QueryIssue, 100 + i, i);
  }
  std::vector<Event> events;
  const auto stats = recorder.drain(events);
  EXPECT_EQ(stats.events, 10u);
  EXPECT_EQ(stats.dropped, 0u);
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].a, 100 + i);
    EXPECT_EQ(events[i].b, i);
    EXPECT_EQ(events[i].kind, static_cast<std::uint16_t>(Kind::QueryIssue));
  }
  // A second drain sees nothing new.
  events.clear();
  EXPECT_EQ(recorder.drain(events).events, 0u);
}

TEST(FlightRecorder, PayloadRoundTripsAllKinds) {
  FlightRecorder recorder;
  recorder.arm(64);
  for (std::size_t k = 0; k < util::flight::kKindCount; ++k) {
    recorder.record(static_cast<Kind>(k), 0xFFFF'FFFF'FFFF'FFFFULL, 0xFFFF'FFFFULL);
  }
  std::vector<Event> events;
  recorder.drain(events);
  ASSERT_EQ(events.size(), util::flight::kKindCount);
  for (std::size_t k = 0; k < util::flight::kKindCount; ++k) {
    EXPECT_EQ(events[k].kind, k);
    EXPECT_EQ(events[k].a, 0xFFFF'FFFF'FFFF'FFFFULL);
    EXPECT_EQ(events[k].b, 0xFFFF'FFFFu);
    EXPECT_STRNE(util::flight::to_string(static_cast<Kind>(k)), "?");
  }
}

TEST(FlightRecorder, WrapAroundKeepsNewestAndCountsDrops) {
  FlightRecorder recorder;
  recorder.arm(16);  // power of two already
  ASSERT_EQ(recorder.ring_capacity(), 16u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    recorder.record(Kind::Retry, i, 0);
  }
  std::vector<Event> events;
  const auto stats = recorder.drain(events);
  EXPECT_EQ(stats.events, 16u);
  EXPECT_EQ(stats.dropped, 84u);
  ASSERT_EQ(events.size(), 16u);
  // The ring keeps the newest 16 events, still in sequence order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 84 + i);
    EXPECT_EQ(events[i].a, 84 + i);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder;
  recorder.arm(100);
  EXPECT_EQ(recorder.ring_capacity(), 128u);
}

TEST(FlightRecorder, ConcurrentWritersDrainExactlyOnce) {
  FlightRecorder recorder;
  recorder.arm(1 << 12);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(Kind::QueryDone, static_cast<std::uint64_t>(t), i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<Event> events;
  const auto stats = recorder.drain(events);
  EXPECT_EQ(stats.events, kThreads * kPerThread);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, static_cast<std::size_t>(kThreads));
  // Global sequence numbers are unique and strictly increasing after the
  // drain's merge sort; per-thread payloads arrive in their issue order.
  std::vector<std::uint64_t> next_b(kThreads, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    ASSERT_LT(events[i].a, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(events[i].b, next_b[events[i].a]++);
  }
}

TEST(FlightRecorder, DrainWhileWritersAreLiveNeverDuplicates) {
  FlightRecorder recorder;
  recorder.arm(64);  // tiny ring: force wraps during the drain loop
  std::atomic<bool> stop{false};
  std::thread writer{[&recorder, &stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.record(Kind::ProbeSent, i++, 0);
    }
  }};
  std::vector<Event> events;
  for (int round = 0; round < 50; ++round) {
    recorder.drain(events);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  recorder.drain(events);
  // Exactly-once: payloads (== per-writer issue index) strictly increase,
  // so no drained event is ever a duplicate or torn copy.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].a, events[i].a);
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorder, JsonlDumpShape) {
  FlightRecorder recorder;
  recorder.arm(64);
  recorder.record(Kind::ShardStart, 0x0A000000, 0);
  recorder.record(Kind::ShardFinish, 256, 0);
  std::ostringstream out;
  const auto stats = recorder.drain_jsonl(out);
  EXPECT_EQ(stats.events, 2u);
  std::istringstream in{out.str()};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"schema\":\"rdns.flight.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"segment\":1"), std::string::npos);
  EXPECT_NE(line.find("\"events\":2"), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"kind\":\"shard.start\""), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"kind\":\"shard.finish\""), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));

  // A second dump is a new segment, containing only newer events.
  recorder.record(Kind::ShardDegrade, 1, 1);
  std::ostringstream out2;
  recorder.drain_jsonl(out2);
  EXPECT_NE(out2.str().find("\"segment\":2"), std::string::npos);
  EXPECT_NE(out2.str().find("\"events\":1"), std::string::npos);
}

TEST(FlightRecorder, DumpPathAppendsSegments) {
  const std::string path = test::temp_path("flight_test_dump.jsonl");
  {
    FlightRecorder recorder;
    recorder.arm(64);
    recorder.set_dump_path(path);
    recorder.record(Kind::Backoff, 2, 1);
    std::string error;
    ASSERT_TRUE(recorder.dump_now(&error)) << error;
    recorder.record(Kind::Backoff, 4, 2);
    ASSERT_TRUE(recorder.dump_now(&error)) << error;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"segment\":1"), std::string::npos);
  EXPECT_NE(text.find("\"segment\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpWithoutPathFails) {
  FlightRecorder recorder;
  std::string error;
  EXPECT_FALSE(recorder.dump_now(&error));
  EXPECT_NE(error.find("no flight dump path"), std::string::npos);
}

TEST(FlightRecorder, GlobalGateHelpers) {
  EXPECT_EQ(util::flight::active(), nullptr);
  FlightRecorder::global().arm();
  EXPECT_EQ(util::flight::active(), &FlightRecorder::global());
  util::flight::record(Kind::QueryIssue, 7, 0);
  FlightRecorder::global().disarm();
  EXPECT_EQ(util::flight::active(), nullptr);
  std::vector<Event> events;
  const auto stats = FlightRecorder::global().drain(events);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_EQ(events[0].a, 7u);
}

}  // namespace

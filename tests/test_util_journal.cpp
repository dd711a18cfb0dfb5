/// Tests for the event journal: line rendering and escaping, buffers, the
/// global-journal file lifecycle, manifest serialization/compatibility, and
/// the minimal JSON reader the auditor replays with.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "test_paths.hpp"
#include "util/journal.hpp"

namespace rdns::util::journal {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JournalEvent, RendersInsertionOrderedLine) {
  Event e{"dhcp.ack", 3600};
  e.str("ip", "10.0.0.7").str("mac", "02:00:00:00:00:01").boolean("renew", false);
  e.num("delta", -5).unum("big", 9007199254740993ULL).real("frac", 0.5);
  EXPECT_EQ(e.line(),
            "{\"t\":3600,\"type\":\"dhcp.ack\",\"ip\":\"10.0.0.7\","
            "\"mac\":\"02:00:00:00:00:01\",\"renew\":false,\"delta\":-5,"
            "\"big\":9007199254740993,\"frac\":0.5}\n");
}

TEST(JournalEvent, EscapesStrings) {
  Event e{"dns.lookup", 0};
  e.str("qname", "a\"b\\c\n\tcontrol:\x01");
  const std::string line = e.line();
  EXPECT_NE(line.find("a\\\"b\\\\c\\n\\tcontrol:\\u0001"), std::string::npos);
  // The escaped line must round-trip through the reader.
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("qname"), "a\"b\\c\n\tcontrol:\x01");
}

TEST(JournalBuffer, AccumulatesAndTakes) {
  Buffer buf;
  EXPECT_TRUE(buf.empty());
  buf.emit(Event{"sweep.shard", 10});
  buf.emit(Event{"sweep.shard", 20});
  EXPECT_FALSE(buf.empty());
  const std::string lines = buf.take();
  EXPECT_EQ(lines,
            "{\"t\":10,\"type\":\"sweep.shard\"}\n"
            "{\"t\":20,\"type\":\"sweep.shard\"}\n");
  EXPECT_TRUE(buf.empty());
}

TEST(Journal, FileLifecycleWritesHeaderThenEvents) {
  const std::string path = rdns::test::temp_path("test_util_journal_lifecycle.jsonl");
  RunManifest m;
  m.tool = "test";
  m.version = version_string();
  m.seed = 42;
  m.world_digest = 0xDEADBEEFULL;
  m.threads = 8;

  Journal j;
  EXPECT_FALSE(j.enabled());
  j.set_manifest(m);
  ASSERT_TRUE(j.open(path));
  EXPECT_TRUE(j.enabled());
  j.emit(Event{"dhcp.discover", 5});
  Buffer buf;
  buf.emit(Event{"sweep.shard", 6});
  j.append_raw(buf.take());
  j.close();
  EXPECT_FALSE(j.enabled());

  const std::string text = slurp(path);
  EXPECT_EQ(text, manifest_event_line(m) +
                      "{\"t\":5,\"type\":\"dhcp.discover\"}\n"
                      "{\"t\":6,\"type\":\"sweep.shard\"}\n");
  std::remove(path.c_str());
}

TEST(Journal, OpenFailureLeavesDisabled) {
  Journal j;
  EXPECT_FALSE(j.open("no-such-dir/journal.jsonl"));
  EXPECT_FALSE(j.enabled());
}

TEST(Manifest, HeaderLineIsManifestEventWithoutThreads) {
  RunManifest m;
  m.tool = "rdns_tool.campaign";
  m.version = "1.2.3";
  m.seed = 7;
  m.world_digest = 0x0123456789ABCDEFULL;
  m.threads = 16;

  const std::string line = manifest_event_line(m);
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_int("t"), 0);
  EXPECT_EQ(parsed->get_string("type"), "manifest");
  EXPECT_EQ(parsed->get_string("tool"), "rdns_tool.campaign");
  EXPECT_EQ(parsed->get_int("seed"), 7);
  EXPECT_EQ(parsed->get_string("world_digest"), "0123456789abcdef");
  EXPECT_EQ(parsed->get_string("events_schema"), kEventsSchema);
  // The stream is thread-invariant, so the header must not pin a count.
  EXPECT_FALSE(parsed->has("threads"));
  // The snapshot form carries it.
  const auto snapshot = parse_json(manifest_json(m));
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->get_int("threads"), 16);
}

TEST(Manifest, CompatibilityIgnoresThreads) {
  RunManifest a;
  a.tool = "rdns_tool.campaign";
  a.version = "1.2.3";
  a.seed = 5;
  a.world_digest = 99;
  a.threads = 1;
  RunManifest b = a;
  b.tool = "rdns_tool.sweep";  // tool may differ (journal vs snapshot writer)
  b.threads = 8;
  std::string why;
  EXPECT_TRUE(manifests_compatible(a, b, &why)) << why;

  b.seed = 6;
  EXPECT_FALSE(manifests_compatible(a, b, &why));
  EXPECT_NE(why.find("seed"), std::string::npos);

  b = a;
  b.world_digest = 100;
  EXPECT_FALSE(manifests_compatible(a, b, &why));
  EXPECT_NE(why.find("digest"), std::string::npos);

  b = a;
  b.version = "9.9.9";
  EXPECT_FALSE(manifests_compatible(a, b, &why));
  EXPECT_NE(why.find("version"), std::string::npos);
}

TEST(ParseJson, ValidDocuments) {
  const auto v = parse_json(
      R"({"a": 1, "b": -2.5, "c": "xA\n", "d": true, "e": null,)"
      R"( "f": [1, "two", {"g": false}]})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, JsonValue::Kind::Object);
  EXPECT_EQ(v->get_int("a"), 1);
  EXPECT_DOUBLE_EQ(v->get_number("b"), -2.5);
  EXPECT_EQ(v->get_string("c"), "xA\n");
  EXPECT_TRUE(v->get_bool("d"));
  ASSERT_NE(v->find("e"), nullptr);
  EXPECT_EQ(v->find("e")->kind, JsonValue::Kind::Null);
  const JsonValue* f = v->find("f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->array.size(), 3u);
  EXPECT_EQ(f->array[1].string, "two");
  EXPECT_EQ(f->array[2].get_bool("g", true), false);
  // Defaults on missing keys.
  EXPECT_EQ(v->get_int("missing", -7), -7);
  EXPECT_EQ(v->get_string("missing", "def"), "def");
}

TEST(ParseJson, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":}", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace rdns::util::journal

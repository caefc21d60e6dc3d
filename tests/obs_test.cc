// Tests for the observability layer: JSON writer/parser round-trips and span
// tracing (nesting, ring overflow, Chrome export invariants, counter tracks).
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/util/units.h"

namespace bkup {
namespace {

// ------------------------------------------------------------------ JSON ---

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject()
      .Field("name", "say \"hi\"\n\t\\")
      .Field("count", uint64_t{42})
      .Field("delta", int64_t{-7})
      .Field("ratio", 0.5)
      .Field("on", true)
      .Key("items")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .Key("nothing")
      .Null()
      .EndObject();
  const std::string text = w.Take();

  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  EXPECT_EQ(v["name"].string_value(), "say \"hi\"\n\t\\");
  EXPECT_EQ(v["count"].int_value(), 42);
  EXPECT_EQ(v["delta"].int_value(), -7);
  EXPECT_DOUBLE_EQ(v["ratio"].number(), 0.5);
  EXPECT_TRUE(v["on"].bool_value());
  ASSERT_TRUE(v["items"].is_array());
  EXPECT_EQ(v["items"].array().size(), 2u);
  EXPECT_TRUE(v["nothing"].is_null());
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject()
      .Field("inf", std::numeric_limits<double>::infinity())
      .Field("nan", std::nan(""))
      .EndObject();
  auto parsed = ParseJson(w.Take());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["inf"].is_null());
  EXPECT_TRUE((*parsed)["nan"].is_null());
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(JsonParseTest, NestedLookupNeverCrashes) {
  auto parsed = ParseJson(R"({"a": {"b": [10, 20]}})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& v = *parsed;
  EXPECT_EQ(v["a"]["b"].array()[1].int_value(), 20);
  // Missing paths resolve to null values, not crashes.
  EXPECT_TRUE(v["a"]["missing"]["deeper"].is_null());
  EXPECT_EQ(v.Find("absent"), nullptr);
}

// --------------------------------------------------------------- tracing ---

Task TracedWork(SimEnvironment* env) {
  TRACE_SPAN(env, "job:test", "outer");
  co_await env->Delay(10 * kMillisecond);
  {
    TRACE_SPAN(env, "job:test", "inner");
    co_await env->Delay(5 * kMillisecond);
  }
  co_await env->Delay(10 * kMillisecond);
}

TEST(TracerTest, SpansNestAndStampSimulatedTime) {
  SimEnvironment env;
  Tracer tracer(&env);
  env.Spawn(TracedWork(&env));
  env.Run();

  // outer-begin, inner-begin, inner-end, outer-end.
  ASSERT_EQ(tracer.event_count(), 4u);
  const auto& ev = tracer.events();
  EXPECT_EQ(ev[0].kind, TraceEvent::Kind::kBegin);
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].ts, 0);
  EXPECT_EQ(ev[1].kind, TraceEvent::Kind::kBegin);
  EXPECT_EQ(ev[1].name, "inner");
  EXPECT_EQ(ev[1].ts, 10 * kMillisecond);
  EXPECT_EQ(ev[2].kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(ev[2].ts, 15 * kMillisecond);
  EXPECT_EQ(ev[3].kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(ev[3].ts, 25 * kMillisecond);
  // Both spans share the one named track.
  EXPECT_EQ(tracer.track_count(), 1u);
  EXPECT_EQ(ev[0].track, ev[1].track);
}

TEST(TracerTest, MacrosNoOpWithoutTracer) {
  SimEnvironment env;
  ASSERT_EQ(env.tracer(), nullptr);
  env.Spawn(TracedWork(&env));  // must not crash
  const SimTime end = env.Run();
  EXPECT_EQ(end, 25 * kMillisecond);
}

TEST(TracerTest, AttachesAndDetachesFromEnvironment) {
  SimEnvironment env;
  {
    Tracer tracer(&env);
    EXPECT_EQ(env.tracer(), &tracer);
  }
  EXPECT_EQ(env.tracer(), nullptr);
}

TEST(TracerTest, RingOverflowDropsOldest) {
  SimEnvironment env;
  Tracer tracer(&env, /*capacity=*/4);
  const uint32_t track = tracer.Track("t");
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(track, "ev" + std::to_string(i));
  }
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Recent history wins: the survivors are the last four.
  EXPECT_EQ(tracer.events().front().name, "ev6");
  EXPECT_EQ(tracer.events().back().name, "ev9");
}

Task HoldResource(SimEnvironment* env, Resource* res, SimDuration lead,
                  SimDuration hold) {
  co_await env->Delay(lead);
  co_await res->Acquire();
  co_await env->Delay(hold);
  res->Release();
}

TEST(TracerTest, WatchedResourceEmitsCounterTrack) {
  SimEnvironment env;
  Resource res(&env, 2, "disk.arm");
  Tracer tracer(&env);
  tracer.WatchResource(&res);

  env.Spawn(HoldResource(&env, &res, 0, 10 * kMillisecond));
  env.Spawn(HoldResource(&env, &res, 0, 20 * kMillisecond));
  env.Run();

  // Initial sample + 2 acquires + 2 releases.
  std::vector<double> values;
  for (const TraceEvent& e : tracer.events()) {
    ASSERT_EQ(e.kind, TraceEvent::Kind::kCounter);
    values.push_back(e.value);
  }
  EXPECT_EQ(values, (std::vector<double>{0, 1, 2, 1, 0}));

  // The track is an exact occupancy record: each sample holds until the
  // next, so integrating it reproduces the resource's busy integral.
  const std::deque<TraceEvent>& events = tracer.events();
  int64_t busy = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    busy += static_cast<int64_t>(events[i].value) *
            (events[i + 1].ts - events[i].ts);
  }
  EXPECT_EQ(busy, res.BusyIntegral());
  EXPECT_EQ(busy, 30 * kMillisecond);
}

// Chrome-export invariants: parses, one thread_name record per track,
// balanced B/E per track, and per-track monotonically non-decreasing ts.
TEST(TracerTest, ChromeJsonExportInvariants) {
  SimEnvironment env;
  Resource res(&env, 1, "cpu");
  Tracer tracer(&env);
  tracer.WatchResource(&res);
  env.Spawn(TracedWork(&env));
  env.Spawn(HoldResource(&env, &res, 2 * kMillisecond, 6 * kMillisecond));
  tracer.Instant(tracer.Track("faults"), "disk.retry");
  env.Run();

  auto parsed = ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& events = (*parsed)["traceEvents"];
  ASSERT_TRUE(events.is_array());

  size_t thread_metadata = 0;
  size_t process_metadata = 0;
  std::map<int64_t, int64_t> last_ts_by_tid;
  std::map<int64_t, int64_t> open_spans_by_tid;
  for (const JsonValue& e : events.array()) {
    const std::string& ph = e["ph"].string_value();
    if (ph == "M") {
      const std::string& kind = e["name"].string_value();
      if (kind == "process_name") {
        ++process_metadata;
      } else {
        EXPECT_EQ(kind, "thread_name");
        ++thread_metadata;
      }
      continue;
    }
    const int64_t tid = e["tid"].int_value();
    const int64_t ts = e["ts"].int_value();
    auto [it, first] = last_ts_by_tid.try_emplace(tid, ts);
    if (!first) {
      EXPECT_GE(ts, it->second) << "ts regressed on tid " << tid;
      it->second = ts;
    }
    if (ph == "B") {
      ++open_spans_by_tid[tid];
    } else if (ph == "E") {
      --open_spans_by_tid[tid];
      EXPECT_GE(open_spans_by_tid[tid], 0);
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected ph " << ph;
    }
  }
  // 3 tracks: the span track, the faults track, the cpu counter track —
  // all on the default "filer" process row.
  EXPECT_EQ(thread_metadata, tracer.track_count());
  EXPECT_EQ(process_metadata, tracer.process_count());
  EXPECT_EQ(tracer.track_count(), 3u);
  EXPECT_EQ(tracer.process_count(), 1u);
  for (const auto& [tid, open] : open_spans_by_tid) {
    EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
  }
}

// Cross-node context: spans on two process rows under one trace id, flow
// arrows between them, and the incarnation label all survive the export.
TEST(TracerTest, ProcessRowsFlowsAndContextExport) {
  SimEnvironment env;
  Resource res(&env, 1, "cpu");
  Tracer tracer(&env);
  tracer.WatchResource(&res);
  env.Spawn(HoldResource(&env, &res, 0, 1 * kMillisecond));

  const TraceContext ctx = tracer.StartTrace();
  ASSERT_TRUE(ctx.valid());
  const uint32_t filer_track = tracer.Track("job:x");
  const uint32_t vault_track = tracer.Track("srv:vault",
                                            tracer.Process("vault"));
  EXPECT_EQ(tracer.track_pid(filer_track), 1u);
  EXPECT_EQ(tracer.track_pid(vault_track), 2u);

  const uint64_t flow = tracer.ReserveFlowIds() | 7;
  tracer.Begin(filer_track, "send", ctx);
  tracer.FlowStart(filer_track, flow, "frame", ctx);
  tracer.Begin(vault_track, "recv", ctx.NextIncarnation());
  tracer.FlowEnd(vault_track, flow, "frame", ctx);
  tracer.End(vault_track);
  tracer.End(filer_track);
  env.Run();

  auto parsed = ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE((*parsed)["otherData"]["dropped_events"].is_number());

  std::map<int64_t, std::set<int64_t>> pids_by_trace;
  std::set<std::string> process_names;
  int64_t max_incarnation = 0;
  size_t flow_starts = 0;
  size_t flow_ends = 0;
  for (const JsonValue& e : (*parsed)["traceEvents"].array()) {
    const std::string& ph = e["ph"].string_value();
    if (ph == "M" && e["name"].string_value() == "process_name") {
      process_names.insert(e["args"]["name"].string_value());
    }
    if (e["args"]["trace"].is_number()) {
      pids_by_trace[e["args"]["trace"].int_value()].insert(
          e["pid"].int_value());
      max_incarnation =
          std::max(max_incarnation, e["args"]["incarnation"].int_value());
    }
    if (ph == "s") {
      EXPECT_TRUE(e["id"].is_number());
      ++flow_starts;
    } else if (ph == "f") {
      EXPECT_TRUE(e["id"].is_number());
      ++flow_ends;
    }
  }
  EXPECT_EQ(process_names,
            (std::set<std::string>{"filer", "vault"}));
  ASSERT_EQ(pids_by_trace.size(), 1u) << "one logical job = one trace id";
  EXPECT_EQ(pids_by_trace.begin()->second.size(), 2u)
      << "the trace id must span both process rows";
  EXPECT_EQ(max_incarnation, 1);
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_ends, 1u);
}

// Satellite contract: the ring's drop counter is visible in the artifact.
TEST(TracerTest, DroppedEventsSurfaceInExportMetadata) {
  SimEnvironment env;
  Tracer tracer(&env, /*capacity=*/4);
  const uint32_t track = tracer.Track("t");
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(track, "ev" + std::to_string(i));
  }
  auto parsed = ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)["otherData"]["dropped_events"].int_value(), 6);
}

// ------------------------------------------------------- JSON edge cases ---

// Deep nesting keeps the writer's balance bookkeeping and the parser's
// recursion honest all the way down and back. 30 object+array pairs stays
// inside the parser's 64-level recursion cap; one past it must fail
// cleanly, not overflow the stack.
TEST(JsonEdgeTest, DeepNestingRoundTrips) {
  constexpr int kDepth = 30;
  JsonWriter w;
  for (int i = 0; i < kDepth; ++i) {
    w.BeginObject().Key("a").BeginArray();
  }
  w.Int(7);
  for (int i = 0; i < kDepth; ++i) {
    w.EndArray().EndObject();
  }
  auto parsed = ParseJson(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* v = &*parsed;
  for (int i = 0; i < kDepth; ++i) {
    v = &(*v)["a"];
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->array().size(), 1u);
    v = &v->array()[0];
  }
  EXPECT_EQ(v->int_value(), 7);

  std::string too_deep(65, '[');
  too_deep += "1";
  too_deep.append(65, ']');
  EXPECT_FALSE(ParseJson(too_deep).ok());
}

// UTF-8 multi-byte sequences pass through the escaper byte-for-byte;
// control characters go out as \u00XX and come back as the raw bytes.
TEST(JsonEdgeTest, Utf8AndControlCharsRoundTrip) {
  const std::string utf8 = "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x92\xbe";
  const std::string control = "a" "\x01" "b" "\x1f" "c" "\x7f";
  JsonWriter w;
  w.BeginObject().Field("utf8", utf8).Field("ctl", control).EndObject();
  const std::string doc = w.Take();
  // The escaper must not mangle multi-byte sequences into \u escapes.
  EXPECT_NE(doc.find(utf8), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\\u001f"), std::string::npos);

  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)["utf8"].string_value(), utf8);
  EXPECT_EQ((*parsed)["ctl"].string_value(), control);
}

// Non-finite doubles become null in every writer path that emits a double.
TEST(JsonEdgeTest, NonFiniteDoublesInNestedStructures) {
  JsonWriter w;
  w.BeginObject()
      .Key("series")
      .BeginArray()
      .Double(1.5)
      .Double(std::nan(""))
      .Double(std::numeric_limits<double>::infinity())
      .Double(-std::numeric_limits<double>::infinity())
      .EndArray()
      .EndObject();
  auto parsed = ParseJson(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& series = (*parsed)["series"].array();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_TRUE(series[0].is_number());
  EXPECT_TRUE(series[1].is_null());
  EXPECT_TRUE(series[2].is_null());
  EXPECT_TRUE(series[3].is_null());
}

}  // namespace
}  // namespace bkup

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/bench_report.h"
#include "obs/dist/shard.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lamp::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Replacing keeps the original position.
  obj.Set("zeta", 9);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":9,\"alpha\":2,\"mid\":3}");
}

TEST(JsonTest, EscapingSpecialCharacters) {
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJson(std::string_view("\x01", 1)), "\\u0001");
  // A string containing every escape class round-trips through
  // Dump -> Parse.
  const std::string nasty = "quote\" back\\slash \n\r\t ctrl\x02 utf8 \xC3\xA9";
  const JsonValue v(nasty);
  const auto parsed = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), nasty);
}

TEST(JsonTest, ParseUnicodeEscapes) {
  const auto bmp = JsonValue::Parse("\"\\u00e9\"");
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->AsString(), "\xC3\xA9");  // e-acute as UTF-8.
  // Surrogate pair: U+1F600.
  const auto astral = JsonValue::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(astral.has_value());
  EXPECT_EQ(astral->AsString(), "\xF0\x9F\x98\x80");
  // Lone high surrogate is rejected.
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"").has_value());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("'single'").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  // The parser recurses once per nesting level; a hostile document must
  // be rejected, not overflow the stack.
  const auto nested = [](std::size_t depth, char open, char close) {
    std::string text(depth, open);
    text.append(depth, close);
    return text;
  };
  EXPECT_FALSE(JsonValue::Parse(nested(100000, '[', ']')).has_value());
  EXPECT_FALSE(JsonValue::Parse(nested(JsonValue::kMaxParseDepth + 1, '[',
                                       ']')).has_value());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(JsonValue::Parse(objects).has_value());

  const auto deep = JsonValue::Parse(nested(1000, '[', ']'));
  ASSERT_TRUE(deep.has_value());
  EXPECT_TRUE(deep->IsArray());
  // Depth counts nesting, not the number of containers.
  std::string wide = "[";
  for (int i = 0; i < 5000; ++i) wide += i == 0 ? "[[]]" : ",[[]]";
  wide += "]";
  EXPECT_TRUE(JsonValue::Parse(wide).has_value());
}

TEST(JsonTest, AsIntSaturatesOutOfRangeNumbers) {
  const auto value = [](const char* text) {
    return JsonValue::Parse(text)->AsInt();
  };
  EXPECT_EQ(value("1e300"), INT64_MAX);
  EXPECT_EQ(value("1e999"), INT64_MAX);  // Parses as infinity.
  EXPECT_EQ(value("-1e300"), INT64_MIN);
  EXPECT_EQ(value("-1e999"), INT64_MIN);
  EXPECT_EQ(value("9.3e18"), INT64_MAX);
  EXPECT_EQ(value("2.5"), 2);
  EXPECT_EQ(value("-2.5"), -2);
  EXPECT_EQ(JsonValue(std::nan("")).AsInt(), 0);
}

TEST(JsonTest, ExactIntegersRoundTrip) {
  const std::int64_t big = 9007199254740993;  // 2^53 + 1: not a double.
  JsonValue v(big);
  const auto parsed = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsInt(), big);
}

TEST(JsonTest, NestedRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", "bench");
  JsonValue arr = JsonValue::Array();
  arr.PushBack(1);
  arr.PushBack(2.5);
  arr.PushBack(JsonValue());
  obj.Set("xs", std::move(arr));
  JsonValue inner = JsonValue::Object();
  inner.Set("flag", true);
  obj.Set("inner", std::move(inner));

  const auto parsed = JsonValue::Parse(obj.Dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Dump(), obj.Dump());
  const JsonValue* xs = parsed->Find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ(xs->at(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(xs->at(1).AsDouble(), 2.5);
  EXPECT_TRUE(xs->at(2).IsNull());
}

// ------------------------------------------------------------- Metrics --

TEST(MetricsTest, CounterAndGauge) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.Empty());
  EXPECT_EQ(registry.CounterValue("absent"), 0u);

  registry.GetCounter("c").Increment();
  registry.GetCounter("c").Add(4);
  EXPECT_EQ(registry.CounterValue("c"), 5u);

  Gauge& g = registry.GetGauge("g");
  g.Max(3.0);
  g.Max(1.0);  // Not larger: ignored.
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Set(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);

  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindHistogram("c"), nullptr);
  EXPECT_FALSE(registry.Empty());
}

TEST(MetricsTest, EmptyHistogramIsAllZero) {
  // Every accessor is a total function on the empty histogram (the
  // documented contract in metrics.h): all-zero, never a crash or NaN,
  // including the percentile edge values and out-of-range q (clamped).
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  for (double q : {0.0, 50.0, 100.0, -3.0, 250.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 0.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
  EXPECT_DOUBLE_EQ(h.P95(), 0.0);
  EXPECT_DOUBLE_EQ(h.P99(), 0.0);
  // Serialisation of the empty histogram is well-formed, not garbage.
  const JsonValue snapshot = h.ToJson();
  ASSERT_TRUE(snapshot.IsObject());
  const JsonValue* count = snapshot.Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->Dump(), "0");
}

TEST(MetricsTest, PercentileClampsOutOfRangeQ) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-10.0), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(1000.0), 3.0);
}

TEST(MetricsTest, HistogramPercentilesMatchSortedReference) {
  // Compare against the definition directly: nearest rank on the fully
  // sorted sample.
  Rng rng(99);
  Histogram h;
  std::vector<double> reference;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(rng.Uniform(100000));
    h.Observe(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(reference.size())));
    rank = std::max<std::size_t>(rank, 1);
    EXPECT_DOUBLE_EQ(h.Percentile(q), reference[rank - 1]) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Min(), reference.front());
  EXPECT_DOUBLE_EQ(h.Max(), reference.back());
  EXPECT_EQ(h.Count(), reference.size());
}

TEST(MetricsTest, HistogramInterleavesObserveAndQuery) {
  // Percentile sorts lazily; observing after a query must invalidate the
  // sorted view.
  Histogram h;
  h.Observe(10.0);
  h.Observe(5.0);
  EXPECT_DOUBLE_EQ(h.P50(), 5.0);
  h.Observe(1.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 10.0);
}

TEST(MetricsTest, RegistryToJsonIsFlatAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("net.transitions").Add(12);
  registry.GetGauge("mpc.max_load").Max(847.0);
  registry.GetHistogram("mpc.round.max_load").Observe(847.0);

  const JsonValue snapshot = registry.ToJson();
  ASSERT_TRUE(snapshot.IsObject());
  const JsonValue* transitions = snapshot.Find("net.transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_EQ(transitions->AsInt(), 12);
  const JsonValue* hist = snapshot.Find("mpc.round.max_load");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->IsObject());
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(hist->Find("p50")->AsDouble(), 847.0);
}

// -------------------------------------------------------------- Tracer --

TEST(TracerTest, RingWrapsAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.Emit(EventKind::kMpcRoundBegin, i, 0, i * 100);
  }
  EXPECT_EQ(tracer.total_emitted(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the last four emits (a = 6, 7, 8, 9).
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
    EXPECT_EQ(events[i].value, (6 + i) * 100u);
  }
}

TEST(TracerTest, EventsBelowCapacityKeepOrder) {
  Tracer tracer(/*capacity=*/8);
  tracer.Emit(EventKind::kNetStart, 3, 0, 0);
  tracer.Emit(EventKind::kNetBroadcast, 3, 0, 5);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kNetStart);
  EXPECT_EQ(events[1].kind, EventKind::kNetBroadcast);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
}

TEST(TracerTest, ClearResets) {
  Tracer tracer(4);
  tracer.Emit(EventKind::kNetStart, 0, 0, 0);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, InstallationIsScopedAndNested) {
  EXPECT_EQ(InstalledTracer(), nullptr);
  Tracer outer;
  {
    ScopedTracer a(outer);
    EXPECT_EQ(InstalledTracer(), &outer);
    Tracer inner;
    {
      ScopedTracer b(inner);
      EXPECT_EQ(InstalledTracer(), &inner);
      Emit(EventKind::kNetStart, 1);
    }
    EXPECT_EQ(InstalledTracer(), &outer);
    EXPECT_EQ(inner.total_emitted(), 1u);
    EXPECT_EQ(outer.total_emitted(), 0u);
  }
  EXPECT_EQ(InstalledTracer(), nullptr);
}

TEST(TracerTest, NullSinkRecordsNothingAndIsCheap) {
  ASSERT_EQ(InstalledTracer(), nullptr);
  // A TraceSpan without a sink reads no clock and emits nothing; the free
  // Emit is a load + branch. 10M no-op emits finishing quickly (seconds,
  // vs minutes if each did work) is a coarse smoke check that the fast
  // path stays trivial.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10'000'000; ++i) {
    TraceSpan span("noop", 0);
    Emit(EventKind::kMpcServerLoad, 0, 0, 42);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(TracerTest, SpanOutlivingScopedTracerIsDroppedSafely) {
  // The span captures the installed tracer at construction. If the
  // installation changes before the span ends, emitting through the
  // captured pointer could dangle — the destructor must notice and drop
  // the event instead.
  auto tracer = std::make_unique<Tracer>();
  auto install = std::make_unique<ScopedTracer>(*tracer);
  auto span = std::make_unique<TraceSpan>("outlives", 1);
  install.reset();  // Uninstalls; the span's pointer is now stale.
  tracer.reset();   // And now dangling.
  span.reset();     // Must not crash, must not emit.

  // A different tracer installed in between must not receive the span
  // either: the event belongs to the uninstalled recording.
  Tracer replacement;
  Tracer original;
  {
    ScopedTracer outer(original);
    auto inner_span = std::make_unique<TraceSpan>("swapped", 2);
    ScopedTracer swap(replacement);
    inner_span.reset();
  }
  EXPECT_EQ(original.total_emitted(), 0u);
  EXPECT_EQ(replacement.total_emitted(), 0u);

  // The unchanged-installation case still records.
  Tracer stable;
  {
    ScopedTracer install_stable(stable);
    TraceSpan span_ok("ok", 3);
  }
  EXPECT_EQ(stable.total_emitted(), 1u);
}

TEST(TracerTest, ShardFromTracerIsALocalRun) {
  Tracer tracer(8);
  {
    ScopedTracer install(tracer);
    Emit(EventKind::kMpcRoundBegin, 0, 0, 16);
    Emit(EventKind::kMpcServerLoad, 0, 3, 250);
    { TraceSpan span("mpc.route", 0); }
  }
  const dist::TraceShard shard = dist::ShardFromTracer(tracer);
  EXPECT_EQ(shard.header.rank, 0u);
  EXPECT_EQ(shard.header.procs, 1u);
  EXPECT_EQ(shard.header.total_emitted, 3u);
  EXPECT_EQ(shard.header.dropped, 0u);
  ASSERT_EQ(shard.events.size(), 3u);
  EXPECT_EQ(shard.events[0].kind, "mpc.round_begin");
  EXPECT_EQ(shard.events[0].tid, 0u);
  EXPECT_EQ(shard.events[1].kind, "mpc.server_load");
  EXPECT_EQ(shard.events[1].b, 3u);
  EXPECT_EQ(shard.events[2].kind, "span");
  EXPECT_EQ(shard.events[2].label, "mpc.route");
  // Every written line parses back.
  std::stringstream os;
  dist::WriteShard(os, shard);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(os, line)) {
    EXPECT_TRUE(JsonValue::Parse(line).has_value()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 4u);
}

// ------------------------------------------------------- BenchReporter --

TEST(BenchReporterTest, RecordsRenderAsUniformJsonLines) {
  BenchReporter reporter("unit_test_bench");
  MetricsRegistry registry;
  registry.GetCounter("mpc.rounds").Add(2);
  reporter.NewRecord()
      .Param("p", 64)
      .Param("query", "triangle")
      .Metrics(registry)
      .Metric("predicted", 123.5)
      .WallMs(4.25);
  reporter.NewRecord().Param("p", 256).WallMs(9.0);
  ASSERT_EQ(reporter.NumRecords(), 2u);

  std::istringstream lines(reporter.RenderJsonLines());
  std::string line;
  std::vector<JsonValue> records;
  while (std::getline(lines, line)) {
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    records.push_back(std::move(*parsed));
  }
  ASSERT_EQ(records.size(), 2u);
  for (const JsonValue& rec : records) {
    // The uniform shape: bench, params, metrics, threads, repeat,
    // wall_ms, wall_ns — in order ("meta" only with LAMP_BENCH_META).
    ASSERT_EQ(rec.members().size(), 7u);
    EXPECT_EQ(rec.members()[0].first, "bench");
    EXPECT_EQ(rec.members()[1].first, "params");
    EXPECT_EQ(rec.members()[2].first, "metrics");
    EXPECT_EQ(rec.members()[3].first, "threads");
    EXPECT_EQ(rec.members()[4].first, "repeat");
    EXPECT_EQ(rec.members()[5].first, "wall_ms");
    EXPECT_EQ(rec.members()[6].first, "wall_ns");
    EXPECT_EQ(rec.Find("bench")->AsString(), "unit_test_bench");
    EXPECT_GE(rec.Find("threads")->AsInt(), 1);
    EXPECT_GE(rec.Find("repeat")->AsInt(), 0);
  }
  EXPECT_EQ(records[0].Find("params")->Find("p")->AsInt(), 64);
  EXPECT_EQ(records[0].Find("metrics")->Find("mpc.rounds")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(records[0].Find("metrics")->Find("predicted")->AsDouble(),
                   123.5);
  EXPECT_DOUBLE_EQ(records[0].Find("wall_ms")->AsDouble(), 4.25);
  EXPECT_EQ(records[0].Find("wall_ns")->AsInt(), 4250000);
}

TEST(BenchReporterTest, FlushAppendsToEnvSelectedFile) {
  const std::string path =
      ::testing::TempDir() + "/lamp_bench_report_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv(kBenchJsonEnvVar, path.c_str(), /*overwrite=*/1), 0);
  {
    BenchReporter reporter("env_file_bench");
    reporter.NewRecord().Param("p", 8).WallMs(1.0);
    reporter.Flush();
    EXPECT_EQ(reporter.NumRecords(), 0u);  // Flush clears.
    reporter.NewRecord().Param("p", 16).WallMs(2.0);
    // Second batch flushes via the destructor and appends.
  }
  ASSERT_EQ(unsetenv(kBenchJsonEnvVar), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::int64_t> ps;
  while (std::getline(in, line)) {
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ps.push_back(parsed->Find("params")->Find("p")->AsInt());
  }
  EXPECT_EQ(ps, (std::vector<std::int64_t>{8, 16}));
  std::remove(path.c_str());
}

TEST(BenchReporterTest, FlushFallsBackToStdoutWhenFileUnopenable) {
  // Records must never be dropped: pointing LAMP_BENCH_JSON into a
  // directory that does not exist sends them down the stdout path.
  ASSERT_EQ(setenv(kBenchJsonEnvVar,
                   "/nonexistent-dir-for-lamp-test/bench.json", 1),
            0);
  ::testing::internal::CaptureStdout();
  {
    BenchReporter reporter("fallback_bench");
    reporter.NewRecord().Param("p", 4).WallMs(1.0);
  }
  const std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(unsetenv(kBenchJsonEnvVar), 0);
  EXPECT_NE(out.find("# bench-json:"), std::string::npos) << out;
  EXPECT_NE(out.find("\"bench\":\"fallback_bench\""), std::string::npos)
      << out;
}

TEST(BenchReporterTest, RepeatIndexIsStamped) {
  SetBenchRepeatIndex(2);
  BenchReporter reporter("repeat_bench");
  reporter.NewRecord().Param("p", 1).WallMs(1.0);
  SetBenchRepeatIndex(0);
  const std::string lines = reporter.RenderJsonLines();
  const auto rec = JsonValue::Parse(lines.substr(0, lines.find('\n')));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->Find("repeat")->AsInt(), 2);
  {
    // Drain without writing to the environment-selected file.
    ::testing::internal::CaptureStdout();
    reporter.Flush();
    ::testing::internal::GetCapturedStdout();
  }
}

}  // namespace
}  // namespace lamp::obs

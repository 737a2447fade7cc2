// Tests for the observability layer: the JSON model, the metrics
// registry (including concurrent increments through the thread pool),
// the scoped-span tracer and its Chrome trace output, run telemetry,
// logging levels, and — most importantly — that instrumentation is
// deterministic-neutral: bit-identical pipeline results with obs fully
// on versus fully off, at 1 and 8 threads.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/framework.h"
#include "core/telemetry.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/normalize.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace bayescrowd {
namespace {

using obs::JsonValue;

// ------------------------------------------------------------------ //
// JsonValue
// ------------------------------------------------------------------ //

TEST(JsonTest, DumpAndParseRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc["int"] = 42;
  doc["neg"] = -7;
  doc["pi"] = 3.5;
  doc["flag"] = true;
  doc["nothing"] = JsonValue();
  doc["text"] = "line\n\"quoted\"\tand\\slash";
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append("two");
  arr.Append(false);
  doc["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const auto parsed = JsonValue::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue& v = *parsed;
    EXPECT_EQ(v.Find("int")->AsInt(), 42);
    EXPECT_EQ(v.Find("int")->kind(), JsonValue::Kind::kInt);
    EXPECT_EQ(v.Find("neg")->AsInt(), -7);
    EXPECT_DOUBLE_EQ(v.Find("pi")->AsDouble(), 3.5);
    EXPECT_EQ(v.Find("pi")->kind(), JsonValue::Kind::kDouble);
    EXPECT_TRUE(v.Find("flag")->AsBool());
    EXPECT_TRUE(v.Find("nothing")->is_null());
    EXPECT_EQ(v.Find("text")->AsString(),
              "line\n\"quoted\"\tand\\slash");
    ASSERT_EQ(v.Find("arr")->size(), 3u);
    EXPECT_EQ(v.Find("arr")->at(1).AsString(), "two");
  }
}

TEST(JsonTest, ObjectKeepsInsertionOrder) {
  JsonValue doc = JsonValue::Object();
  doc["zebra"] = 1;
  doc["apple"] = 2;
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[1].first, "apple");
  const std::string text = doc.Dump();
  EXPECT_LT(text.find("zebra"), text.find("apple"));
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\x\"").ok());
  EXPECT_TRUE(JsonValue::Parse("  [1, 2, 3]  ").ok());
  EXPECT_TRUE(JsonValue::Parse("\"\\u0041\"").ok());
}

// ------------------------------------------------------------------ //
// Metrics
// ------------------------------------------------------------------ //

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  EXPECT_EQ(c, registry.GetCounter("c"));  // Stable handle.
  c->Increment();
  c->Increment(9);
  EXPECT_EQ(c->value(), 10u);

  obs::Gauge* g = registry.GetGauge("g");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), -1.0);

  obs::Histogram* h = registry.GetHistogram("h", {1.0, 10.0});
  h->Observe(0.5);   // <= 1
  h->Observe(1.0);   // <= 1 (bounds are inclusive upper limits)
  h->Observe(5.0);   // <= 10
  h->Observe(100.0); // overflow
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 106.5);
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 10u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), -1.0);
  EXPECT_EQ(snap.histograms.at("h").count, 4u);
  EXPECT_EQ(snap.histograms.at("h").bucket_counts.size(), 3u);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);  // Handles survive Reset.
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
}

TEST(MetricsTest, ConcurrentIncrementsUnderThreadPoolAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("hits");
  obs::Histogram* histogram = registry.GetHistogram("obs", {10.0, 100.0});
  static constexpr std::size_t kItems = 10'000;
  ThreadPool pool(8);
  pool.ParallelFor(kItems, [&](std::size_t, std::size_t i) {
    counter->Increment();
    histogram->Observe(static_cast<double>(i % 200));
  });
  EXPECT_EQ(counter->value(), kItems);
  EXPECT_EQ(histogram->count(), kItems);
  // Each residue class 0..199 appears kItems/200 times; 0..10 land in
  // the first bucket, 11..100 in the second, 101..199 overflow.
  const std::uint64_t per_class = kItems / 200;
  EXPECT_EQ(histogram->bucket_count(0), per_class * 11);
  EXPECT_EQ(histogram->bucket_count(1), per_class * 90);
  EXPECT_EQ(histogram->bucket_count(2), per_class * 99);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected_sum += static_cast<double>(i % 200);
  }
  EXPECT_DOUBLE_EQ(histogram->sum(), expected_sum);
}

TEST(MetricsTest, SnapshotRendersTextAndJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(3);
  registry.GetGauge("b.level")->Set(0.5);
  registry.GetHistogram("c.sizes", {2.0})->Observe(1.0);
  const obs::MetricsSnapshot snap = registry.Snapshot();

  const std::string text = snap.ToText();
  EXPECT_NE(text.find("a.count 3"), std::string::npos);
  EXPECT_NE(text.find("b.level"), std::string::npos);

  const auto parsed = JsonValue::Parse(snap.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("counters")->Find("a.count")->AsInt(), 3);
  EXPECT_DOUBLE_EQ(parsed->Find("gauges")->Find("b.level")->AsDouble(),
                   0.5);
  const JsonValue* hist = parsed->Find("histograms")->Find("c.sizes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
}

// ------------------------------------------------------------------ //
// Tracer
// ------------------------------------------------------------------ //

TEST(TraceTest, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  {
    BAYESCROWD_TRACE_SPAN("ignored");
  }
  EXPECT_EQ(tracer.EventCountForTesting(), 0u);
}

TEST(TraceTest, ChromeTraceJsonIsValidAndWellFormed) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    BAYESCROWD_TRACE_SPAN("outer");
    { BAYESCROWD_TRACE_SPAN("inner"); }
  }
  {
    // Worker buffers flush on thread exit, so the pool must be joined
    // (destroyed) before the trace is read — the same ordering Run()
    // guarantees by writing traces only after the pool is gone.
    ThreadPool pool(4);
    pool.ParallelFor(16, [](std::size_t, std::size_t) {
      BAYESCROWD_TRACE_SPAN("pooled");
    });
  }
  tracer.Disable();

  // Serialize and re-parse: checks the document is valid JSON end-to-end.
  const auto parsed = JsonValue::Parse(tracer.ChromeTraceJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->size(), 18u);  // outer + inner + 16 pooled spans.
  double last_ts = -1.0;
  bool saw_inner = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    EXPECT_EQ(e.Find("ph")->AsString(), "X");
    EXPECT_FALSE(e.Find("name")->AsString().empty());
    ASSERT_TRUE(e.Find("ts")->is_number());
    ASSERT_TRUE(e.Find("dur")->is_number());
    EXPECT_GE(e.Find("ts")->AsDouble(), last_ts);  // Sorted by start.
    EXPECT_GE(e.Find("dur")->AsDouble(), 0.0);
    last_ts = e.Find("ts")->AsDouble();
    saw_inner = saw_inner || e.Find("name")->AsString() == "inner";
  }
  EXPECT_TRUE(saw_inner);
  tracer.Clear();
}

TEST(TraceTest, ExplicitEndIsIdempotent) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    obs::TraceSpan span("explicit");
    span.End();
    span.End();  // Destructor will also run; still one event.
  }
  tracer.Disable();
  EXPECT_EQ(tracer.EventCountForTesting(), 1u);
  tracer.Clear();
}

TEST(TraceTest, OpenSpanCountBalancesAcrossEarlyExits) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  ASSERT_EQ(tracer.OpenSpanCount(), 0u);

  // Early return: the RAII destructor must close the span.
  const auto early_return = [] {
    BAYESCROWD_TRACE_SPAN("early-return");
    return 7;
  };
  EXPECT_EQ(early_return(), 7);
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);

  // Exception unwinding counts as an exit path too.
  try {
    obs::TraceSpan span("unwound");
    EXPECT_EQ(tracer.OpenSpanCount(), 1u);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);

  // Cross-scope spans count down at End(), not at destruction, so a
  // writer running between the two sees the span as closed.
  {
    obs::TraceSpan span("cross-scope");
    EXPECT_EQ(tracer.OpenSpanCount(), 1u);
    span.End();
    EXPECT_EQ(tracer.OpenSpanCount(), 0u);
  }
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);
  tracer.Disable();
  tracer.Clear();
}

TEST(TraceTest, EnableMidSpanClampsDurationInsteadOfWrapping) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  {
    obs::TraceSpan span("clamped");
    // Re-enabling resets the epoch, so "now" lands behind the span's
    // recorded start. Without the clamp the duration wraps to ~585
    // years and the trace viewer renders garbage.
    tracer.Enable();
  }
  tracer.Disable();
  const JsonValue doc = tracer.ChromeTraceJson();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  const double dur_us = events->at(0).Find("dur")->AsDouble();
  EXPECT_GE(dur_us, 0.0);
  EXPECT_LT(dur_us, 1e6);  // Well under a second; definitely no wrap.
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);
  tracer.Clear();
}


// ------------------------------------------------------------------ //
// Telemetry
// ------------------------------------------------------------------ //

Table ObsDataset() {
  Rng rng(0xD15EA5E);
  return InjectMissingUniform(MakeNbaLike(120, /*seed=*/5), 0.15, rng);
}

BayesCrowdResult RunPipeline(std::size_t threads,
                             obs::MetricsRegistry* metrics) {
  const Table incomplete = ObsDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.budget = 24;
  options.latency = 4;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 5;
  options.threads = threads;
  options.metrics = metrics;
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/5);
  SimulatedCrowdPlatform platform(truth, {});
  auto result = framework.Run(incomplete, posteriors, platform);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

TEST(TelemetryTest, RunTelemetryJsonRoundTripsResultFields) {
  const BayesCrowdResult result = RunPipeline(2, nullptr);
  BayesCrowdOptions options;
  options.budget = 24;
  options.latency = 4;
  const JsonValue doc =
      RunTelemetryJson("unit-test", options, result);

  const auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema_version")->AsInt(),
            obs::kTelemetrySchemaVersion);
  EXPECT_EQ(parsed->Find("kind")->AsString(), "run");
  EXPECT_EQ(parsed->Find("name")->AsString(), "unit-test");

  const JsonValue* payload = parsed->Find("payload");
  ASSERT_NE(payload, nullptr);
  const JsonValue* res = payload->Find("result");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(res->Find("tasks_posted")->AsInt()),
            result.tasks_posted);
  EXPECT_EQ(static_cast<std::size_t>(res->Find("rounds")->AsInt()),
            result.rounds);
  ASSERT_EQ(res->Find("probabilities")->size(),
            result.probabilities.size());
  for (std::size_t i = 0; i < result.probabilities.size(); ++i) {
    EXPECT_DOUBLE_EQ(res->Find("probabilities")->at(i).AsDouble(),
                     result.probabilities[i]);
  }
  EXPECT_EQ(
      static_cast<std::uint64_t>(payload->Find("cache")->Find("hits")->AsInt()),
      result.cache_hits);
  EXPECT_EQ(static_cast<std::uint64_t>(
                payload->Find("adpll")->Find("calls")->AsInt()),
            result.adpll.calls);
  EXPECT_GT(result.adpll.calls, 0u);
  ASSERT_EQ(payload->Find("rounds")->size(), result.round_logs.size());
  ASSERT_GT(result.round_logs.size(), 0u);
  const JsonValue& round0 = payload->Find("rounds")->at(0);
  EXPECT_EQ(static_cast<std::size_t>(round0.Find("tasks")->AsInt()),
            result.round_logs[0].tasks);
  ASSERT_EQ(payload->Find("lanes")->size(), result.lane_usage.size());
  // Metrics snapshot rides along and agrees with the scalar mirrors.
  const JsonValue* counters = payload->Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(
                counters->Find("evaluator.cache.hits")->AsInt()),
            result.cache_hits);
}

TEST(TelemetryTest, NormalizeAlwaysDropsLaneTallies) {
  // Which lane ran which task is scheduler noise at any pool width, so
  // the default normalization drops it; --strip-lanes only adds the
  // pool size.
  BayesCrowdOptions options;
  options.threads = 2;
  const JsonValue doc =
      RunTelemetryJson("unit-test", options, RunPipeline(2, nullptr));
  ASSERT_NE(doc.Find("payload")->Find("lanes"), nullptr);
  ASSERT_NE(doc.Dump().find("pool.lane"), std::string::npos);

  const JsonValue plain = obs::NormalizeTelemetry(doc);
  EXPECT_EQ(plain.Find("payload")->Find("lanes"), nullptr);
  EXPECT_EQ(plain.Dump().find("pool.lane"), std::string::npos);
  ASSERT_NE(plain.Find("payload")->Find("options")->Find("threads"),
            nullptr);

  obs::NormalizeOptions strip;
  strip.strip_lane_usage = true;
  const JsonValue stripped = obs::NormalizeTelemetry(doc, strip);
  EXPECT_EQ(stripped.Find("payload")->Find("options")->Find("threads"),
            nullptr);
  EXPECT_EQ(stripped.Find("payload")->Find("result")->Dump(),
            plain.Find("payload")->Find("result")->Dump());
}

TEST(TelemetryTest, WriteBenchArtifactProducesParseableFile) {
  JsonValue rows = JsonValue::Array();
  JsonValue row = JsonValue::Object();
  row["threads"] = 4;
  row["seconds"] = 0.25;
  rows.Append(std::move(row));
  BAYESCROWD_CHECK_OK(
      obs::WriteBenchArtifact("obs_unit", std::move(rows), "/tmp"));
  const auto parsed = obs::ReadJsonFile("/tmp/BENCH_obs_unit.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("kind")->AsString(), "bench");
  EXPECT_EQ(parsed->Find("payload")->at(0).Find("threads")->AsInt(), 4);
  std::remove("/tmp/BENCH_obs_unit.json");
}

// ------------------------------------------------------------------ //
// Determinism: obs on vs off
// ------------------------------------------------------------------ //

TEST(ObsDeterminismTest, ObsOnVsOffBitIdenticalAt1And8Threads) {
  for (const std::size_t threads : {1u, 8u}) {
    // Off: tracer disabled, no injected registry (Run uses a private
    // one internally either way).
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
    const BayesCrowdResult off = RunPipeline(threads, nullptr);

    // On: tracer enabled and an external registry capturing everything.
    obs::MetricsRegistry registry;
    obs::Tracer::Global().Enable();
    const BayesCrowdResult on = RunPipeline(threads, &registry);
    obs::Tracer::Global().Disable();
    EXPECT_GT(obs::Tracer::Global().EventCountForTesting(), 0u);
    obs::Tracer::Global().Clear();

    EXPECT_EQ(on.result_objects, off.result_objects)
        << threads << " threads";
    ASSERT_EQ(on.probabilities.size(), off.probabilities.size());
    for (std::size_t i = 0; i < on.probabilities.size(); ++i) {
      EXPECT_EQ(on.probabilities[i], off.probabilities[i])
          << "object " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(on.rounds, off.rounds);
    EXPECT_EQ(on.tasks_posted, off.tasks_posted);
    EXPECT_EQ(on.cache_hits, off.cache_hits);
    EXPECT_EQ(on.adpll.calls, off.adpll.calls);

    // The injected registry saw the same counts the result reports.
    const obs::MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counters.at("evaluator.cache.hits"), on.cache_hits);
    EXPECT_EQ(snap.counters.at("adpll.calls"), on.adpll.calls);
    EXPECT_EQ(snap.counters.at("framework.rounds"), on.rounds);
  }
}

TEST(TraceTest, PipelineRunLeavesNoOpenSpans) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  // A full run exercises every early-exit path instrumentation guards
  // (phase spans, per-round spans with break sites). Whatever route the
  // loop took, no span may still be open once Run() returns.
  RunPipeline(2, nullptr);
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);
  tracer.Disable();
  tracer.Clear();
}

// ------------------------------------------------------------------ //
// ThreadPool lane stats
// ------------------------------------------------------------------ //

TEST(LaneStatsTest, TasksSumToWorkItemsAndBusyTimeAccumulates) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.lane_stats().size(), 4u);
  pool.ParallelFor(100, [](std::size_t, std::size_t) {});
  pool.ParallelFor(50, [](std::size_t, std::size_t) {});
  std::uint64_t total = 0;
  for (const ThreadPool::LaneStats& lane : pool.lane_stats()) {
    total += lane.tasks;
    EXPECT_GE(lane.busy_seconds, 0.0);
  }
  EXPECT_EQ(total, 150u);
  // Lane 0 is the calling thread and always participates.
  EXPECT_GT(pool.lane_stats()[0].tasks, 0u);
}

// ------------------------------------------------------------------ //
// Logging
// ------------------------------------------------------------------ //

TEST(LoggingTest, ParseLogLevelHandlesAllSpellings) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kOff);  // Untouched on failure.
}

TEST(LoggingTest, LevelGatesEnabledCheckAndShortCircuitsTheStream) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_FALSE(LogLevelEnabled(LogLevel::kDebug));
  EXPECT_TRUE(LogLevelEnabled(LogLevel::kError));
  // A disabled statement must not evaluate its operands.
  int evaluations = 0;
  const auto expensive = [&evaluations]() {
    ++evaluations;
    return 1;
  };
  BAYESCROWD_LOG(Debug) << "never " << expensive();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(saved);
}

TEST(LoggingTest, ConcurrentLoggingAndLevelChangesAreSafe) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kOff);  // Keep test output clean.
  ThreadPool pool(8);
  pool.ParallelFor(500, [](std::size_t lane, std::size_t i) {
    if (i % 100 == 0) SetLogLevel(LogLevel::kOff);  // Racing writers.
    BAYESCROWD_LOG(Warning) << "lane " << lane << " item " << i;
  });
  SetLogLevel(saved);
}

}  // namespace
}  // namespace bayescrowd

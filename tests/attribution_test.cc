// Tests for cost attribution and live export: labeled-series interning
// (determinism, cardinality cap), Prometheus text exposition, the
// flight recorder's ring/JSONL semantics, the telemetry attribution
// section, run inspection and telemetry diffing — and the contract the
// whole layer hangs on: deterministic cost units are identical at any
// thread count, with labels and the flight recorder enabled.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/random.h"
#include "core/framework.h"
#include "core/inspect.h"
#include "core/telemetry.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace bayescrowd {
namespace {

using obs::JsonValue;
using obs::Label;

// ------------------------------------------------------------------ //
// Labeled series: canonical names and interning
// ------------------------------------------------------------------ //

TEST(LabelTest, CanonicalSeriesNameSortsLabelsAndRoundTrips) {
  const std::string key = obs::LabeledSeriesName(
      "cost.adpll_nodes", {{"session", "s0"}, {"phase", "select"}});
  EXPECT_EQ(key, "cost.adpll_nodes{phase=\"select\",session=\"s0\"}");
  // Label order at the call site must not matter.
  EXPECT_EQ(obs::LabeledSeriesName(
                "cost.adpll_nodes",
                {{"phase", "select"}, {"session", "s0"}}),
            key);

  std::string base;
  std::vector<Label> labels;
  obs::ParseSeriesName(key, &base, &labels);
  EXPECT_EQ(base, "cost.adpll_nodes");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].key, "phase");
  EXPECT_EQ(labels[0].value, "select");
  EXPECT_EQ(labels[1].key, "session");
  EXPECT_EQ(labels[1].value, "s0");

  // Unlabeled keys parse to themselves with no labels.
  obs::ParseSeriesName("adpll.calls", &base, &labels);
  EXPECT_EQ(base, "adpll.calls");
  EXPECT_TRUE(labels.empty());
  // A name with no labels keeps its bare form.
  EXPECT_EQ(obs::LabeledSeriesName("plain", {}), "plain");
}

TEST(LabelTest, LabeledHandlesAreStableAndOrderInsensitive) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter(
      "cost.adpll_nodes", {{"session", "s0"}, {"phase", "select"}});
  obs::Counter* b = registry.GetCounter(
      "cost.adpll_nodes", {{"phase", "select"}, {"session", "s0"}});
  EXPECT_EQ(a, b);  // Same canonical series, same instrument.
  a->Increment(5);
  b->Increment(2);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(
      snap.counters.at("cost.adpll_nodes{phase=\"select\",session=\"s0\"}"),
      7u);
  // Distinct label values are distinct series.
  obs::Counter* c = registry.GetCounter(
      "cost.adpll_nodes", {{"session", "s0"}, {"phase", "update"}});
  EXPECT_NE(a, c);
  // Gauges and histograms share the interner and canonical key space.
  obs::Gauge* g = registry.GetGauge("pool.depth", {{"session", "s0"}});
  g->Set(3.0);
  EXPECT_DOUBLE_EQ(
      registry.Snapshot().gauges.at("pool.depth{session=\"s0\"}"), 3.0);
}

TEST(LabelTest, InterningIsDeterministicGivenCallOrder) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  for (const char* value : {"modeling", "select", "update", "answer"}) {
    EXPECT_EQ(a.InternLabelValue("phase", value),
              b.InternLabelValue("phase", value));
  }
  // Re-interning returns the original dense id.
  EXPECT_EQ(a.InternLabelValue("phase", "select"),
            b.InternLabelValue("phase", "select"));
}

TEST(LabelTest, CardinalityCapCollapsesOverflowToOther) {
  obs::MetricsRegistry registry;
  const std::size_t cap = obs::MetricsRegistry::kMaxLabelValuesPerKey;
  for (std::size_t i = 0; i < cap; ++i) {
    const std::string value = "v" + std::to_string(i);
    EXPECT_EQ(registry.InternedLabelValue("phase", value), value);
  }
  EXPECT_EQ(registry.label_overflow_keys(), 0u);

  // The cap+1'th distinct value collapses; existing values survive.
  EXPECT_EQ(registry.InternedLabelValue("phase", "v999"),
            obs::MetricsRegistry::kLabelOverflowValue);
  EXPECT_EQ(registry.InternedLabelValue("phase", "v0"), "v0");
  EXPECT_EQ(registry.label_overflow_keys(), 1u);

  // Every overflowed value shares one "_other" series.
  obs::Counter* x =
      registry.GetCounter("cost.crowd_tasks", {{"phase", "vA"}});
  obs::Counter* y =
      registry.GetCounter("cost.crowd_tasks", {{"phase", "vB"}});
  EXPECT_EQ(x, y);
  x->Increment();
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("cost.crowd_tasks{phase=\"_other\"}"), 1u);
  // The overflow is surfaced as a self-metric, not a crash.
  EXPECT_EQ(snap.counters.at("obs.label_overflow"), 1u);
  // Other keys keep their own (un-overflowed) value space.
  EXPECT_EQ(registry.InternedLabelValue("session", "s0"), "s0");
}

// ------------------------------------------------------------------ //
// Prometheus exposition
// ------------------------------------------------------------------ //

bool IsPromNameChar(char c, bool first) {
  const bool alpha =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

// Checks one exposition line: name{labels} value, with a legal metric
// name and balanced, quoted label values.
void CheckPromLine(const std::string& line) {
  ASSERT_FALSE(line.empty());
  std::size_t i = 0;
  ASSERT_TRUE(IsPromNameChar(line[0], true)) << line;
  while (i < line.size() && IsPromNameChar(line[i], false)) ++i;
  ASSERT_LT(i, line.size()) << line;
  if (line[i] == '{') {
    const std::size_t close = line.find('}', i);
    ASSERT_NE(close, std::string::npos) << line;
    // k="v" pairs, comma separated; values stay quoted.
    std::size_t pos = i + 1;
    while (pos < close) {
      const std::size_t eq = line.find('=', pos);
      ASSERT_NE(eq, std::string::npos) << line;
      ASSERT_EQ(line[eq + 1], '"') << line;
      const std::size_t endq = line.find('"', eq + 2);
      ASSERT_NE(endq, std::string::npos) << line;
      pos = endq + 1;
      if (line[pos] == ',') ++pos;
    }
    i = close + 1;
  }
  ASSERT_EQ(line[i], ' ') << line;
  // The remainder must parse as a number.
  EXPECT_NO_THROW({ (void)std::stod(line.substr(i + 1)); }) << line;
}

TEST(PrometheusTest, ExpositionRendersValidLines) {
  obs::MetricsRegistry registry;
  registry.GetCounter("cost.adpll_nodes",
                      {{"session", "s0"}, {"phase", "select"}})
      ->Increment(17);
  registry.GetCounter("adpll.calls")->Increment(4);
  registry.GetGauge("pool.size")->Set(8.0);
  registry
      .GetHistogram("round.seconds", {{"session", "s0"}},
                    {0.001, 0.01, 0.1})
      ->Observe(0.005);

  const std::string text = obs::ToPrometheusText(registry.Snapshot());
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');  // Exposition must end with a newline.

  bool saw_labeled_counter = false;
  bool saw_bucket = false;
  bool saw_sum = false;
  bool saw_count = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    CheckPromLine(line);
    // Dotted names must have been sanitized.
    EXPECT_EQ(line.substr(0, line.find_first_of("{ ")).find('.'),
              std::string::npos)
        << line;
    saw_labeled_counter =
        saw_labeled_counter ||
        line.rfind("cost_adpll_nodes{", 0) == 0;
    saw_bucket = saw_bucket ||
                 (line.rfind("round_seconds_bucket{", 0) == 0 &&
                  line.find("le=\"") != std::string::npos);
    saw_sum = saw_sum || line.rfind("round_seconds_sum", 0) == 0;
    saw_count = saw_count || line.rfind("round_seconds_count", 0) == 0;
  }
  EXPECT_TRUE(saw_labeled_counter);
  EXPECT_TRUE(saw_bucket);
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_count);
}

// ------------------------------------------------------------------ //
// Flight recorder
// ------------------------------------------------------------------ //

TEST(FlightTest, RingKeepsNewestEventsAndCountsDrops) {
  obs::FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(obs::FlightEventKind::kNote,
                    static_cast<std::uint64_t>(i), /*object=*/-1,
                    /*sim_seconds=*/0.5 * i, /*value=*/i,
                    "event " + std::to_string(i));
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);

  const std::vector<obs::FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first window over the newest four, monotone sequence.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].round, 6u + i);
    if (i > 0) EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  recorder.Clear();
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(FlightTest, JsonlRoundTripsAndToleratesCorruptTail) {
  const std::string path = "/tmp/attr_flight_test.jsonl";
  obs::FlightRecorder recorder(/*capacity=*/8);
  recorder.Record(obs::FlightEventKind::kBreakerTrip, 3, 17, 1.5, 2.0,
                  "breaker opened");
  recorder.Record(obs::FlightEventKind::kRetry, 4, -1, 2.0, 0.25,
                  "transient failure");
  BAYESCROWD_CHECK_OK(recorder.WriteJsonl(path));

  {
    const auto load = obs::LoadFlightJsonl(path);
    ASSERT_TRUE(load.ok()) << load.status().ToString();
    EXPECT_EQ(load->corrupt_lines, 0u);
    EXPECT_EQ(load->total_recorded, 2u);
    ASSERT_EQ(load->events.size(), 2u);
    EXPECT_EQ(load->events[0].kind, obs::FlightEventKind::kBreakerTrip);
    EXPECT_EQ(load->events[0].round, 3u);
    EXPECT_EQ(load->events[0].object, 17);
    EXPECT_DOUBLE_EQ(load->events[0].sim_seconds, 1.5);
    EXPECT_EQ(load->events[0].detail, "breaker opened");
    EXPECT_EQ(load->events[1].kind, obs::FlightEventKind::kRetry);
  }

  // A torn tail (crash mid-write) must be skipped, not fatal.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"seq\": 99, \"kind\": \"retr", f);
    std::fclose(f);
  }
  const auto load = obs::LoadFlightJsonl(path);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->events.size(), 2u);
  EXPECT_GE(load->corrupt_lines, 1u);

  EXPECT_FALSE(obs::LoadFlightJsonl("/tmp/no_such_flight.jsonl").ok());
  std::remove(path.c_str());
}

TEST(FlightTest, EventKindNamesRoundTrip) {
  constexpr int kLast =
      static_cast<int>(obs::FlightEventKind::kWorkerQuarantine);
  for (int k = 0; k <= kLast; ++k) {
    const auto kind = static_cast<obs::FlightEventKind>(k);
    obs::FlightEventKind parsed;
    if (k == 2) {
      // A retired kind's value stays unassigned and never parses.
      EXPECT_STREQ(obs::FlightEventKindToString(kind), "unknown");
      EXPECT_FALSE(obs::ParseFlightEventKind("unknown", &parsed));
      continue;
    }
    ASSERT_TRUE(obs::ParseFlightEventKind(
        obs::FlightEventKindToString(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  obs::FlightEventKind parsed;
  EXPECT_FALSE(obs::ParseFlightEventKind("not_a_kind", &parsed));
}

// ------------------------------------------------------------------ //
// End-to-end: labeled pipeline runs
// ------------------------------------------------------------------ //

Table AttributionDataset() {
  Rng rng(0xAB5E55);
  return InjectMissingUniform(MakeNbaLike(120, /*seed=*/9), 0.15, rng);
}

BayesCrowdResult RunLabeledPipeline(
    std::size_t threads, obs::MetricsRegistry* metrics,
    obs::FlightRecorder* flight, StrategyKind kind = StrategyKind::kHhs) {
  const Table incomplete = AttributionDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.budget = 24;
  options.latency = 4;
  options.strategy.kind = kind;
  options.strategy.m = 2;
  options.threads = threads;
  options.metrics = metrics;
  options.session = "attr";
  options.flight = flight;
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/9);
  SimulatedCrowdPlatform platform(truth, {});
  auto result = framework.Run(incomplete, posteriors, platform);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

std::map<std::string, std::uint64_t> CostSeries(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [series, value] : snapshot.counters) {
    std::string base;
    std::vector<Label> labels;
    obs::ParseSeriesName(series, &base, &labels);
    if (base.rfind("cost.", 0) == 0) out.emplace(series, value);
  }
  return out;
}

TEST(AttributionTest, CostUnitsAreIdenticalAtEveryThreadCount) {
  for (const StrategyKind kind :
       {StrategyKind::kFbs, StrategyKind::kUbs, StrategyKind::kHhs}) {
    SCOPED_TRACE(StrategyKindToString(kind));
    obs::MetricsRegistry reg1;
    obs::FlightRecorder flight1;
    const BayesCrowdResult r1 = RunLabeledPipeline(1, &reg1, &flight1, kind);
    const auto cost1 = CostSeries(reg1.Snapshot());
    ASSERT_FALSE(cost1.empty());
    const auto events1 = flight1.Events();

    for (const std::size_t threads : {2, 4, 8}) {
      SCOPED_TRACE(threads);
      obs::MetricsRegistry reg;
      obs::FlightRecorder flight;
      const BayesCrowdResult r =
          RunLabeledPipeline(threads, &reg, &flight, kind);

      // Results are bit-identical (the obs-on/off contract, with labels
      // and the flight recorder enabled this time)...
      EXPECT_EQ(r1.result_objects, r.result_objects);
      ASSERT_EQ(r1.probabilities.size(), r.probabilities.size());
      for (std::size_t i = 0; i < r1.probabilities.size(); ++i) {
        EXPECT_EQ(r1.probabilities[i], r.probabilities[i]) << "object " << i;
      }

      // ...and so is every deterministic cost series, series by series:
      // no strategy may size its work to the pool.
      EXPECT_EQ(cost1, CostSeries(reg.Snapshot()));

      // The flight recorders saw the same deterministic event stream.
      const auto events = flight.Events();
      ASSERT_EQ(events1.size(), events.size());
      for (std::size_t i = 0; i < events1.size(); ++i) {
        EXPECT_EQ(events1[i].kind, events[i].kind) << "event " << i;
        EXPECT_EQ(events1[i].round, events[i].round) << "event " << i;
        EXPECT_EQ(events1[i].detail, events[i].detail) << "event " << i;
      }
    }
  }
}

TEST(AttributionTest, EveryCostUnitCarriesTheFullLabelTriple) {
  obs::MetricsRegistry registry;
  const BayesCrowdResult result =
      RunLabeledPipeline(2, &registry, nullptr);
  const auto cost = CostSeries(registry.Snapshot());
  ASSERT_FALSE(cost.empty());
  for (const auto& [series, value] : cost) {
    std::string base;
    std::vector<Label> labels;
    obs::ParseSeriesName(series, &base, &labels);
    std::map<std::string, std::string> by_key;
    for (const Label& label : labels) by_key[label.key] = label.value;
    EXPECT_EQ(by_key.count("session"), 1u) << series;
    EXPECT_EQ(by_key["session"], "attr") << series;
    EXPECT_EQ(by_key.count("phase"), 1u) << series;
    EXPECT_EQ(by_key.count("solver_tier"), 1u) << series;
    EXPECT_EQ(by_key.size(), 3u) << series;
  }
  (void)result;
}

// ------------------------------------------------------------------ //
// Inspection and diffing
// ------------------------------------------------------------------ //

JsonValue LabeledRunTelemetry(obs::FlightRecorder* flight) {
  obs::MetricsRegistry registry;
  const BayesCrowdResult result =
      RunLabeledPipeline(2, &registry, flight);
  BayesCrowdOptions options;
  options.budget = 24;
  options.latency = 4;
  options.session = "attr";
  return RunTelemetryJson("attr-test", options, result);
}

TEST(InspectTest, ReportAttributesUnitsAndWallClock) {
  obs::FlightRecorder recorder;
  const JsonValue telemetry = LabeledRunTelemetry(&recorder);

  // The attribution section accounts for every unit.
  const JsonValue* attribution =
      telemetry.Find("payload")->Find("attribution");
  ASSERT_NE(attribution, nullptr);
  const std::uint64_t total = static_cast<std::uint64_t>(
      attribution->Find("total_units")->AsInt());
  EXPECT_GT(total, 0u);
  std::uint64_t summed = 0;
  const JsonValue* rows = attribution->Find("rows");
  ASSERT_NE(rows, nullptr);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    summed += static_cast<std::uint64_t>(
        rows->at(i).Find("units")->AsInt());
  }
  EXPECT_EQ(summed, total);

  obs::FlightLoad load;
  load.events = recorder.Events();
  load.total_recorded = recorder.total_recorded();
  const auto report = RenderRunInspection(telemetry, &load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_units, total);
  EXPECT_EQ(report->unit_coverage, 1.0);
  EXPECT_GT(report->wall_coverage, 0.5);
  EXPECT_LE(report->wall_coverage, 1.0);
  // The rendered report names its sections.
  EXPECT_NE(report->text.find("wall-clock"), std::string::npos);
  EXPECT_NE(report->text.find("cost units"), std::string::npos);
  EXPECT_NE(report->text.find("attr-test"), std::string::npos);

  // A non-run envelope is a clean error, not a crash.
  JsonValue bogus = JsonValue::Object();
  bogus["kind"] = "bench";
  EXPECT_FALSE(RenderRunInspection(bogus, nullptr).ok());
}

TEST(InspectTest, DiffFlagsDriftAndSkipsWallClockKeys) {
  const JsonValue telemetry = LabeledRunTelemetry(nullptr);
  const std::string dumped = telemetry.Dump();

  // A run diffed against itself is clean.
  const auto self_diff = DiffRunTelemetry(telemetry, telemetry, 0.02);
  ASSERT_TRUE(self_diff.ok()) << self_diff.status().ToString();
  EXPECT_TRUE(self_diff->regressions.empty());
  EXPECT_NE(self_diff->text.find("no regressions"), std::string::npos);

  // Perturbing a count beyond the threshold is flagged...
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  JsonValue candidate = std::move(parsed).value();
  const std::int64_t tasks = candidate["payload"]["result"]
                                 .Find("tasks_posted")
                                 ->AsInt();
  candidate["payload"]["result"]["tasks_posted"] = 2 * tasks + 10;
  const auto diff = DiffRunTelemetry(telemetry, candidate, 0.02);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  ASSERT_FALSE(diff->regressions.empty());
  bool found = false;
  for (const TelemetryRegression& r : diff->regressions) {
    found = found ||
            r.path.find("tasks_posted") != std::string::npos;
  }
  EXPECT_TRUE(found);

  // ...while wall-clock drift is scheduling noise, never a regression.
  auto reparsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  JsonValue wall = std::move(reparsed).value();
  wall["payload"]["result"]["select_seconds"] =
      wall["payload"]["result"].Find("select_seconds")->AsDouble() *
          100.0 +
      5.0;
  const auto wall_diff = DiffRunTelemetry(telemetry, wall, 0.02);
  ASSERT_TRUE(wall_diff.ok()) << wall_diff.status().ToString();
  EXPECT_TRUE(wall_diff->regressions.empty());
}

}  // namespace
}  // namespace bayescrowd

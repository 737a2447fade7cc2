// Governed solving: result quality vs. the cost of bounding Pr(φ).
//
// One hostile workload (correlated, 16 levels, 35% missing — enough
// conditions past ADPLL's star-path hub cap that a small node budget
// actually fires), swept over solver configurations:
//
//   exact          unlimited budget (the reference — also pins that an
//                  inert governor costs nothing in quality),
//   ladder-full    4-node budget, full degradation ladder
//                  (exact → partial bounds → sampling CI → [0, 1]),
//   ladder-strict  4-node budget, exact-or-unknown (no approximation),
//   sampler-only   no ADPLL at all: every solve is the forward sampler.
//
// The claim under test: the governed ladder converts a hard budget
// into bounded latency while keeping F1 at or above the sampler-only
// baseline — deductive partial bounds waste less of the crowd budget
// than sampling everything. Every row is deterministic.
//
// Writes BENCH_governor_ladder.json (one row per configuration).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>

#include "bench_util.h"
#include "bayesnet/imputation.h"
#include "common/random.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/metrics.h"

namespace bayescrowd::bench {
namespace {

enum Config : std::int64_t {
  kExact = 0,
  kLadderFull = 1,
  kLadderStrict = 2,
  kSamplerOnly = 3,
};

const char* ConfigName(std::int64_t config) {
  switch (config) {
    case kExact: return "exact";
    case kLadderFull: return "ladder-full";
    case kLadderStrict: return "ladder-strict";
    case kSamplerOnly: return "sampler-only";
  }
  return "?";
}

BenchArtifact& Artifact() {
  static auto* artifact = new BenchArtifact("governor_ladder");
  return *artifact;
}

const Table& HostileComplete() {
  static const Table* table =
      new Table(MakeCorrelated(/*n=*/40, /*d=*/8, /*levels=*/16,
                               /*seed=*/1003));
  return *table;
}

void BM_GovernorLadder(benchmark::State& state) {
  const std::int64_t config = state.range(0);

  const Table& complete = HostileComplete();
  Rng inject_rng(1003);
  const Table incomplete =
      InjectMissingUniform(complete, 0.35, inject_rng);

  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;  // Keep the crowd loop exercised.
  options.strategy.kind = StrategyKind::kUbs;
  options.budget = 20;
  options.latency = 4;
  switch (config) {
    case kExact:
      break;  // Inert governor, exact ADPLL.
    case kLadderFull:
      options.probability.governor.max_nodes = 4;
      options.probability.governor.ladder = LadderMode::kFull;
      options.breaker_threshold = 2;
      break;
    case kLadderStrict:
      options.probability.governor.max_nodes = 4;
      options.probability.governor.ladder = LadderMode::kStrict;
      options.breaker_threshold = 2;
      break;
    case kSamplerOnly:
      options.probability.method = ProbabilityMethod::kSampled;
      options.probability.sampling.num_samples = 4096;
      break;
  }

  BayesCrowdResult result;
  for (auto _ : state) {
    BayesCrowd framework(options);
    UniformPosteriorProvider posteriors(incomplete.schema());
    SimulatedCrowdPlatform platform(complete, {});
    auto run = framework.Run(incomplete, posteriors, platform);
    BAYESCROWD_CHECK_OK(run.status());
    result = std::move(run).value();
  }

  const SetMetrics quality = EvaluateResultSet(
      result.result_objects, GroundTruthSkyline(complete));
  state.counters["f1"] = quality.f1;
  state.counters["tasks"] = static_cast<double>(result.tasks_posted);
  const obs::MetricsSnapshot& m = result.metrics;
  state.counters["budget_exhausted"] =
      static_cast<double>(m.CounterValue("solver.budget_exhausted"));
  state.counters["degraded_objects"] =
      static_cast<double>(result.degraded_objects.size());
  state.SetLabel(ConfigName(config));

  obs::JsonValue run_config = obs::JsonValue::Object();
  run_config["ladder"] = ConfigName(config);
  obs::JsonValue row = obs::JsonValue::Object();
  row["f1"] = quality.f1;
  row["precision"] = quality.precision;
  row["recall"] = quality.recall;
  row["tasks"] = result.tasks_posted;
  row["rounds"] = result.rounds;
  obs::JsonValue solver = obs::JsonValue::Object();
  solver["budget_exhausted"] = m.CounterValue("solver.budget_exhausted");
  solver["tier_exact"] = m.CounterValue("solver.ladder_tier.exact");
  solver["tier_partial"] = m.CounterValue("solver.ladder_tier.partial");
  solver["tier_sampled"] = m.CounterValue("solver.ladder_tier.sampled");
  solver["tier_unknown"] = m.CounterValue("solver.ladder_tier.unknown");
  solver["breaker_trips"] = result.breaker_trips;
  solver["degraded_objects"] = result.degraded_objects.size();
  row["solver"] = std::move(solver);
  Artifact().AddRun(
      std::string("governor_ladder/") + ConfigName(config),
      1e3 * result.total_seconds, std::move(row), std::move(run_config));
}

void LadderArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t config :
       {kExact, kLadderFull, kLadderStrict, kSamplerOnly}) {
    bench->Args({config});
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_GovernorLadder)->Apply(LadderArgs);

}  // namespace
}  // namespace bayescrowd::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bayescrowd::bench::Artifact().Write() ? 0 : 1;
}

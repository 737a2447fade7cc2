// Parallel evaluation: crowdsourcing-phase wall clock on one fixed
// synthetic workload, swept over 1/2/4/8 evaluation threads.
//
// Series: threads. The 1-thread point is the sequential baseline; the
// headline comparison is 8 vs 1 thread on crowd_seconds, and the
// select/update splits explain where the time goes. Probabilities and
// selected tasks are bit-identical across every configuration
// (asserted by parallel_test.cc), so the series differ in time only.

// In addition to the console/JSON output of the benchmark library, this
// binary writes BENCH_parallel_scaling.json (telemetry envelope, one row
// per configuration) via the observability layer, so the scaling series
// can be diffed across commits without scraping console output.

#include <benchmark/benchmark.h>

#include <utility>

#include "bench_util.h"
#include "bayesnet/imputation.h"
#include "common/string_util.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "skyline/metrics.h"

namespace bayescrowd::bench {
namespace {

BenchArtifact& Artifact() {
  static auto* artifact = new BenchArtifact("parallel_scaling");
  return *artifact;
}

void BM_ParallelScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));

  // The shared NBA-like workload at 15% missing puts the c-table in the
  // ADPLL-heavy regime (tens of microseconds per condition), so the
  // crowd phase is dominated by Pr(φ) evaluation rather than bookkeeping.
  const Table& complete = NbaComplete();
  const Table incomplete = WithMissingRate(complete, 0.15);
  const auto& network = LearnedNetwork(incomplete, "scaling@0.15");

  // Many small rounds (ceil(B/L) = 1 task each): each round re-ranks
  // every undecided object, so ranking solves dominate the phase.
  BayesCrowdOptions options;
  options.ctable.alpha = 0.003;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 15;
  options.budget = 60;
  options.latency = 60;
  options.threads = threads;

  BayesCrowdResult result;
  for (auto _ : state) {
    BayesCrowd framework(options);
    BnPosteriorProvider posteriors(network, incomplete);
    SimulatedCrowdPlatform platform(complete, {});
    auto run = framework.Run(incomplete, posteriors, platform);
    BAYESCROWD_CHECK_OK(run.status());
    result = std::move(run).value();
  }

  state.counters["threads"] = static_cast<double>(threads);
  state.counters["crowd_seconds"] = result.crowdsourcing_seconds;
  state.counters["select_seconds"] = result.select_seconds;
  state.counters["update_seconds"] = result.update_seconds;
  state.counters["tasks"] = static_cast<double>(result.tasks_posted);
  state.counters["rounds"] = static_cast<double>(result.rounds);
  const double f1 = EvaluateResultSet(result.result_objects,
                                      GroundTruthSkyline(complete))
                        .f1;
  state.counters["f1"] = f1;

  obs::JsonValue config = obs::JsonValue::Object();
  config["threads"] = threads;
  obs::JsonValue row = obs::JsonValue::Object();
  row["crowd_seconds"] = result.crowdsourcing_seconds;
  row["select_seconds"] = result.select_seconds;
  row["update_seconds"] = result.update_seconds;
  row["tasks"] = result.tasks_posted;
  row["rounds"] = result.rounds;
  row["adpll_calls"] = result.adpll.calls;
  row["adpll_branches"] = result.adpll.branches;
  row["f1"] = f1;
  obs::JsonValue lanes = obs::JsonValue::Array();
  for (const ThreadPool::LaneStats& lane : result.lane_usage) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry["tasks"] = lane.tasks;
    entry["busy_seconds"] = lane.busy_seconds;
    lanes.Append(std::move(entry));
  }
  row["lanes"] = std::move(lanes);
  Artifact().AddRun(StrFormat("parallel_scaling/threads=%zu", threads),
                    1e3 * result.total_seconds, std::move(row),
                    std::move(config));
}

void ScalingArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t threads : {1, 2, 4, 8}) bench->Args({threads});
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_ParallelScaling)->Apply(ScalingArgs);

}  // namespace
}  // namespace bayescrowd::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bayescrowd::bench::Artifact().Write() ? 0 : 1;
}

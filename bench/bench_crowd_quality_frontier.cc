// Crowd quality frontier: flat 3-vote majority vs joint-inference +
// adaptive vote allocation, swept over the adversarial fraction of the
// marketplace's arrival stream {0, 10, 20, 30, 40}%.
//
// Both arms face the *same* seeded worker stream (honest/sloppy workers
// plus uniform spammers and coordinated colluders, Poisson arrivals,
// churn). The flat arm is the paper's baseline: 3 votes per task, plain
// majority, no worker model. The defended arm runs the full
// marketplace defense — gold-anchored Dawid-Skene joint inference,
// accuracy/work-time gates with latched quarantine, Fleiss-
// kappa collapse detection with the wide-fanout/abstain ladder, and
// confidence-driven extra votes (charged at 1/3 task cost each).
//
// The claim the sweep substantiates: from ~20% spam up, the defended
// arm dominates — F1 no worse at equal budget (in practice far higher),
// because the flat arm keeps folding colluder-majority answers into
// the knowledge base as permanent facts while the defended arm
// abstains until its reputations can tell workers apart.
//
// Writes BENCH_crowd_quality_frontier.json (one row per rate x arm).

#include <benchmark/benchmark.h>

#include <utility>

#include "bench_util.h"
#include "bayesnet/imputation.h"
#include "common/random.h"
#include "common/string_util.h"
#include "crowd/marketplace.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/metrics.h"

namespace bayescrowd::bench {
namespace {

BenchArtifact& Artifact() {
  static auto* artifact = new BenchArtifact("crowd_quality_frontier");
  return *artifact;
}

void BM_QualityFrontier(benchmark::State& state) {
  // state.range(0): spam rate in percent; state.range(1): 1 = defended.
  const double spam = static_cast<double>(state.range(0)) / 100.0;
  const bool defended = state.range(1) != 0;

  // Anticorrelated data keeps the skyline large and the queries
  // contentious; alpha = -1 disables modeling-phase pruning so answer
  // quality, not imputation, decides F1.
  const Table complete = MakeAnticorrelated(60, 4, 6, 5);
  Rng missing_rng(5);
  const Table incomplete =
      InjectMissingUniform(complete, 0.3, missing_rng);

  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 300;
  options.latency = 3;
  if (defended) {
    options.adaptive.enabled = true;
    options.adaptive.base_votes = 3;
    options.adaptive.max_votes = 5;
  }

  MarketplaceOptions market_options;
  market_options.pool_size = 20;
  market_options.spam_rate = spam;
  market_options.seed = 99;
  market_options.defend = defended;
  market_options.max_votes = defended ? 5 : market_options.base_votes;

  BayesCrowdResult result;
  MarketplaceStats stats;
  std::size_t quarantined = 0;
  for (auto _ : state) {
    BayesCrowd framework(options);
    UniformPosteriorProvider posteriors(incomplete.schema());
    MarketplaceCrowdPlatform market(complete, market_options);
    auto run = framework.Run(incomplete, posteriors, market);
    BAYESCROWD_CHECK_OK(run.status());
    result = std::move(run).value();
    stats = market.stats();
    quarantined = market.quarantined_workers();
  }

  const double f1 = EvaluateResultSet(result.result_objects,
                                      GroundTruthSkyline(complete))
                        .f1;
  state.counters["spam_rate"] = spam;
  state.counters["defended"] = defended ? 1.0 : 0.0;
  state.counters["f1"] = f1;
  state.counters["cost_spent"] = result.cost_spent;
  state.counters["extra_votes"] =
      static_cast<double>(result.extra_votes);
  state.counters["quarantined"] = static_cast<double>(quarantined);

  obs::JsonValue config = obs::JsonValue::Object();
  config["spam_rate"] = spam;
  config["defended"] = defended;
  config["budget"] = options.budget;
  config["pool_size"] = market_options.pool_size;
  config["seed"] = market_options.seed;
  obs::JsonValue row = obs::JsonValue::Object();
  row["f1"] = f1;
  row["tasks"] = result.tasks_posted;
  row["tasks_unanswered"] = result.tasks_unanswered;
  row["rounds"] = result.rounds;
  row["cost_spent"] = result.cost_spent;
  row["extra_votes"] = result.extra_votes;
  row["votes_cast"] = stats.votes_cast;
  row["premium_votes"] = stats.premium_votes;
  row["abstained_tasks"] = stats.abstained_tasks;
  row["gold_tasks"] = stats.gold_tasks;
  row["quarantined_workers"] = quarantined;
  row["wide_rounds"] = stats.wide_rounds;
  row["low_kappa_rounds"] = stats.low_kappa_rounds;
  row["last_kappa"] = stats.last_kappa;
  row["arrivals"] = stats.arrivals;
  row["departures"] = stats.departures;
  Artifact().AddRun(
      StrFormat("crowd_quality_frontier/spam=%.2f/%s", spam,
                defended ? "defended" : "flat"),
      1e3 * result.total_seconds, std::move(row), std::move(config));
}

void SweepArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t percent : {0, 10, 20, 30, 40}) {
    bench->Args({percent, 0});
    bench->Args({percent, 1});
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_QualityFrontier)->Apply(SweepArgs);

}  // namespace
}  // namespace bayescrowd::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bayescrowd::bench::Artifact().Write() ? 0 : 1;
}

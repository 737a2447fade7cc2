// Ablation: robustness extensions beyond the paper's protocol.
// (Vote aggregation — flat majority vs the defended, accuracy-weighted
// marketplace — is measured by bench_crowd_quality_frontier.)
//
//  * Missingness mechanism at a fixed 10% rate: MCAR (the paper's
//    protocol) vs MAR (observed-driver) vs MNAR (self-censoring).
//    Expected: F1 degrades from MCAR to MNAR — available-case BN
//    training is unbiased only under MCAR.
//  * Confidence stop: tasks spent and F1 with/without the early-stop
//    rule under a generous budget. Expected: similar F1, fewer tasks.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "data/missing.h"

namespace bayescrowd::bench {
namespace {

// ------------------------------------------------------------------ //
// Missingness mechanisms.
// ------------------------------------------------------------------ //

enum class Mechanism { kMcar, kMar, kMnar };

void RunMechanism(benchmark::State& state, Mechanism mechanism) {
  const Table& complete = NbaComplete();
  double f1_total = 0.0;
  int samples = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : {5u, 6u, 7u}) {
      Rng rng(seed * 7907);
      Table incomplete;
      const char* tag = "";
      switch (mechanism) {
        case Mechanism::kMcar:
          incomplete = InjectMissingUniform(complete, 0.1, rng);
          tag = "mcar";
          break;
        case Mechanism::kMar:
          // Minutes (attribute 1) drives the dropout.
          incomplete = InjectMissingMar(complete, 0.1, 1, rng);
          tag = "mar";
          break;
        case Mechanism::kMnar:
          incomplete = InjectMissingMnar(complete, 0.1, rng);
          tag = "mnar";
          break;
      }
      const auto& net = LearnedNetwork(
          incomplete, std::string("mech-") + tag + std::to_string(seed));
      const PipelineOutcome outcome =
          RunPipeline(complete, incomplete, net, NbaDefaults());
      f1_total += outcome.f1;
      ++samples;
    }
  }
  state.counters["f1"] = f1_total / static_cast<double>(samples);
}

void BM_Missingness_MCAR(benchmark::State& state) {
  RunMechanism(state, Mechanism::kMcar);
}
void BM_Missingness_MAR(benchmark::State& state) {
  RunMechanism(state, Mechanism::kMar);
}
void BM_Missingness_MNAR(benchmark::State& state) {
  RunMechanism(state, Mechanism::kMnar);
}

// ------------------------------------------------------------------ //
// Confidence stop.
// ------------------------------------------------------------------ //

void RunConfidenceStop(benchmark::State& state, double threshold) {
  const Table& complete = NbaComplete();
  const Table incomplete = WithMissingRate(complete, 0.1);
  const auto& net = LearnedNetwork(incomplete, "nba@0.1");
  BayesCrowdOptions options = NbaDefaults();
  options.budget = 400;  // Generous; the stop should save most of it.
  options.latency = 40;
  options.confidence_stop_entropy = threshold;
  PipelineOutcome outcome;
  for (auto _ : state) {
    outcome = RunPipeline(complete, incomplete, net, options);
  }
  state.counters["f1"] = outcome.f1;
  state.counters["tasks"] = static_cast<double>(outcome.tasks);
}

void BM_ConfidenceStop_Off(benchmark::State& state) {
  RunConfidenceStop(state, 0.0);
}
void BM_ConfidenceStop_035(benchmark::State& state) {
  RunConfidenceStop(state, 0.35);
}
void BM_ConfidenceStop_060(benchmark::State& state) {
  RunConfidenceStop(state, 0.60);
}

void Unit(benchmark::internal::Benchmark* bench) {
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Missingness_MCAR)->Apply(Unit);
BENCHMARK(BM_Missingness_MAR)->Apply(Unit);
BENCHMARK(BM_Missingness_MNAR)->Apply(Unit);
BENCHMARK(BM_ConfidenceStop_Off)->Apply(Unit);
BENCHMARK(BM_ConfidenceStop_035)->Apply(Unit);
BENCHMARK(BM_ConfidenceStop_060)->Apply(Unit);

}  // namespace
}  // namespace bayescrowd::bench

BC_BENCH_MAIN("ablation_robustness");

// Knowledge compilation vs. re-solving: the round-loop hot path.
//
// The crowdsourcing loop's dominant cost is "fold answers, re-evaluate
// Pr(φ) for every touched object" — same formulas, shifted posteriors,
// round after round. This bench pins the tentpole claim: replaying a
// compiled circuit through those rounds beats re-running the (governed)
// ADPLL search by ≥10×, at identical bits.
//
// Three measurements, one JSON artifact (BENCH_compile_vs_adpll.json):
//
//   round-loop     a fixed workload of branch-heavy zigzag conditions,
//                  posterior-shift rounds through the evaluator:
//                  exact ADPLL vs. governed ADPLL vs. compiled replay
//                  (speedups + bit-identity in the compiled row), each
//                  after an untimed two-round warm-up whose seconds
//                  every row reports;
//   scratch        satellite: ADPLL's per-call scratch allocations vs.
//                  the reusable per-lane scratch, same workload;
//   pipeline       a full BayesCrowd run on a hostile c-table with
//                  compilation off/on: F1 and result probabilities
//                  must not move at all.
//
// Every row is deterministic (seeded workloads, no wall-clock logic in
// the measured code paths).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "bayesnet/imputation.h"
#include "common/random.h"
#include "crowd/platform.h"
#include "ctable/condition.h"
#include "ctable/expression.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/evaluator.h"
#include "skyline/metrics.h"

namespace bayescrowd::bench {
namespace {

// Workload shape matters: a circuit replays exactly the arithmetic the
// search performs at its leaves, so compilation wins by deleting the
// per-node search bookkeeping (substituted-condition materialization,
// independence/hub scans, plan construction) — not the leaf math. The
// round-loop rows therefore use zigzag chains (v0 < v1 > v2 < ... —
// satisfiable at any arity, unlike a strict chain) with the star fast
// path ablated in *every* config, so both sides branch the cascade all
// the way down to constant-time leaves: 8^4 decision paths per solve
// whose search cost is pure bookkeeping. Star-heavy workloads spend
// their time in shared leaf enumeration instead and see commensurately
// less; the scratch rows below run one (star-on, default-options) for
// exactly that reason.
constexpr std::size_t kChains = 8;
constexpr std::size_t kChainDepth = 5;  // Six variables, 8^4 hub space.
constexpr Level kChainLevels = 8;
constexpr std::size_t kRounds = 10;

enum Config : std::int64_t {
  kAdpllExact = 0,
  kAdpllGoverned = 1,
  kCompiled = 2,
};

const char* ConfigName(std::int64_t config) {
  switch (config) {
    case kAdpllExact: return "adpll-exact";
    case kAdpllGoverned: return "adpll-governed";
    case kCompiled: return "compiled";
  }
  return "?";
}

BenchArtifact& Artifact() {
  static auto* artifact = new BenchArtifact("compile_vs_adpll");
  return *artifact;
}

std::vector<double> RandomDist(std::size_t levels, Rng& rng) {
  std::vector<double> weights(levels);
  double total = 0.0;
  for (double& w : weights) {
    w = 0.05 + rng.NextDouble();
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

struct Workload {
  std::vector<Condition> conditions;
  std::vector<CellRef> vars;
  DistributionMap dists;
};

const Workload& ChainWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    Rng rng(0xBE7C);
    for (std::size_t chain = 0; chain < kChains; ++chain) {
      const std::size_t base = chain * 100;
      std::vector<Conjunct> conjuncts;
      for (std::size_t i = 0; i < kChainDepth; ++i) {
        const CmpOp op = (i % 2 == 0) ? CmpOp::kLess : CmpOp::kGreater;
        conjuncts.push_back({Expression::VarVar(
            CellRef{base + i, 0}, op, CellRef{base + i + 1, 0})});
      }
      w->conditions.push_back(Condition::Cnf(std::move(conjuncts)));
      for (std::size_t i = 0; i <= kChainDepth; ++i) {
        const CellRef var{base + i, 0};
        w->vars.push_back(var);
        BAYESCROWD_CHECK_OK(
            w->dists.Set(var, RandomDist(kChainLevels, rng)));
      }
    }
    return w;
  }();
  return *workload;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RoundLoopOutcome {
  double seconds = 0.0;
  double warmup_seconds = 0.0;  // First solves and builds; not in `seconds`.
  std::vector<double> values;  // Concatenated rounds, for bit-compare.
  std::uint64_t adpll_calls = 0;
  CircuitStats compile;
};

RoundLoopOutcome RunRoundLoop(std::int64_t config) {
  const Workload& w = ChainWorkload();
  ProbabilityOptions options;
  // Star ablated in *all three* configs (see the workload comment): the
  // comparison stays apples-to-apples, and every solve is the pure
  // decision cascade the round loop exists to amortize.
  options.adpll.star_fast_path = false;
  if (config != kAdpllExact) {
    options.governor.max_nodes = 1ull << 40;
    options.governor.ladder = LadderMode::kFull;
  }
  options.compile.mode =
      config == kCompiled ? CompileMode::kAuto : CompileMode::kOff;
  // The chains' decision cascades cost more nodes than the default
  // budget: the round loop is exactly the workload where paying a
  // bigger one-time compile is worth it.
  options.compile.max_nodes = 1ull << 22;
  ProbabilityEvaluator evaluator(options);
  for (const CellRef& var : w.vars) {
    auto dist = w.dists.Get(var);
    BAYESCROWD_CHECK_OK(dist.status());
    BAYESCROWD_CHECK_OK(
        evaluator.SetDistribution(var, std::move(dist).value()));
  }
  std::vector<const Condition*> batch;
  for (const Condition& condition : w.conditions) {
    batch.push_back(&condition);
  }
  // Warm-up, two rounds: the first solves, then one shifted round whose
  // second solves, when compiling, also build the circuits — the
  // one-time cost the loop amortizes. The warm-up shift draws from its
  // own stream, so the timed shift stream is the same for every config.
  RoundLoopOutcome out;
  const auto warmup_start = std::chrono::steady_clock::now();
  BAYESCROWD_CHECK_OK(evaluator.EvaluateBatch(batch).status());
  Rng warmup_rng(0x3A6E);
  for (std::size_t chain = 0; chain < kChains; ++chain) {
    const CellRef var{chain * 100 + kChainDepth, 0};
    BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
        var, RandomDist(kChainLevels, warmup_rng)));
  }
  BAYESCROWD_CHECK_OK(evaluator.EvaluateBatch(batch).status());
  out.warmup_seconds = Seconds(warmup_start);

  Rng rng(0x5EED);  // Same shift stream for every config.
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kRounds; ++round) {
    // One answered variable per chain per round — the crowd loop's
    // actual update pattern — touches (and so re-solves) every
    // condition while the posterior churn itself stays cheap.
    for (std::size_t chain = 0; chain < kChains; ++chain) {
      const CellRef var{chain * 100 + round % (kChainDepth + 1), 0};
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, RandomDist(kChainLevels, rng)));
    }
    auto values = evaluator.EvaluateBatch(batch);
    BAYESCROWD_CHECK_OK(values.status());
    out.values.insert(out.values.end(), values->begin(), values->end());
  }
  out.seconds = Seconds(start);
  out.adpll_calls = evaluator.adpll_stats().calls;
  out.compile = evaluator.compile_stats();
  return out;
}

void BM_CompileRoundLoop(benchmark::State& state) {
  const std::int64_t config = state.range(0);
  static auto* baselines = new std::vector<RoundLoopOutcome>(3);

  RoundLoopOutcome outcome;
  for (auto _ : state) {
    outcome = RunRoundLoop(config);
  }
  (*baselines)[static_cast<std::size_t>(config)] = outcome;

  const RoundLoopOutcome& exact = (*baselines)[kAdpllExact];
  bool bit_identical = outcome.values.size() == exact.values.size();
  for (std::size_t i = 0; bit_identical && i < outcome.values.size(); ++i) {
    bit_identical = outcome.values[i] == exact.values[i];
  }

  state.counters["round_ms"] =
      outcome.seconds / static_cast<double>(kRounds) * 1e3;
  state.counters["adpll_calls"] = static_cast<double>(outcome.adpll_calls);
  state.SetLabel(ConfigName(config));

  obs::JsonValue run_config = obs::JsonValue::Object();
  run_config["bench"] = std::string("round-loop");
  run_config["config"] = ConfigName(config);
  run_config["rounds"] = kRounds;
  run_config["conditions"] = kChains;
  obs::JsonValue row = obs::JsonValue::Object();
  row["seconds_per_round"] = outcome.seconds / static_cast<double>(kRounds);
  row["warmup_seconds"] = outcome.warmup_seconds;
  row["adpll_calls"] = outcome.adpll_calls;
  row["bit_identical_to_exact"] = bit_identical;
  obs::JsonValue compile = obs::JsonValue::Object();
  compile["builds"] = outcome.compile.builds;
  compile["reuses"] = outcome.compile.reuses;
  compile["fallbacks"] = outcome.compile.fallbacks;
  compile["nodes"] = outcome.compile.nodes;
  row["compile"] = std::move(compile);
  if (config == kCompiled && outcome.seconds > 0.0) {
    row["speedup_vs_exact"] = exact.seconds / outcome.seconds;
    row["speedup_vs_governed"] =
        (*baselines)[kAdpllGoverned].seconds / outcome.seconds;
    state.counters["speedup_vs_governed"] =
        (*baselines)[kAdpllGoverned].seconds / outcome.seconds;
  }
  Artifact().AddRun(std::string("round-loop/") + ConfigName(config),
                    1e3 * outcome.seconds, std::move(row),
                    std::move(run_config));
}

void RoundLoopArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t config : {kAdpllExact, kAdpllGoverned, kCompiled}) {
    bench->Args({config});
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_CompileRoundLoop)->Apply(RoundLoopArgs);

// ------------------------------------------------------------------ //
// Satellite: per-call scratch allocations vs. the reusable scratch
// ------------------------------------------------------------------ //

// The scratch satellite wants the opposite workload shape from the
// round loop: many *small* star-path solves, where the per-call
// allocations the reusable scratch eliminates (star plan, hub maps,
// expression tables, seen-vars) are a visible fraction of each solve
// rather than noise under a long enumeration.
const Workload& ScratchWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    constexpr std::size_t kSmallChains = 8;
    constexpr std::size_t kSmallDepth = 3;   // Four variables, hub 4^2.
    constexpr Level kSmallLevels = 4;
    Rng rng(0x5C1A);
    for (std::size_t chain = 0; chain < kSmallChains; ++chain) {
      const std::size_t base = 10'000 + chain * 100;
      std::vector<Conjunct> conjuncts;
      for (std::size_t i = 0; i < kSmallDepth; ++i) {
        const CmpOp op = (i % 2 == 0) ? CmpOp::kLess : CmpOp::kGreater;
        conjuncts.push_back({Expression::VarVar(
            CellRef{base + i, 0}, op, CellRef{base + i + 1, 0})});
      }
      w->conditions.push_back(Condition::Cnf(std::move(conjuncts)));
      for (std::size_t i = 0; i <= kSmallDepth; ++i) {
        const CellRef var{base + i, 0};
        w->vars.push_back(var);
        BAYESCROWD_CHECK_OK(
            w->dists.Set(var, RandomDist(kSmallLevels, rng)));
      }
    }
    return w;
  }();
  return *workload;
}

void BM_AdpllScratch(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  const Workload& w = ScratchWorkload();
  constexpr std::size_t kPasses = 500;
  static auto* per_call_seconds = new double(0.0);

  double seconds = 0.0;
  double checksum = 0.0;
  for (auto _ : state) {
    AdpllScratch scratch;
    checksum = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (const Condition& condition : w.conditions) {
        const auto p = AdpllProbability(condition, w.dists, {}, nullptr,
                                        reuse ? &scratch : nullptr);
        BAYESCROWD_CHECK_OK(p.status());
        checksum += p.value();
      }
    }
    seconds = Seconds(start);
  }
  if (!reuse) *per_call_seconds = seconds;

  state.counters["solves_per_sec"] =
      static_cast<double>(kPasses * w.conditions.size()) / seconds;
  state.SetLabel(reuse ? "scratch-reused" : "scratch-per-call");

  obs::JsonValue run_config = obs::JsonValue::Object();
  run_config["bench"] = std::string("scratch");
  run_config["config"] = reuse ? "scratch-reused" : "scratch-per-call";
  run_config["solves"] = kPasses * w.conditions.size();
  obs::JsonValue row = obs::JsonValue::Object();
  row["checksum"] = checksum;
  if (reuse && seconds > 0.0) {
    row["speedup_vs_per_call"] = *per_call_seconds / seconds;
  }
  Artifact().AddRun(std::string("scratch/") +
                        (reuse ? "scratch-reused" : "scratch-per-call"),
                    1e3 * seconds, std::move(row), std::move(run_config));
}

BENCHMARK(BM_AdpllScratch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ------------------------------------------------------------------ //
// End-to-end guard: compilation must not move F1 (or a single bit)
// ------------------------------------------------------------------ //

void BM_CompilePipeline(benchmark::State& state) {
  const bool compiled = state.range(0) != 0;

  static const Table* complete =
      new Table(MakeCorrelated(/*n=*/40, /*d=*/8, /*levels=*/16,
                               /*seed=*/1003));
  Rng inject_rng(1003);
  const Table incomplete =
      InjectMissingUniform(*complete, 0.35, inject_rng);

  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.strategy.kind = StrategyKind::kUbs;
  options.budget = 20;
  options.latency = 4;
  // A generous-but-real budget: most solves complete exactly (and so
  // compile), pathological ones degrade identically in both configs.
  options.probability.governor.max_nodes = 100'000;
  options.probability.governor.ladder = LadderMode::kFull;
  options.probability.compile.mode =
      compiled ? CompileMode::kAuto : CompileMode::kOff;

  BayesCrowdResult result;
  for (auto _ : state) {
    BayesCrowd framework(options);
    UniformPosteriorProvider posteriors(incomplete.schema());
    SimulatedCrowdPlatform platform(*complete, {});
    auto run = framework.Run(incomplete, posteriors, platform);
    BAYESCROWD_CHECK_OK(run.status());
    result = std::move(run).value();
  }

  static auto* baseline = new BayesCrowdResult();
  if (!compiled) *baseline = result;
  bool bit_identical =
      result.probabilities.size() == baseline->probabilities.size() &&
      result.result_objects == baseline->result_objects;
  for (std::size_t i = 0;
       bit_identical && i < result.probabilities.size(); ++i) {
    bit_identical = result.probabilities[i] == baseline->probabilities[i];
  }

  const SetMetrics quality = EvaluateResultSet(
      result.result_objects, GroundTruthSkyline(*complete));
  state.counters["f1"] = quality.f1;
  state.SetLabel(compiled ? "pipeline-compiled" : "pipeline-adpll");

  obs::JsonValue run_config = obs::JsonValue::Object();
  run_config["bench"] = std::string("pipeline");
  run_config["config"] = compiled ? "pipeline-compiled" : "pipeline-adpll";
  obs::JsonValue row = obs::JsonValue::Object();
  row["f1"] = quality.f1;
  row["precision"] = quality.precision;
  row["recall"] = quality.recall;
  row["tasks"] = result.tasks_posted;
  row["rounds"] = result.rounds;
  row["bit_identical_to_adpll"] = bit_identical;
  obs::JsonValue compile = obs::JsonValue::Object();
  compile["builds"] = result.compile.builds;
  compile["reuses"] = result.compile.reuses;
  compile["fallbacks"] = result.compile.fallbacks;
  compile["restored"] = result.compile.restored;
  row["compile"] = std::move(compile);
  Artifact().AddRun(std::string("pipeline/") +
                        (compiled ? "pipeline-compiled" : "pipeline-adpll"),
                    1e3 * result.total_seconds, std::move(row),
                    std::move(run_config));
}

BENCHMARK(BM_CompilePipeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bayescrowd::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bayescrowd::bench::Artifact().Write() ? 0 : 1;
}

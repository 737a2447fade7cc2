// Figure 2: c-table construction time vs missing rate.
//
// Series: Get-CTable (per-dimension level bitsets, ANDed and counted
// word by word) vs Baseline (pairwise comparisons), on NBA and
// Synthetic, missing rate 0.05-0.20.
//
// Expected shape (paper): Get-CTable clearly faster than Baseline on
// both datasets; both grow with the missing rate (larger dominator
// sets).

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "ctable/builder.h"

namespace bayescrowd::bench {
namespace {

// Per-mille missing rates used as benchmark arguments.
constexpr std::int64_t kRates[] = {50, 100, 150, 200};

const Table& IncompleteFor(const Table& complete, std::int64_t rate_pm) {
  static auto* cache = new std::map<std::pair<const Table*, std::int64_t>,
                                    Table>();
  const auto key = std::make_pair(&complete, rate_pm);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, WithMissingRate(complete, rate_pm / 1000.0))
             .first;
  }
  return it->second;
}

// Both series build on one lane: the comparison is between the two
// dominator derivations, each followed by the same condition builder.
void RunBuild(benchmark::State& state, const Table& complete,
              double alpha, bool fast) {
  const Table& incomplete = IncompleteFor(complete, state.range(0));
  std::size_t undecided = 0;
  for (auto _ : state) {
    auto ctable = [&]() -> Result<CTable> {
      if (fast) return BuildCTable(incomplete, {.alpha = alpha});
      BAYESCROWD_ASSIGN_OR_RETURN(
          DominatorSets sets,
          ComputeDominatorSetsBaseline(incomplete, alpha));
      return BuildConditions(incomplete, sets);
    }();
    BAYESCROWD_CHECK_OK(ctable.status());
    undecided = ctable->NumUndecided();
    benchmark::DoNotOptimize(ctable);
  }
  state.counters["missing_rate"] = static_cast<double>(state.range(0)) / 1000.0;
  state.counters["undecided"] = static_cast<double>(undecided);
}

void BM_Fig2_Nba_GetCTable(benchmark::State& state) {
  RunBuild(state, NbaComplete(), 0.003, /*fast=*/true);
}
void BM_Fig2_Nba_Baseline(benchmark::State& state) {
  RunBuild(state, NbaComplete(), 0.003, /*fast=*/false);
}
void BM_Fig2_Synthetic_GetCTable(benchmark::State& state) {
  RunBuild(state, SyntheticComplete(), 0.01, /*fast=*/true);
}
void BM_Fig2_Synthetic_Baseline(benchmark::State& state) {
  RunBuild(state, SyntheticComplete(), 0.01, /*fast=*/false);
}

void RateArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t rate : kRates) bench->Arg(rate);
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Fig2_Nba_GetCTable)->Apply(RateArgs);
BENCHMARK(BM_Fig2_Nba_Baseline)->Apply(RateArgs);
BENCHMARK(BM_Fig2_Synthetic_GetCTable)->Apply(RateArgs);
BENCHMARK(BM_Fig2_Synthetic_Baseline)->Apply(RateArgs);

}  // namespace
}  // namespace bayescrowd::bench

BC_BENCH_MAIN("fig2_ctable");

// Differential test harness for the Pr(φ) engines: on a population of
// seeded random c-tables, the three independent implementations — full
// enumeration (Naive), adaptive DPLL search (ADPLL), and the
// ApproxCount-style forward sampler — must agree. Naive and ADPLL are
// both exact, so they agree to floating-point noise; the sampler agrees
// within a statistical tolerance far wider than its seeded deviation.
// The same population pins ADPLL's bit-identity across thread counts
// and cache settings, the invariant the crowdsourcing loop leans on.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adversarial_ctables.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "probability/governor.h"
#include "probability/interval.h"
#include "ctable/builder.h"
#include "ctable/ctable.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/adpll.h"
#include "probability/distributions.h"
#include "probability/evaluator.h"
#include "probability/naive.h"
#include "probability/sampling.h"

namespace bayescrowd {
namespace {

// Enumeration stays tractable: levels^kMaxNaiveVars assignments.
constexpr Level kLevels = 4;
constexpr std::size_t kMaxNaiveVars = 8;
constexpr std::size_t kNumCases = 50;
constexpr std::size_t kMaxConditionsPerCase = 6;

struct DifferentialCase {
  Table incomplete;
  CTable ctable;
  DistributionMap dists;
  /// Undecided objects whose condition Naive can afford.
  std::vector<std::size_t> objects;
};

// One seeded random c-table: synthetic correlation family, cardinality,
// and missing rate all vary with the seed; distributions are random
// (non-uniform) so the engines cannot agree by symmetry.
DifferentialCase MakeCase(std::uint64_t seed) {
  const std::size_t n = 12 + seed % 8;
  const std::size_t d = 3;
  Table complete;
  switch (seed % 3) {
    case 0:
      complete = MakeIndependent(n, d, kLevels, 1000 + seed);
      break;
    case 1:
      complete = MakeCorrelated(n, d, kLevels, 1000 + seed);
      break;
    default:
      complete = MakeAnticorrelated(n, d, kLevels, 1000 + seed);
      break;
  }
  Rng missing_rng(500 + seed);
  const double rate = 0.15 + 0.01 * static_cast<double>(seed % 10);
  DifferentialCase out;
  out.incomplete = InjectMissingUniform(complete, rate, missing_rng);

  CTableOptions options;
  options.alpha = -1.0;  // No pruning: keep conditions rich.
  auto ctable = BuildCTable(out.incomplete, options);
  BAYESCROWD_CHECK_OK(ctable.status());
  out.ctable = std::move(ctable).value();

  Rng dist_rng(9000 + seed);
  for (const CellRef& var : out.ctable.AllVariables()) {
    std::vector<double> weights(kLevels);
    double total = 0.0;
    for (double& w : weights) {
      w = 0.05 + dist_rng.NextDouble();
      total += w;
    }
    for (double& w : weights) w /= total;
    BAYESCROWD_CHECK_OK(out.dists.Set(var, std::move(weights)));
  }

  for (std::size_t i : out.ctable.UndecidedObjects()) {
    const Condition& condition = out.ctable.condition(i);
    if (condition.NumExpressions() == 0) continue;
    if (condition.Variables().size() > kMaxNaiveVars) continue;
    out.objects.push_back(i);
    if (out.objects.size() >= kMaxConditionsPerCase) break;
  }
  return out;
}

TEST(DifferentialTest, NaiveAdpllAndSamplerAgreeOnSeededCTables) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < kNumCases; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    for (const std::size_t object : c.objects) {
      const Condition& condition = c.ctable.condition(object);

      const auto naive = NaiveProbability(condition, c.dists);
      ASSERT_TRUE(naive.ok()) << naive.status() << " seed " << seed;
      const auto adpll = AdpllProbability(condition, c.dists);
      ASSERT_TRUE(adpll.ok()) << adpll.status() << " seed " << seed;
      // Two exact engines: identical up to summation-order noise.
      EXPECT_NEAR(naive.value(), adpll.value(), 1e-9)
          << "seed " << seed << " object " << object;

      SamplingOptions sampling;
      sampling.num_samples = 20'000;
      Rng sample_rng(7700 + seed * 131 + object);
      const auto sampled =
          SampledProbability(condition, c.dists, sampling, sample_rng);
      ASSERT_TRUE(sampled.ok()) << sampled.status();
      // ~8.5 sigma at 20k samples: deterministic seeds keep this exact,
      // the margin keeps it honest if sampling internals evolve.
      EXPECT_NEAR(naive.value(), sampled.value(), 0.03)
          << "seed " << seed << " object " << object;

      Rng rb_rng(8800 + seed * 131 + object);
      const auto rao = SampledProbabilityRaoBlackwell(condition, c.dists,
                                                      sampling, rb_rng);
      ASSERT_TRUE(rao.ok()) << rao.status();
      EXPECT_NEAR(naive.value(), rao.value(), 0.03)
          << "seed " << seed << " object " << object;

      ++compared;
    }
  }
  // The population must actually exercise the engines.
  EXPECT_GE(compared, 50u);
}

// Evaluates every selected condition of a case through the evaluator's
// batch path with the given pool size and cache setting.
std::vector<double> EvaluateCase(const DifferentialCase& c,
                                 std::size_t threads, bool memoize) {
  ProbabilityOptions options;
  options.method = ProbabilityMethod::kAdpll;
  options.memoize = memoize;
  ProbabilityEvaluator evaluator(options);
  for (const CellRef& var : c.ctable.AllVariables()) {
    auto dist = c.dists.Get(var);
    BAYESCROWD_CHECK_OK(dist.status());
    BAYESCROWD_CHECK_OK(
        evaluator.SetDistribution(var, std::move(dist).value()));
  }
  ThreadPool pool(threads);
  evaluator.set_thread_pool(&pool);
  // Evaluate twice: the second pass hits the cache when enabled, and
  // must not change a single bit.
  auto first = evaluator.EvaluateAll(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(first.status());
  auto second = evaluator.EvaluateAll(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(second.status());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first.value()[i], second.value()[i]);
  }
  return std::move(first).value();
}

TEST(DifferentialTest, AdpllBitIdenticalAcrossThreadsAndCache) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    if (c.objects.empty()) continue;
    const std::vector<double> base = EvaluateCase(c, 1, /*memoize=*/true);
    for (const std::size_t threads : {1u, 8u}) {
      for (const bool memoize : {true, false}) {
        const std::vector<double> got = EvaluateCase(c, threads, memoize);
        ASSERT_EQ(base.size(), got.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
          EXPECT_EQ(base[i], got[i])
              << "seed " << seed << " threads " << threads << " cache "
              << memoize;
        }
      }
    }
  }
}

// ------------------------------------------------------------------ //
// Compiled sweep: circuit replay vs. the engines it must mirror
// ------------------------------------------------------------------ //

// Evaluates every selected condition of a case across several
// posterior-shift rounds — the compiled layer's hot path — and returns
// the concatenated per-round probabilities.
std::vector<double> EvaluateCaseRounds(const DifferentialCase& c,
                                       std::uint64_t seed,
                                       std::size_t threads,
                                       CompileMode mode,
                                       CircuitStats* stats) {
  ProbabilityOptions options;
  options.method = ProbabilityMethod::kAdpll;
  options.compile.mode = mode;
  ProbabilityEvaluator evaluator(options);
  for (const CellRef& var : c.ctable.AllVariables()) {
    auto dist = c.dists.Get(var);
    BAYESCROWD_CHECK_OK(dist.status());
    BAYESCROWD_CHECK_OK(
        evaluator.SetDistribution(var, std::move(dist).value()));
  }
  ThreadPool pool(threads);
  evaluator.set_thread_pool(&pool);
  std::vector<double> all;
  Rng shift_rng(6100 + seed);
  for (std::size_t round = 0; round < 3; ++round) {
    auto values = evaluator.EvaluateAll(c.ctable, c.objects);
    BAYESCROWD_CHECK_OK(values.status());
    all.insert(all.end(), values->begin(), values->end());
    for (const CellRef& var : c.ctable.AllVariables()) {
      std::vector<double> weights(kLevels);
      double total = 0.0;
      for (double& w : weights) {
        w = 0.05 + shift_rng.NextDouble();
        total += w;
      }
      for (double& w : weights) w /= total;
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, std::move(weights)));
    }
  }
  if (stats != nullptr) *stats = evaluator.compile_stats();
  return all;
}

// The compiled evaluator must be indistinguishable from the plain
// ADPLL evaluator — same bits at every thread count, on the same
// seeded population that pins the engines against each other.
TEST(DifferentialTest, CompiledReplayBitIdenticalToAdpllAcrossRounds) {
  std::uint64_t total_reuses = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    if (c.objects.empty()) continue;
    const std::vector<double> base =
        EvaluateCaseRounds(c, seed, 1, CompileMode::kOff, nullptr);
    for (const std::size_t threads : {1u, 8u}) {
      CircuitStats stats;
      const std::vector<double> compiled =
          EvaluateCaseRounds(c, seed, threads, CompileMode::kAuto, &stats);
      ASSERT_EQ(base.size(), compiled.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i], compiled[i])
            << "seed " << seed << " threads " << threads << " slot " << i;
      }
      EXPECT_GT(stats.builds, 0u) << "seed " << seed;
      total_reuses += stats.reuses;
    }
  }
  // The shifted rounds must actually run through circuit replay, or
  // the sweep proves nothing about the compiled path.
  EXPECT_GT(total_reuses, 0u);
}

// On instances engineered to blow the compile budget, the evaluator
// must degrade through the governed fallback — exact ADPLL when the
// governor is inert, a sound graded interval when a budget bites —
// and never through a wrong compiled answer.
TEST(DifferentialTest, CompiledPathFallsBackSoundlyOnAdversarialInstances) {
  Rng sweep(0x5EEDC0DE);
  for (std::size_t round = 0; round < 6; ++round) {
    const AdversarialInstance inst = MakeRandomAdversarialInstance(sweep);

    // The second exact solve is the one that attempts a compile, so
    // every evaluator below misses twice.
    const CellRef shifted = inst.condition.Variables().front();

    // Inert governor: the compile refusal must leave the exact answer
    // untouched.
    {
      ProbabilityOptions options;
      options.compile.mode = CompileMode::kAuto;
      options.compile.max_nodes = 256;  // Refuses every instance family.
      ProbabilityEvaluator evaluator(options);
      evaluator.distributions() = inst.dists;
      ASSERT_TRUE(evaluator.Probability(inst.condition).ok())
          << "round " << round;
      evaluator.InvalidateVariable(shifted);
      const auto p = evaluator.Probability(inst.condition);
      ASSERT_TRUE(p.ok()) << "round " << round;
      EXPECT_NEAR(p.value(), inst.exact_probability, 1e-9)
          << "round " << round;
      EXPECT_EQ(evaluator.compile_stats().builds, 0u) << "round " << round;
      EXPECT_GE(evaluator.compile_stats().fallbacks, 1u)
          << "round " << round;
    }

    // Biting node budget: compilation must not change the grade — the
    // interval stays sound and the budget still registers as exhausted.
    {
      ProbabilityOptions options;
      options.compile.mode = CompileMode::kAuto;
      options.compile.max_nodes = 256;
      options.governor.max_nodes = 32;
      options.governor.ladder = LadderMode::kFull;
      ProbabilityEvaluator evaluator(options);
      evaluator.distributions() = inst.dists;
      ASSERT_TRUE(evaluator.ProbabilityInterval(inst.condition).ok())
          << "round " << round;
      evaluator.InvalidateVariable(shifted);
      const auto r = evaluator.ProbabilityInterval(inst.condition);
      ASSERT_TRUE(r.ok()) << "round " << round;
      EXPECT_FALSE(r->exact()) << "round " << round;
      EXPECT_LE(r->lo, inst.exact_probability + 1e-9) << "round " << round;
      EXPECT_GE(r->hi, inst.exact_probability - 1e-9) << "round " << round;
      EXPECT_GE(evaluator.solver_stats().budget_exhausted, 1u)
          << "round " << round;
      EXPECT_EQ(evaluator.CircuitCount(), 0u) << "round " << round;
    }
  }
}

// ------------------------------------------------------------------ //
// Adversarial sweep: the governed ladder vs. the Naive ground truth
// ------------------------------------------------------------------ //

// On instances engineered to defeat every ADPLL shortcut (see
// adversarial_ctables.h), a governed solve must (a) terminate inside
// its node budget instead of walking the full levels^vars space, and
// (b) return a sound interval containing the independently-enumerated
// Naive probability. The closed form cross-checks Naive itself, so no
// engine is trusted twice.
TEST(DifferentialTest, GovernedLadderSoundOnAdversarialInstances) {
  Rng sweep(0xBADC0DE);
  for (std::size_t round = 0; round < 12; ++round) {
    const AdversarialInstance inst = MakeRandomAdversarialInstance(sweep);

    NaiveOptions naive_options;
    naive_options.max_assignments = 10'000'000;
    const auto truth =
        NaiveProbability(inst.condition, inst.dists, naive_options);
    ASSERT_TRUE(truth.ok()) << "round " << round;
    ASSERT_NEAR(truth.value(), inst.exact_probability, 1e-9)
        << "round " << round;

    for (const std::uint64_t max_nodes : {4ull, 32ull, 1ull << 40}) {
      GovernorOptions options;
      options.max_nodes = max_nodes;
      options.ladder = LadderMode::kFull;
      const SolverGovernor governor(options);
      Rng rng(round * 1000 + max_nodes);
      GovernorTally tally;
      const auto r = governor.Evaluate(inst.condition, inst.dists, {},
                                       {}, rng, nullptr, &tally);
      ASSERT_TRUE(r.ok()) << "round " << round << " nodes " << max_nodes;
      // Soundness at every budget: the interval contains the truth
      // (exact answers collapse to a point on it).
      EXPECT_LE(r->lo, truth.value() + 1e-9)
          << "round " << round << " nodes " << max_nodes;
      EXPECT_GE(r->hi, truth.value() - 1e-9)
          << "round " << round << " nodes " << max_nodes;
      if (max_nodes == (1ull << 40)) {
        // An effectively-unlimited budget is exact and matches Naive.
        EXPECT_TRUE(r->exact());
        EXPECT_EQ(tally.tier_exact, 1u);
        EXPECT_NEAR(r->lo, truth.value(), 1e-9);
      } else {
        // A tiny budget must actually bite on these instances — that
        // is what makes the sweep adversarial rather than decorative.
        EXPECT_EQ(tally.budget_exhausted, 1u)
            << "round " << round << " nodes " << max_nodes;
      }
    }
  }
}

}  // namespace
}  // namespace bayescrowd

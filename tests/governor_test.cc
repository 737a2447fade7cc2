// Tests for the solver governor: ladder-mode parsing, the degradation
// ladder on adversarial instances (termination, interval soundness,
// determinism), the evaluator under a changing governor, and a
// framework-level governed run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversarial_ctables.h"
#include "bayesnet/imputation.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/framework.h"
#include "crowd/platform.h"
#include "ctable/condition.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/adpll.h"
#include "probability/evaluator.h"
#include "probability/governor.h"
#include "probability/interval.h"

namespace bayescrowd {
namespace {

// Containment against a closed-form reference: the solver's exact
// answers can differ from the analytic product in the last ulp, so the
// check gets a tolerance (soundness failures are orders larger).
bool ContainsApprox(const ProbInterval& interval, double p) {
  return interval.lo <= p + 1e-9 && interval.hi >= p - 1e-9;
}

// ------------------------------------------------------------------ //
// LadderMode parsing / printing
// ------------------------------------------------------------------ //

TEST(LadderModeTest, NamesRoundTrip) {
  for (const LadderMode mode :
       {LadderMode::kFull, LadderMode::kInterval, LadderMode::kSample,
        LadderMode::kStrict}) {
    LadderMode parsed = LadderMode::kFull;
    ASSERT_TRUE(ParseLadderMode(LadderModeToString(mode), &parsed))
        << LadderModeToString(mode);
    EXPECT_EQ(parsed, mode);
  }
}

TEST(LadderModeTest, UnknownNameRejectedAndModeUntouched) {
  LadderMode mode = LadderMode::kSample;
  EXPECT_FALSE(ParseLadderMode("bogus", &mode));
  EXPECT_FALSE(ParseLadderMode("", &mode));
  EXPECT_FALSE(ParseLadderMode("FULL", &mode));  // Names are lowercase.
  EXPECT_EQ(mode, LadderMode::kSample);
}

// ------------------------------------------------------------------ //
// The ladder on adversarial instances
// ------------------------------------------------------------------ //

TEST(GovernedLadderTest, UnlimitedBudgetIsExactAndMatchesAdpll) {
  const AdversarialInstance inst = MakeDeepChainInstance(4, 5);
  GovernorOptions options;
  options.max_nodes = 50'000'000;  // Enabled but never binding here.
  const SolverGovernor governor(options);
  Rng rng(1);
  GovernorTally tally;
  const auto governed = governor.Evaluate(inst.condition, inst.dists, {},
                                          {}, rng, nullptr, &tally);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->exact());
  EXPECT_EQ(governed->quality, ProbQuality::kExact);
  EXPECT_EQ(tally.tier_exact, 1u);
  EXPECT_EQ(tally.budget_exhausted, 0u);
  const auto exact = AdpllProbability(inst.condition, inst.dists);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(governed->lo, exact.value());  // Bit-identical, not near.
  EXPECT_NEAR(governed->lo, inst.exact_probability, 1e-9);
}

TEST(GovernedLadderTest, TinyBudgetTerminatesWithSoundInterval) {
  for (const AdversarialInstance& inst :
       {MakeDeepChainInstance(7, 6), MakeWideChainConjunctInstance(6, 6)}) {
    GovernorOptions options;
    options.max_nodes = 8;
    options.ladder = LadderMode::kInterval;  // Sound bounds only.
    const SolverGovernor governor(options);
    Rng rng(2);
    GovernorTally tally;
    const auto r = governor.Evaluate(inst.condition, inst.dists, {}, {},
                                     rng, nullptr, &tally);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(tally.budget_exhausted, 1u);
    // Partial bounds (and the [0,1] fallback) must contain the truth.
    EXPECT_TRUE(ContainsApprox(*r, inst.exact_probability))
        << "[" << r->lo << ", " << r->hi << "] vs "
        << inst.exact_probability;
    EXPECT_TRUE(r->quality == ProbQuality::kPartialBound ||
                r->quality == ProbQuality::kUnknown)
        << static_cast<int>(r->quality);
  }
}

TEST(GovernedLadderTest, FullLadderIsDeterministicAcrossRepeats) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);
  GovernorOptions options;
  options.max_nodes = 8;
  options.ladder = LadderMode::kFull;
  const SolverGovernor governor(options);
  auto solve = [&] {
    Rng rng(7);
    GovernorTally tally;
    auto r = governor.Evaluate(inst.condition, inst.dists, {}, {}, rng,
                               nullptr, &tally);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  const ProbInterval a = solve();
  const ProbInterval b = solve();
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.quality, b.quality);
}

TEST(GovernedLadderTest, StrictLadderDegradesToUnknown) {
  const AdversarialInstance inst = MakeWideChainConjunctInstance(6, 6);
  GovernorOptions options;
  options.max_nodes = 4;
  options.ladder = LadderMode::kStrict;
  const SolverGovernor governor(options);
  Rng rng(3);
  GovernorTally tally;
  const auto r = governor.Evaluate(inst.condition, inst.dists, {}, {},
                                   rng, nullptr, &tally);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ProbQuality::kUnknown);
  EXPECT_EQ(r->lo, 0.0);
  EXPECT_EQ(r->hi, 1.0);
  EXPECT_EQ(tally.tier_unknown, 1u);
  EXPECT_EQ(tally.tier_sampled, 0u);
  EXPECT_EQ(tally.tier_partial, 0u);
}

TEST(GovernedLadderTest, SampleLadderCoversTruthWithCI) {
  const AdversarialInstance inst = MakeWideChainConjunctInstance(6, 6);
  GovernorOptions options;
  options.max_nodes = 4;
  options.ladder = LadderMode::kSample;
  options.interval_samples = 4096;
  const SolverGovernor governor(options);
  Rng rng(11);
  GovernorTally tally;
  const auto r = governor.Evaluate(inst.condition, inst.dists, {}, {},
                                   rng, nullptr, &tally);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->quality, ProbQuality::kSampledCI);
  EXPECT_EQ(tally.tier_sampled, 1u);
  // A 99% CI over 4096 samples on a fixed stream; the margin is wide
  // enough that this is deterministic here, not a flaky statistical
  // assertion.
  EXPECT_TRUE(ContainsApprox(*r, inst.exact_probability))
      << "[" << r->lo << ", " << r->hi << "] vs " << inst.exact_probability;
  EXPECT_LT(r->width(), 0.2);
}

TEST(GovernedLadderTest, NaiveTierHonorsBudgetAndBounds) {
  const AdversarialInstance inst = MakeDeepChainInstance(4, 5);
  GovernorOptions options;
  options.max_nodes = 100;  // levels^(depth+1) = 3125 assignments total.
  options.ladder = LadderMode::kInterval;
  const SolverGovernor governor(options);
  Rng rng(5);
  GovernorTally tally;
  const auto r = governor.EvaluateNaive(inst.condition, inst.dists, {},
                                        {}, rng, &tally);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tally.budget_exhausted, 1u);
  EXPECT_FALSE(r->exact());
  EXPECT_TRUE(ContainsApprox(*r, inst.exact_probability));
}

TEST(GovernedLadderTest, PessimisticPointIsTheLeastInformative) {
  EXPECT_EQ(PessimisticPoint(ProbInterval{0.6, 0.9, ProbQuality::kPartialBound}),
            0.6);
  EXPECT_EQ(PessimisticPoint(ProbInterval{0.1, 0.4, ProbQuality::kPartialBound}),
            0.4);
  EXPECT_EQ(PessimisticPoint(ProbInterval{0.2, 0.8, ProbQuality::kPartialBound}),
            0.5);
  EXPECT_EQ(PessimisticPoint(ProbInterval::Exact(0.7)), 0.7);
}

// ------------------------------------------------------------------ //
// Golden ladder: every tier's value, grade and counters, pinned byte
// for byte in testdata/governed_ladder.golden; regenerate with:
//   BC_REGEN_GOLDEN=1 ./governor_test
// ------------------------------------------------------------------ //

// One golden line: the outcome (status, or lo/hi in %a plus the grade)
// followed by the five AdpllStats and the six GovernorTally counters.
std::string LadderLine(const std::string& label,
                       const Result<ProbInterval>& result,
                       const AdpllStats& stats, const GovernorTally& tally) {
  using ull = unsigned long long;
  std::string line = label;
  if (result.ok()) {
    line += StrFormat(" lo=%a hi=%a %s", result->lo, result->hi,
                      ProbQualityToString(result->quality));
  } else {
    line += " status=" + result.status().ToString();
  }
  line += StrFormat(
      " | calls=%llu branches=%llu direct=%llu splits=%llu star=%llu",
      static_cast<ull>(stats.calls), static_cast<ull>(stats.branches),
      static_cast<ull>(stats.direct_evals),
      static_cast<ull>(stats.component_splits),
      static_cast<ull>(stats.star_evals));
  line += StrFormat(
      " | exhausted=%llu deadline=%llu exact=%llu partial=%llu"
      " sampled=%llu unknown=%llu\n",
      static_cast<ull>(tally.budget_exhausted),
      static_cast<ull>(tally.deadline_hits),
      static_cast<ull>(tally.tier_exact), static_cast<ull>(tally.tier_partial),
      static_cast<ull>(tally.tier_sampled),
      static_cast<ull>(tally.tier_unknown));
  return line;
}

// The ladder's whole observable surface on the adversarial instances:
// both governed methods over every ladder mode and a node/component
// budget grid, then the two ADPLL entry points under each of their
// budgets directly. No deadline, so every line is deterministic.
std::string GoldenLadderText() {
  std::vector<std::pair<std::string, AdversarialInstance>> instances;
  // Eight increasing values over six levels cannot exist, so the first
  // chain is exactly 0; the second has a nonzero answer to bound. In
  // the third, twenty uniform branch weights sum past 1 in floating
  // point, so the anytime clamp and the [0, 1] fall-through show.
  instances.emplace_back("chain_d7_l6", MakeDeepChainInstance(7, 6));
  instances.emplace_back("chain_d6_l10", MakeDeepChainInstance(6, 10));
  instances.emplace_back("chain_d5_l20", MakeDeepChainInstance(5, 20));
  instances.emplace_back("wide_s6_l6", MakeWideChainConjunctInstance(6, 6));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    instances.emplace_back(StrFormat("random%llu",
                                     static_cast<unsigned long long>(seed)),
                           MakeRandomAdversarialInstance(rng));
  }
  const LadderMode modes[] = {LadderMode::kFull, LadderMode::kInterval,
                              LadderMode::kSample, LadderMode::kStrict};
  std::string text;
  for (const auto& [name, inst] : instances) {
    for (const LadderMode mode : modes) {
      for (const std::uint64_t nodes : {1, 4, 16, 64}) {
        for (const std::uint64_t comps : {0, 1}) {
          GovernorOptions options;
          options.ladder = mode;
          options.max_nodes = nodes;
          options.max_components = comps;
          const SolverGovernor governor(options);
          const std::string tag = StrFormat(
              " %s ladder=%s nodes=%llu comps=%llu", name.c_str(),
              LadderModeToString(mode), static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(comps));
          {
            Rng rng(17);
            AdpllStats stats;
            GovernorTally tally;
            const auto r = governor.Evaluate(inst.condition, inst.dists, {},
                                             {}, rng, &stats, &tally);
            text += LadderLine("governed adpll" + tag, r, stats, tally);
          }
          {
            Rng rng(17);
            GovernorTally tally;
            const auto r = governor.EvaluateNaive(inst.condition, inst.dists,
                                                  {}, {}, rng, &tally);
            text += LadderLine("governed naive" + tag, r, {}, tally);
          }
        }
      }
    }
    // Every call/split budget pair under a 16-assignment conjunct cap,
    // then one cap a six-span wide conjunct's enumeration fits in.
    // max_calls 0 keeps the default call budget.
    std::vector<std::array<std::uint64_t, 3>> budgets;
    for (const std::uint64_t calls : {1, 4, 16, 64, 0}) {
      for (const std::uint64_t splits : {0, 1, 2}) {
        budgets.push_back({calls, splits, 16});
      }
    }
    budgets.push_back({0, 0, 300'000});
    for (const auto& [calls, splits, conj] : budgets) {
      AdpllOptions options;
      if (calls > 0) options.max_calls = calls;
      options.max_component_splits = splits;
      options.max_conjunct_assignments = conj;
      const std::string tag = StrFormat(
          " %s calls=%llu splits=%llu conj=%llu", name.c_str(),
          static_cast<unsigned long long>(calls),
          static_cast<unsigned long long>(splits),
          static_cast<unsigned long long>(conj));
      {
        AdpllStats stats;
        const Result<double> exact =
            AdpllProbability(inst.condition, inst.dists, options, &stats);
        const Result<ProbInterval> r =
            exact.ok()
                ? Result<ProbInterval>(ProbInterval::Exact(exact.value()))
                : Result<ProbInterval>(exact.status());
        text += LadderLine("direct exact" + tag, r, stats, {});
      }
      {
        AdpllStats stats;
        const auto r = AdpllPartialProbability(inst.condition, inst.dists,
                                               options, &stats);
        text += LadderLine("direct partial" + tag, r, stats, {});
      }
    }
  }
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenLadderTest, CommittedFixtureMatchesTheLadder) {
  const std::string path =
      std::string(BC_TESTDATA_DIR) + "/governed_ladder.golden";
  const std::string text = GoldenLadderText();
  if (std::getenv("BC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  if (golden == text) return;
  // Report the first drifted line, not two multi-kilobyte blobs.
  const std::vector<std::string> want = SplitLines(golden);
  const std::vector<std::string> got = SplitLines(text);
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    ASSERT_EQ(want[i], got[i]) << "first drift at line " << i + 1;
  }
  ASSERT_EQ(want.size(), got.size()) << "line count drifted";
  FAIL() << "fixture bytes differ outside the line text";
}

// ------------------------------------------------------------------ //
// Evaluator integration: each call solves under the governor in force
// ------------------------------------------------------------------ //

ProbabilityEvaluator MakeGovernedEvaluator(const AdversarialInstance& inst,
                                           std::uint64_t max_nodes) {
  ProbabilityOptions options;
  options.governor.max_nodes = max_nodes;
  options.governor.ladder = LadderMode::kInterval;
  ProbabilityEvaluator evaluator(options);
  evaluator.distributions() = inst.dists;
  return evaluator;
}

TEST(GovernedEvaluatorTest, EveryCallSolvesUnderTheGovernorInForce) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);

  // Low budget: a degraded interval, whose midpoint is the governed
  // scalar Probability().
  ProbabilityEvaluator evaluator = MakeGovernedEvaluator(inst, 8);
  const auto low = evaluator.ProbabilityInterval(inst.condition);
  ASSERT_TRUE(low.ok());
  ASSERT_FALSE(low->exact());
  const auto mid = evaluator.Probability(inst.condition);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value(), low->midpoint());

  // Same evaluator, governor disabled: an exact answer instead of the
  // degraded interval.
  evaluator.options().governor = GovernorOptions{};
  const auto exact = evaluator.ProbabilityInterval(inst.condition);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->exact());
  EXPECT_NEAR(exact->lo, inst.exact_probability, 1e-9);

  // And back down: the low-budget interval again, bit for bit, keeping
  // runs reproducible under either configuration.
  evaluator.options().governor.max_nodes = 8;
  evaluator.options().governor.ladder = LadderMode::kInterval;
  const auto low_again = evaluator.ProbabilityInterval(inst.condition);
  ASSERT_TRUE(low_again.ok());
  EXPECT_EQ(low_again->lo, low->lo);
  EXPECT_EQ(low_again->hi, low->hi);
  EXPECT_EQ(low_again->quality, low->quality);
}

TEST(GovernedEvaluatorTest, SolverStatsReportTheWalk) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);
  ProbabilityEvaluator evaluator = MakeGovernedEvaluator(inst, 8);
  ASSERT_TRUE(evaluator.ProbabilityInterval(inst.condition).ok());
  const GovernorTally tally = evaluator.solver_stats();
  EXPECT_EQ(tally.budget_exhausted, 1u);
  EXPECT_EQ(tally.tier_partial + tally.tier_unknown, 1u);
}

// ------------------------------------------------------------------ //
// Framework: a governed end-to-end run
// ------------------------------------------------------------------ //

BayesCrowdResult RunGoverned(std::uint64_t max_nodes,
                             std::size_t breaker_threshold,
                             std::size_t threads = 1,
                             std::size_t budget = 16) {
  Rng rng(0xADBEEF);
  const Table truth = MakeNbaLike(60, /*seed=*/9);
  const Table incomplete = InjectMissingUniform(truth, 0.2, rng);
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;  // Keep undecided objects alive.
  options.budget = budget;
  options.latency = 4;
  options.strategy.kind = StrategyKind::kUbs;
  options.threads = threads;
  options.probability.governor.max_nodes = max_nodes;
  options.breaker_threshold = breaker_threshold;
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  SimulatedCrowdPlatform platform(truth, {});
  auto result = framework.Run(incomplete, posteriors, platform);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

TEST(GovernedFrameworkTest, TinyBudgetRunCompletesWithGrades) {
  const BayesCrowdResult result = RunGoverned(/*max_nodes=*/4,
                                              /*breaker_threshold=*/2);
  // Every returned interval is a valid graded answer containing its own
  // reported point probability.
  ASSERT_EQ(result.probability_intervals.size(),
            result.probabilities.size());
  for (std::size_t i = 0; i < result.probabilities.size(); ++i) {
    const ProbInterval& interval = result.probability_intervals[i];
    EXPECT_LE(interval.lo, interval.hi);
    EXPECT_TRUE(interval.Contains(result.probabilities[i]));
  }
  // degraded_objects lists exactly the non-exact final answers.
  for (const std::size_t id : result.degraded_objects) {
    ASSERT_LT(id, result.probability_intervals.size());
    EXPECT_FALSE(result.probability_intervals[id].exact());
  }
  const obs::MetricsSnapshot& m = result.metrics;
  EXPECT_GT(m.CounterValue("solver.ladder_tier.exact") +
                m.CounterValue("solver.ladder_tier.partial") +
                m.CounterValue("solver.ladder_tier.sampled") +
                m.CounterValue("solver.ladder_tier.unknown"),
            0u);
}

TEST(GovernedFrameworkTest, GovernedRunDeterministicAcrossThreadCounts) {
  const BayesCrowdResult r1 = RunGoverned(6, 2, /*threads=*/1);
  const BayesCrowdResult r8 = RunGoverned(6, 2, /*threads=*/8);
  EXPECT_EQ(r1.result_objects, r8.result_objects);
  ASSERT_EQ(r1.probabilities.size(), r8.probabilities.size());
  for (std::size_t i = 0; i < r1.probabilities.size(); ++i) {
    EXPECT_EQ(r1.probabilities[i], r8.probabilities[i]) << "object " << i;
    EXPECT_EQ(r1.probability_intervals[i].lo,
              r8.probability_intervals[i].lo);
    EXPECT_EQ(r1.probability_intervals[i].hi,
              r8.probability_intervals[i].hi);
    EXPECT_EQ(r1.probability_intervals[i].quality,
              r8.probability_intervals[i].quality);
  }
  EXPECT_EQ(r1.degraded_objects, r8.degraded_objects);
  for (const char* tier : {"exact", "partial", "sampled", "unknown"}) {
    const std::string name = std::string("solver.ladder_tier.") + tier;
    EXPECT_EQ(r1.metrics.CounterValue(name), r8.metrics.CounterValue(name))
        << name;
  }
}

TEST(GovernedFrameworkTest, UnlimitedGovernorMatchesUngovernedRun) {
  // A huge budget is "enabled" yet never binds: every answer must be
  // graded exact and bit-identical to the ungoverned baseline. Four
  // tasks keep the run short: this table's later rounds hold exact
  // solves that take seconds.
  const BayesCrowdResult baseline = RunGoverned(0, 0, 1, /*budget=*/4);
  const BayesCrowdResult governed =
      RunGoverned(1'000'000'000, 3, 1, /*budget=*/4);
  // The governed run reaches the crowd rounds and scores its undecided
  // objects' candidates one by one, not through the star pass.
  EXPECT_GT(governed.tasks_posted, 0u);
  const auto fallbacks =
      governed.metrics.counters.find("utility.fallback_candidates");
  ASSERT_NE(fallbacks, governed.metrics.counters.end());
  EXPECT_GT(fallbacks->second, 0u);
  EXPECT_EQ(baseline.result_objects, governed.result_objects);
  ASSERT_EQ(baseline.probabilities.size(), governed.probabilities.size());
  for (std::size_t i = 0; i < baseline.probabilities.size(); ++i) {
    EXPECT_EQ(baseline.probabilities[i], governed.probabilities[i])
        << "object " << i;
  }
  EXPECT_TRUE(governed.degraded_objects.empty());
  EXPECT_EQ(governed.metrics.CounterValue("solver.budget_exhausted"), 0u);
}

}  // namespace
}  // namespace bayescrowd

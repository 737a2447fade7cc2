// Differential test harness for the Pr(φ) engines: on a population of
// seeded random c-tables, the three independent implementations — full
// enumeration (Naive), adaptive DPLL search (ADPLL), and the
// ApproxCount-style forward sampler — must agree. Naive and ADPLL are
// both exact, so they agree to floating-point noise; the sampler agrees
// within a statistical tolerance far wider than its seeded deviation.
// The same population pins ADPLL's bit-identity across thread counts,
// the invariant the crowdsourcing loop leans on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "adversarial_ctables.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/entropy.h"
#include "core/strategy.h"
#include "core/utility.h"
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
// batch path with the given pool size.
std::vector<ProbInterval> EvaluateCase(const DifferentialCase& c,
                                       std::size_t threads) {
  ProbabilityOptions options;
  options.method = ProbabilityMethod::kAdpll;
  ProbabilityEvaluator evaluator(options);
  for (const CellRef& var : c.ctable.AllVariables()) {
    auto dist = c.dists.Get(var);
    BAYESCROWD_CHECK_OK(dist.status());
    BAYESCROWD_CHECK_OK(
        evaluator.SetDistribution(var, std::move(dist).value()));
  }
  ThreadPool pool(threads);
  evaluator.set_thread_pool(&pool);
  // Evaluate twice: the second pass solves everything again and must
  // not change a single bit.
  auto first = evaluator.EvaluateAllIntervals(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(first.status());
  auto second = evaluator.EvaluateAllIntervals(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(second.status());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first.value()[i], second.value()[i]);
  }
  return std::move(first).value();
}

TEST(DifferentialTest, AdpllBitIdenticalAcrossThreads) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    if (c.objects.empty()) continue;
    const std::vector<ProbInterval> base = EvaluateCase(c, 1);
    for (const std::size_t threads : {2u, 8u}) {
      const std::vector<ProbInterval> got = EvaluateCase(c, threads);
      ASSERT_EQ(base.size(), got.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i], got[i]) << "seed " << seed << " threads "
                                   << threads;
      }
    }
  }
}

// A reused AdpllScratch is invisible: the same bits as per-call buffers
// on the seeded population, and on a star instance that exercises the
// plan and table buffers (the partial solver accepts the same scratch).
TEST(AdpllScratchTest, ReusedScratchIsBitIdenticalToPerCallBuffers) {
  AdpllScratch scratch;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    for (const std::size_t object : c.objects) {
      const Condition& condition = c.ctable.condition(object);
      const auto bare = AdpllProbability(condition, c.dists);
      const auto reused =
          AdpllProbability(condition, c.dists, {}, nullptr, &scratch);
      ASSERT_TRUE(bare.ok());
      ASSERT_TRUE(reused.ok());
      EXPECT_EQ(bare.value(), reused.value())
          << "seed " << seed << " object " << object;
    }
  }

  const AdversarialInstance star = MakeDeepChainInstance(3, 4);
  const auto bare = AdpllProbability(star.condition, star.dists);
  const auto reused =
      AdpllProbability(star.condition, star.dists, {}, nullptr, &scratch);
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(bare.value(), reused.value());
  const auto partial = AdpllPartialProbability(star.condition, star.dists,
                                               {}, nullptr, &scratch);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->lo, bare.value());
  EXPECT_TRUE(partial->exact());
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

// ------------------------------------------------------------------ //
// Counterfactual star pass vs. the per-candidate oracle
// ------------------------------------------------------------------ //

// Distinct expressions of a condition, first-appearance order (the
// candidates SelectTasks scores).
std::vector<Expression> DistinctAtoms(const Condition& condition) {
  std::vector<Expression> out;
  std::unordered_set<PackedExpr, PackedExprHash> keys;
  for (const Conjunct& conjunct : condition.conjuncts()) {
    for (const Expression& e : conjunct) {
      if (keys.insert(e.PackedKey()).second) out.push_back(e);
    }
  }
  return out;
}

// What a pass-vs-oracle sweep exercised.
struct PassCoverage {
  std::size_t served = 0;           // Conditions the pass served.
  std::size_t refused = 0;          // Conditions it sent to fallback.
  std::size_t atoms = 0;            // Atoms compared (both sides).
  std::size_t decided_fixes = 0;    // Fixes that decide φ (exact 0/1).
  std::size_t zero_conjuncts = 0;   // Conditions with a Pr = 0 conjunct.
  std::size_t multi_conjunct_hub_atoms = 0;
  std::size_t var_var_atoms = 0;
  std::size_t hub_free = 0;         // Conditions without a repeated var.
};

// Both counterfactuals of every distinct atom of `condition`, through
// the evaluator's batch pass, against FixExpression + ADPLL: 1e-12
// relative, and exactly 0/1 where the fix decides φ.
// Returns false when the pass refused the condition.
bool CheckPassAgainstOracle(const Condition& condition,
                            const DistributionMap& dists,
                            const std::string& label,
                            PassCoverage* coverage) {
  ProbabilityEvaluator evaluator;
  evaluator.distributions() = dists;
  const std::vector<Expression> atoms = DistinctAtoms(condition);
  const auto passes = evaluator.EvaluateCounterfactuals({{&condition, &atoms}});
  EXPECT_TRUE(passes.ok()) << label;
  if (!passes.ok() || !passes->front().served) {
    ++coverage->refused;
    return false;
  }
  const Counterfactuals& pass = passes->front();
  EXPECT_EQ(evaluator.adpll_stats().calls, 0u) << label;
  ++coverage->served;

  std::size_t occurrences = 0;
  for (const Conjunct& conjunct : condition.conjuncts()) {
    occurrences += conjunct.size();
    for (const Expression& e : conjunct) occurrences += e.rhs_is_var;
    const auto p = AdpllProbability(Condition::Cnf({conjunct}), dists);
    if (p.ok() && p.value() == 0.0) ++coverage->zero_conjuncts;
  }
  if (condition.Variables().size() == occurrences) ++coverage->hub_free;

  for (std::size_t i = 0; i < atoms.size(); ++i) {
    ++coverage->atoms;
    std::size_t holding = 0;
    for (const Conjunct& conjunct : condition.conjuncts()) {
      holding += std::count(conjunct.begin(), conjunct.end(), atoms[i]) > 0;
    }
    coverage->multi_conjunct_hub_atoms += holding > 1;
    coverage->var_var_atoms += atoms[i].rhs_is_var;
    for (const bool value : {true, false}) {
      const Condition fixed = FixExpression(condition, atoms[i], value);
      const auto oracle = AdpllProbability(fixed, dists);
      EXPECT_TRUE(oracle.ok()) << label;
      if (!oracle.ok()) continue;
      const double got = value ? pass.if_true[i] : pass.if_false[i];
      if (fixed.IsDecided()) {
        ++coverage->decided_fixes;
        EXPECT_EQ(got, oracle.value()) << label << " atom " << i;
        continue;
      }
      EXPECT_LE(std::abs(got - oracle.value()),
                1e-12 * std::max(std::abs(got), std::abs(oracle.value())))
          << label << " atom " << i << " := " << value << ": pass " << got
          << " oracle " << oracle.value();
    }
  }
  return true;
}

// Random distributions over a c-table's variables; some levels get zero
// mass, so some conjuncts (and hub assignments) have probability 0.
DistributionMap RandomDistributions(const CTable& ctable,
                                    const Schema& schema, Rng& rng) {
  DistributionMap dists;
  for (const CellRef& var : ctable.AllVariables()) {
    std::vector<double> weights(schema.domain_size(var.attribute));
    double total = 0.0;
    for (double& w : weights) {
      w = rng.NextBool(0.2) ? 0.0 : 0.05 + rng.NextDouble();
      total += w;
    }
    if (total == 0.0) {
      weights.front() = 1.0;
      total = 1.0;
    }
    for (double& w : weights) w /= total;
    BAYESCROWD_CHECK_OK(dists.Set(var, std::move(weights)));
  }
  return dists;
}

TEST(CounterfactualPassTest, MatchesFixExpressionOracleOnSeededCTables) {
  PassCoverage coverage;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const bool nba = seed % 2 == 0;
    const Table complete = nba ? MakeNbaLike(40, 300 + seed, 6)
                               : MakeAdultLike(60, 300 + seed);
    Rng rng(700 + seed);
    const Table incomplete = InjectMissingUniform(complete, 0.2, rng);
    CTableOptions ctable_options;
    ctable_options.alpha = -1.0;
    const auto ctable = BuildCTable(incomplete, ctable_options);
    ASSERT_TRUE(ctable.ok());
    const DistributionMap dists =
        RandomDistributions(ctable.value(), incomplete.schema(), rng);
    for (const std::size_t object : ctable->UndecidedObjects()) {
      CheckPassAgainstOracle(ctable->condition(object), dists,
                             StrFormat("seed %llu object %zu",
                                       static_cast<unsigned long long>(seed),
                                       object),
                             &coverage);
    }
  }
  EXPECT_GE(coverage.served, 100u);
  EXPECT_GT(coverage.decided_fixes, 0u);
  EXPECT_GT(coverage.zero_conjuncts, 0u);
  EXPECT_GT(coverage.multi_conjunct_hub_atoms, 0u);
  EXPECT_GT(coverage.var_var_atoms, 0u);
  EXPECT_GT(coverage.hub_free, 0u);
}

TEST(CounterfactualPassTest, HandBuiltShapesAndAdversarialInstances) {
  const auto v = [](std::size_t object, std::size_t attribute) {
    return CellRef{object, attribute};
  };
  DistributionMap dists;
  Rng rng(0xC0FFEE);
  for (std::size_t object = 0; object < 12; ++object) {
    for (std::size_t attribute = 0; attribute < 2; ++attribute) {
      std::vector<double> weights(4);
      double total = 0.0;
      for (double& w : weights) total += (w = 0.05 + rng.NextDouble());
      for (double& w : weights) w /= total;
      BAYESCROWD_CHECK_OK(dists.Set(v(object, attribute), weights));
    }
  }
  // Object 11's first attribute has no mass above 1.
  BAYESCROWD_CHECK_OK(
      dists.Set(v(11, 0), std::vector<double>{0.5, 0.5, 0.0, 0.0}));
  const CellRef x = v(0, 0);
  const CellRef y = v(0, 1);
  const auto gt = [](CellRef a, Level c) {
    return Expression::VarConst(a, CmpOp::kGreater, c);
  };
  const auto lt = [](CellRef a, Level c) {
    return Expression::VarConst(a, CmpOp::kLess, c);
  };
  const auto vv = [](CellRef a, CmpOp op, CellRef b) {
    return Expression::VarVar(a, op, b);
  };
  const std::vector<std::pair<std::string, Condition>> shapes = {
      // A hub atom in three conjuncts, hub-hub and hub-private var-var
      // atoms, a conjunct holding only a hub atom.
      {"hub atoms",
       Condition::Cnf({{gt(x, 2), gt(v(1, 0), 1)},
                       {gt(x, 2), lt(y, 1), lt(v(2, 0), 3)},
                       {vv(x, CmpOp::kLess, y), vv(v(3, 0), CmpOp::kGreater, x)},
                       {gt(y, 0), gt(x, 2)},
                       {lt(v(4, 0), 2), vv(v(4, 1), CmpOp::kLess, y)},
                       {gt(y, 0)}})},
      // The same var-var atom in both orientations.
      {"mirrored",
       Condition::Cnf({{vv(x, CmpOp::kGreater, y), gt(v(1, 0), 0)},
                       {vv(y, CmpOp::kLess, x), gt(v(2, 0), 1)},
                       {lt(x, 3), vv(v(3, 0), CmpOp::kLess, v(3, 1))}})},
      // Every variable once: the space-1 plan.
      {"hub-free",
       Condition::Cnf({{gt(v(1, 0), 1), lt(v(2, 0), 2)},
                       {gt(v(3, 0), 0)},
                       {lt(v(4, 0), 3), vv(v(5, 0), CmpOp::kGreater, v(6, 0))}})},
      // A conjunct with probability 0, next to a hub.
      {"zero conjunct",
       Condition::Cnf({{gt(v(11, 0), 1)},
                       {gt(x, 1), gt(v(1, 0), 2)},
                       {lt(x, 2), gt(v(2, 0), 0)}})},
      // One conjunct: fixing any of its atoms true decides φ.
      {"single conjunct",
       Condition::Cnf({{gt(x, 1), lt(x, 1), gt(v(1, 0), 2)}})},
  };
  PassCoverage coverage;
  for (const auto& [label, condition] : shapes) {
    EXPECT_TRUE(CheckPassAgainstOracle(condition, dists, label, &coverage))
        << label;
  }
  EXPECT_GT(coverage.decided_fixes, 0u);
  EXPECT_GT(coverage.zero_conjuncts, 0u);
  EXPECT_GT(coverage.multi_conjunct_hub_atoms, 0u);
  EXPECT_GT(coverage.hub_free, 0u);

  // Adversarial chains: small ones fit the hub cap (and every atom's
  // false fix decides φ); the sweep's default sizes do not, so the pass
  // refuses them and the per-candidate path takes over.
  const AdversarialInstance deep = MakeDeepChainInstance(4, 3);
  EXPECT_TRUE(CheckPassAgainstOracle(deep.condition, deep.dists, "deep",
                                     &coverage));
  const AdversarialInstance wide = MakeWideChainConjunctInstance(4, 3);
  EXPECT_TRUE(CheckPassAgainstOracle(wide.condition, wide.dists, "wide",
                                     &coverage));
  Rng sweep(0xBADC0DE);
  for (std::size_t round = 0; round < 4; ++round) {
    const AdversarialInstance big = MakeRandomAdversarialInstance(sweep);
    EXPECT_FALSE(CheckPassAgainstOracle(big.condition, big.dists, "big",
                                        &coverage));
  }
}

// UBS and HHS must select the same batches whether gains come from the
// star pass (kAdpll) or from exact per-candidate solves (kNaive). One
// condition's hub exceeds the cap, so the per-candidate path runs
// beside the pass.
TEST(CounterfactualPassTest, SelectTasksBatchesMatchPerCandidateNaive) {
  std::uint64_t passes = 0;
  std::uint64_t fallbacks = 0;
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const DifferentialCase c = MakeCase(seed);
    if (c.objects.size() < 2) continue;
    CTable ctable(c.objects.size() + 1);
    for (std::size_t i = 0; i < c.objects.size(); ++i) {
      ctable.SetCondition(i, c.ctable.condition(c.objects[i]));
    }
    // A chain v_0 < ... < v_4, two links with a private escape: an
    // interior hub of 4^3 joint values, above the kAdpll evaluator's
    // cap of 32.
    const std::size_t base = 1000;
    std::vector<Conjunct> chain;
    for (std::size_t i = 0; i < 4; ++i) {
      chain.push_back({Expression::VarVar(CellRef{base + i, 0}, CmpOp::kLess,
                                          CellRef{base + i + 1, 0})});
      if (i % 2 == 0) {
        chain.back().push_back(Expression::VarConst(
            CellRef{base + 10 + i, 0}, CmpOp::kGreater, 2));
      }
    }
    ctable.SetCondition(c.objects.size(), Condition::Cnf(std::move(chain)));
    DistributionMap dists = c.dists;
    Rng rng(4200 + seed);
    for (std::size_t i = 0; i < 15; ++i) {
      std::vector<double> weights(kLevels);
      double total = 0.0;
      for (double& w : weights) total += (w = 0.05 + rng.NextDouble());
      for (double& w : weights) w /= total;
      BAYESCROWD_CHECK_OK(dists.Set(CellRef{base + i, 0}, weights));
    }

    ProbabilityOptions adpll_options;
    adpll_options.adpll.max_hub_space = 32;
    ProbabilityEvaluator adpll(adpll_options);
    adpll.distributions() = dists;
    ProbabilityOptions naive_options;
    naive_options.method = ProbabilityMethod::kNaive;
    ProbabilityEvaluator naive(naive_options);
    naive.distributions() = dists;
    ThreadPool pool(3);
    adpll.set_thread_pool(&pool);

    // One ranking for both, so only the gains can differ.
    std::vector<ObjectEntropy> ranked;
    for (std::size_t i : ctable.UndecidedObjects()) {
      ObjectEntropy entry;
      entry.object = i;
      entry.probability = naive.Probability(ctable.condition(i)).value();
      entry.entropy = BinaryEntropy(entry.probability);
      ranked.push_back(entry);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const ObjectEntropy& a, const ObjectEntropy& b) {
                       return a.entropy > b.entropy;
                     });
    for (const StrategyKind kind : {StrategyKind::kUbs, StrategyKind::kHhs}) {
      StrategyOptions strategy;
      strategy.kind = kind;
      strategy.m = 2;
      const auto got =
          SelectTasks(ctable, ranked, ranked.size(), adpll, strategy);
      const auto want =
          SelectTasks(ctable, ranked, ranked.size(), naive, strategy);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_EQ(got->size(), want->size()) << "seed " << seed;
      for (std::size_t t = 0; t < got->size(); ++t) {
        EXPECT_EQ((*got)[t].source_object, (*want)[t].source_object)
            << "seed " << seed << " task " << t;
        EXPECT_TRUE((*got)[t].expression == (*want)[t].expression)
            << "seed " << seed << " " << StrategyKindToString(kind)
            << " task " << t;
      }
      ++compared;
    }
    passes += adpll.metrics()->GetCounter("utility.star_passes")->value();
    fallbacks +=
        adpll.metrics()->GetCounter("utility.fallback_candidates")->value();
    // The naive evaluator never takes the pass.
    EXPECT_EQ(naive.metrics()->GetCounter("utility.star_passes")->value(),
              0u);
  }
  EXPECT_GE(compared, 20u);
  EXPECT_GT(passes, 0u);
  EXPECT_GT(fallbacks, 0u);
}

}  // namespace
}  // namespace bayescrowd

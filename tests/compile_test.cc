// Tests for the knowledge-compilation layer (circuit.h / compiler.h /
// the evaluator's artifact cache): compiled circuits must replay ADPLL
// bit for bit under shifted posteriors, refuse oversized instances
// through the governed fallback instead of mis-answering, survive
// serialization (including the checkpoint memo blob), and never leak
// artifacts across budget or compile configurations. The evaluator
// compiles a condition on its second exact miss, and that trigger must
// be the same at every lane count and across checkpoint restore and
// warm-start merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversarial_ctables.h"
#include "common/binio.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "ctable/builder.h"
#include "ctable/ctable.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/adpll.h"
#include "probability/circuit.h"
#include "probability/compiler.h"
#include "probability/distributions.h"
#include "probability/evaluator.h"
#include "probability/governor.h"
#include "probability/interval.h"

namespace bayescrowd {
namespace {

constexpr Level kLevels = 4;
constexpr std::size_t kMaxVars = 8;
constexpr std::size_t kMaxConditionsPerCase = 6;

struct CompileCase {
  Table incomplete;
  CTable ctable;
  DistributionMap dists;
  std::vector<std::size_t> objects;
};

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

// One seeded random c-table with non-uniform distributions — the same
// population family as differential_test.cc, sized so every condition
// both enumerates and compiles comfortably.
CompileCase MakeCompileCase(std::uint64_t seed) {
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
  CompileCase out;
  out.incomplete = InjectMissingUniform(complete, rate, missing_rng);

  CTableOptions options;
  options.alpha = -1.0;  // No pruning: keep conditions rich.
  auto ctable = BuildCTable(out.incomplete, options);
  BAYESCROWD_CHECK_OK(ctable.status());
  out.ctable = std::move(ctable).value();

  Rng dist_rng(9000 + seed);
  for (const CellRef& var : out.ctable.AllVariables()) {
    BAYESCROWD_CHECK_OK(out.dists.Set(var, RandomDist(kLevels, dist_rng)));
  }

  for (std::size_t i : out.ctable.UndecidedObjects()) {
    const Condition& condition = out.ctable.condition(i);
    if (condition.NumExpressions() == 0) continue;
    if (condition.Variables().size() > kMaxVars) continue;
    out.objects.push_back(i);
    if (out.objects.size() >= kMaxConditionsPerCase) break;
  }
  return out;
}

// ------------------------------------------------------------------ //
// Compiler: bit-identity with the search it records
// ------------------------------------------------------------------ //

TEST(CircuitCompilerTest, ReplaysAdpllBitForBitOnSeededCTables) {
  std::size_t compiled = 0;
  AdpllScratch adpll_scratch;
  CircuitScratch circuit_scratch;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const CompileCase c = MakeCompileCase(seed);
    for (const std::size_t object : c.objects) {
      const Condition& condition = c.ctable.condition(object);
      auto circuit = CompileCondition(condition, c.dists, {}, {});
      ASSERT_TRUE(circuit.ok())
          << circuit.status() << " seed " << seed << " object " << object;
      ++compiled;

      const auto direct = AdpllProbability(condition, c.dists);
      ASSERT_TRUE(direct.ok());
      const auto replay = circuit->Evaluate(c.dists, &circuit_scratch);
      ASSERT_TRUE(replay.ok()) << replay.status();
      EXPECT_EQ(direct.value(), replay.value())
          << "seed " << seed << " object " << object;

      // The round loop's workload: shift every posterior and
      // re-evaluate. The artifact must track the new numbers exactly,
      // without recompiling.
      Rng shift_rng(777 + seed * 131 + object);
      DistributionMap shifted;
      for (const CellRef& var : c.ctable.AllVariables()) {
        BAYESCROWD_CHECK_OK(
            shifted.Set(var, RandomDist(kLevels, shift_rng)));
      }
      const auto shifted_direct =
          AdpllProbability(condition, shifted, {}, nullptr, &adpll_scratch);
      ASSERT_TRUE(shifted_direct.ok());
      const auto shifted_replay = circuit->Evaluate(shifted, &circuit_scratch);
      ASSERT_TRUE(shifted_replay.ok());
      EXPECT_EQ(shifted_direct.value(), shifted_replay.value())
          << "seed " << seed << " object " << object;
    }
  }
  // The population must actually exercise the compiler.
  EXPECT_GE(compiled, 10u);
}

TEST(CircuitCompilerTest, CoversStarAndDecisionShapes) {
  CircuitScratch scratch;

  // Small chain: the interior hub fits the star cap, so the artifact
  // records a star plan and one evaluation equals the closed form.
  const AdversarialInstance star = MakeDeepChainInstance(3, 4);
  auto star_circuit = CompileCondition(star.condition, star.dists, {}, {});
  ASSERT_TRUE(star_circuit.ok()) << star_circuit.status();
  EXPECT_FALSE(star_circuit->stars.empty());
  const auto p = star_circuit->Evaluate(star.dists, &scratch);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), star.exact_probability, 1e-12);

  // Oversized hub: ADPLL branches variable by variable, so the circuit
  // must reproduce a full decision cascade bit for bit.
  const AdversarialInstance deep = MakeDeepChainInstance(7, 6);
  CompileOptions roomy;
  roomy.max_nodes = 1ull << 20;
  auto deep_circuit =
      CompileCondition(deep.condition, deep.dists, {}, roomy);
  ASSERT_TRUE(deep_circuit.ok()) << deep_circuit.status();
  bool has_decision = false;
  for (const CircuitNode& node : deep_circuit->nodes) {
    if (node.kind == CircuitNodeKind::kDecision) has_decision = true;
  }
  EXPECT_TRUE(has_decision);
  const auto direct = AdpllProbability(deep.condition, deep.dists);
  ASSERT_TRUE(direct.ok());
  const auto replay = deep_circuit->Evaluate(deep.dists, &scratch);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(direct.value(), replay.value());
  EXPECT_NEAR(replay.value(), deep.exact_probability, 1e-9);
}

TEST(CircuitCompilerTest, RefusesBeyondTheNodeBudget) {
  // The wide conjunct charges its full 6^8 enumeration space up front,
  // far past the default compile budget.
  const AdversarialInstance wide = MakeWideChainConjunctInstance(7, 6);
  auto refused = CompileCondition(wide.condition, wide.dists, {}, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // The deep chain compiles in full — but not into 256 nodes.
  CompileOptions tiny;
  tiny.max_nodes = 256;
  const AdversarialInstance deep = MakeDeepChainInstance(7, 6);
  auto chain = CompileCondition(deep.condition, deep.dists, {}, tiny);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kResourceExhausted);

  // Even a star plan's hub space is charged.
  tiny.max_nodes = 4;
  const AdversarialInstance small = MakeDeepChainInstance(3, 4);
  auto refused_star =
      CompileCondition(small.condition, small.dists, {}, tiny);
  EXPECT_FALSE(refused_star.ok());
}

// ------------------------------------------------------------------ //
// Serialization
// ------------------------------------------------------------------ //

TEST(CompiledCircuitTest, SerializationRoundTripsBitForBit) {
  const AdversarialInstance inst = MakeDeepChainInstance(3, 4);
  auto circuit = CompileCondition(inst.condition, inst.dists, {}, {});
  ASSERT_TRUE(circuit.ok());

  std::string blob;
  BinWriter w(&blob);
  circuit->Serialize(&w);

  BinReader r(blob);
  CompiledCircuit restored;
  ASSERT_TRUE(CompiledCircuit::Deserialize(&r, &restored).ok());

  CircuitScratch scratch;
  const auto original = circuit->Evaluate(inst.dists, &scratch);
  const auto copy = restored.Evaluate(inst.dists, &scratch);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(original.value(), copy.value());

  // Under shifted posteriors too: the blob carries the whole artifact.
  Rng rng(0xC0FFEE);
  DistributionMap shifted;
  for (std::size_t i = 0; i <= 3; ++i) {
    BAYESCROWD_CHECK_OK(shifted.Set(CellRef{i, 0}, RandomDist(4, rng)));
  }
  const auto original_shifted = circuit->Evaluate(shifted, &scratch);
  const auto copy_shifted = restored.Evaluate(shifted, &scratch);
  ASSERT_TRUE(original_shifted.ok());
  ASSERT_TRUE(copy_shifted.ok());
  EXPECT_EQ(original_shifted.value(), copy_shifted.value());

  // Compilation is deterministic, so so is the canonical form.
  auto again = CompileCondition(inst.condition, inst.dists, {}, {});
  ASSERT_TRUE(again.ok());
  std::string blob_again;
  BinWriter w2(&blob_again);
  again->Serialize(&w2);
  EXPECT_EQ(blob, blob_again);
}

TEST(CompiledCircuitTest, RejectsCorruptBlobs) {
  const AdversarialInstance inst = MakeDeepChainInstance(3, 4);
  auto circuit = CompileCondition(inst.condition, inst.dists, {}, {});
  ASSERT_TRUE(circuit.ok());
  std::string blob;
  BinWriter w(&blob);
  circuit->Serialize(&w);

  // Truncations fail instead of reading out of bounds.
  for (const std::size_t cut :
       {std::size_t{0}, blob.size() / 3, blob.size() - 1}) {
    BinReader r(std::string_view(blob).substr(0, cut));
    CompiledCircuit out;
    EXPECT_FALSE(CompiledCircuit::Deserialize(&r, &out).ok())
        << "cut " << cut;
  }

  // Structural validation: a node whose child range points past the
  // child array must be rejected, not dereferenced.
  CompiledCircuit bogus;
  CircuitNode node;
  node.kind = CircuitNodeKind::kProduct;
  node.first = 0;
  node.count = 3;
  bogus.nodes.push_back(node);
  bogus.root = 0;
  std::string bad;
  BinWriter bw(&bad);
  bogus.Serialize(&bw);
  BinReader br(bad);
  CompiledCircuit out;
  EXPECT_FALSE(CompiledCircuit::Deserialize(&br, &out).ok());
}

// ------------------------------------------------------------------ //
// ADPLL scratch reuse
// ------------------------------------------------------------------ //

TEST(AdpllScratchTest, ReusedScratchIsBitIdenticalToPerCallBuffers) {
  AdpllScratch scratch;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CompileCase c = MakeCompileCase(seed);
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

  // The star instance exercises the plan/table buffers; the partial
  // solver accepts the same scratch.
  const AdversarialInstance star = MakeDeepChainInstance(3, 4);
  const auto bare = AdpllProbability(star.condition, star.dists);
  const auto reused =
      AdpllProbability(star.condition, star.dists, {}, nullptr, &scratch);
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(bare.value(), reused.value());
  const auto partial = AdpllPartialProbability(star.condition, star.dists,
                                               {}, nullptr, nullptr, &scratch);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->lo, bare.value());
  EXPECT_TRUE(partial->exact());
}

// ------------------------------------------------------------------ //
// Evaluator: the compiled round loop
// ------------------------------------------------------------------ //

TEST(EvaluatorCompileTest, RoundLoopReplaysCompiledArtifacts) {
  const CompileCase c = MakeCompileCase(3);
  ASSERT_FALSE(c.objects.empty());

  auto run = [&](CompileMode mode, std::uint64_t* adpll_calls) {
    ProbabilityOptions options;
    options.compile.mode = mode;
    ProbabilityEvaluator evaluator(options);
    for (const CellRef& var : c.ctable.AllVariables()) {
      auto dist = c.dists.Get(var);
      BAYESCROWD_CHECK_OK(dist.status());
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, std::move(dist).value()));
    }
    std::vector<double> all;
    auto first = evaluator.EvaluateAll(c.ctable, c.objects);
    BAYESCROWD_CHECK_OK(first.status());
    all.insert(all.end(), first->begin(), first->end());
    // Fold "crowd answers": re-condition every posterior, three rounds.
    Rng rng(0xF00D);
    for (int round = 0; round < 3; ++round) {
      for (const CellRef& var : c.ctable.AllVariables()) {
        BAYESCROWD_CHECK_OK(
            evaluator.SetDistribution(var, RandomDist(kLevels, rng)));
      }
      auto next = evaluator.EvaluateAll(c.ctable, c.objects);
      BAYESCROWD_CHECK_OK(next.status());
      all.insert(all.end(), next->begin(), next->end());
    }
    if (mode == CompileMode::kOff) {
      EXPECT_EQ(evaluator.compile_stats().builds, 0u);
      EXPECT_EQ(evaluator.CircuitCount(), 0u);
    } else {
      EXPECT_GT(evaluator.compile_stats().builds, 0u);
      EXPECT_GT(evaluator.compile_stats().reuses, 0u);
      EXPECT_GT(evaluator.CircuitCount(), 0u);
    }
    *adpll_calls = evaluator.adpll_stats().calls;
    return all;
  };

  std::uint64_t calls_off = 0, calls_on = 0;
  const std::vector<double> off = run(CompileMode::kOff, &calls_off);
  const std::vector<double> on = run(CompileMode::kAuto, &calls_on);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i], on[i]) << "slot " << i;
  }
  // The point of the artifact: replay rounds never re-enter the search.
  EXPECT_LT(calls_on, calls_off);
}

TEST(EvaluatorCompileTest, CompileRefusalFallsBackAndNeverRetries) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);
  ProbabilityOptions options;
  options.compile.mode = CompileMode::kAuto;
  options.compile.max_nodes = 256;
  ProbabilityEvaluator evaluator(options);
  evaluator.distributions() = inst.dists;

  // The first miss only marks the condition seen; the second attempts
  // the compile, which refuses.
  const auto p = evaluator.Probability(inst.condition);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(evaluator.compile_stats().fallbacks, 0u);
  evaluator.InvalidateVariable(CellRef{0, 0});
  const auto second = evaluator.Probability(inst.condition);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(p.value(), second.value());
  EXPECT_NEAR(p.value(), inst.exact_probability, 1e-9);
  EXPECT_EQ(evaluator.compile_stats().builds, 0u);
  EXPECT_EQ(evaluator.compile_stats().fallbacks, 1u);
  EXPECT_EQ(evaluator.CircuitCount(), 0u);

  // The refusal is remembered: the next miss goes straight to ADPLL
  // instead of re-attempting an oversized compile.
  evaluator.InvalidateVariable(CellRef{0, 0});
  const auto q = evaluator.Probability(inst.condition);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(p.value(), q.value());
  EXPECT_EQ(evaluator.compile_stats().fallbacks, 1u);
  EXPECT_EQ(evaluator.cache_stats().misses, 3u);
}

TEST(EvaluatorCompileTest, GovernedReplayKeepsGradesAndBudgetsSound) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);

  // A biting budget degrades before anything is exact, so there is
  // nothing to compile — and nothing compiled to smuggle an exact
  // answer into the degraded tier.
  {
    ProbabilityOptions options;
    options.compile.mode = CompileMode::kAuto;
    options.governor.max_nodes = 32;
    options.governor.ladder = LadderMode::kFull;
    ProbabilityEvaluator evaluator(options);
    evaluator.distributions() = inst.dists;
    ASSERT_TRUE(evaluator.ProbabilityInterval(inst.condition).ok());
    evaluator.InvalidateVariable(CellRef{0, 0});
    const auto r = evaluator.ProbabilityInterval(inst.condition);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->exact());
    EXPECT_LE(r->lo, inst.exact_probability + 1e-9);
    EXPECT_GE(r->hi, inst.exact_probability - 1e-9);
    EXPECT_EQ(evaluator.compile_stats().builds, 0u);
    EXPECT_EQ(evaluator.CircuitCount(), 0u);
    EXPECT_GE(evaluator.solver_stats().budget_exhausted, 1u);
  }

  // An ample governed budget solves exactly, compiles on the second
  // solve, and a replay ticks the same exact tier the search would
  // have.
  {
    ProbabilityOptions options;
    options.compile.mode = CompileMode::kAuto;
    options.compile.max_nodes = 1ull << 20;
    options.governor.max_nodes = 1ull << 40;
    options.governor.ladder = LadderMode::kFull;
    ProbabilityEvaluator evaluator(options);
    evaluator.distributions() = inst.dists;
    const auto seen = evaluator.ProbabilityInterval(inst.condition);
    ASSERT_TRUE(seen.ok());
    EXPECT_TRUE(seen->exact());
    EXPECT_EQ(evaluator.compile_stats().builds, 0u);
    evaluator.InvalidateVariable(CellRef{0, 0});
    const auto first = evaluator.ProbabilityInterval(inst.condition);
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first->exact());
    EXPECT_EQ(first->lo, seen->lo);
    EXPECT_EQ(evaluator.compile_stats().builds, 1u);
    EXPECT_EQ(evaluator.solver_stats().tier_exact, 2u);

    evaluator.InvalidateVariable(CellRef{0, 0});
    const auto second = evaluator.ProbabilityInterval(inst.condition);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->exact());
    EXPECT_EQ(second->lo, first->lo);
    EXPECT_EQ(evaluator.compile_stats().reuses, 1u);
    EXPECT_EQ(evaluator.solver_stats().tier_exact, 3u);
  }

  // The strict ladder is ineligible by contract: budget-exhausted
  // evaluations must stay budget-exhausted, so nothing compiles.
  {
    ProbabilityOptions options;
    options.compile.mode = CompileMode::kAuto;
    options.governor.max_nodes = 1ull << 40;
    options.governor.ladder = LadderMode::kStrict;
    ProbabilityEvaluator evaluator(options);
    evaluator.distributions() = inst.dists;
    ASSERT_TRUE(evaluator.ProbabilityInterval(inst.condition).ok());
    evaluator.InvalidateVariable(CellRef{0, 0});
    const auto r = evaluator.ProbabilityInterval(inst.condition);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(evaluator.compile_stats().builds, 0u);
    EXPECT_EQ(evaluator.compile_stats().fallbacks, 0u);
    EXPECT_EQ(evaluator.CircuitCount(), 0u);
  }
}

TEST(EvaluatorCompileTest, GovernorChangeDropsTheArtifactStore) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);
  ProbabilityOptions options;
  options.compile.mode = CompileMode::kAuto;
  options.compile.max_nodes = 1ull << 20;
  ProbabilityEvaluator evaluator(options);
  evaluator.distributions() = inst.dists;

  ASSERT_TRUE(evaluator.Probability(inst.condition).ok());
  evaluator.InvalidateVariable(CellRef{0, 0});
  ASSERT_TRUE(evaluator.Probability(inst.condition).ok());
  ASSERT_EQ(evaluator.CircuitCount(), 1u);

  // Enable a biting budget on the same evaluator: the store was
  // populated under the inert tag, so the governed evaluation drops it
  // instead of replaying an exact answer the budgeted search could
  // never afford.
  evaluator.options().governor.max_nodes = 8;
  evaluator.options().governor.ladder = LadderMode::kInterval;
  const auto degraded = evaluator.ProbabilityInterval(inst.condition);
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded->exact());
  EXPECT_EQ(evaluator.CircuitCount(), 0u);
  EXPECT_EQ(evaluator.compile_stats().evictions, 1u);
  EXPECT_EQ(evaluator.compile_stats().reuses, 0u);

  // Returning to the inert configuration rebuilds from scratch rather
  // than trusting any stale store (or the marks that went with it).
  evaluator.options().governor = GovernorOptions{};
  ASSERT_TRUE(evaluator.Probability(inst.condition).ok());
  EXPECT_EQ(evaluator.compile_stats().builds, 1u);
  evaluator.InvalidateVariable(CellRef{0, 0});
  const auto exact = evaluator.Probability(inst.condition);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact.value(), inst.exact_probability, 1e-9);
  EXPECT_EQ(evaluator.compile_stats().builds, 2u);
  EXPECT_EQ(evaluator.CircuitCount(), 1u);
}

TEST(EvaluatorCompileTest, CheckpointedArtifactsReplayAfterRestore) {
  const CompileCase c = MakeCompileCase(5);
  ASSERT_FALSE(c.objects.empty());
  ProbabilityOptions options;
  options.compile.mode = CompileMode::kAuto;

  auto setup = [&](ProbabilityEvaluator& evaluator) {
    for (const CellRef& var : c.ctable.AllVariables()) {
      auto dist = c.dists.Get(var);
      BAYESCROWD_CHECK_OK(dist.status());
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, std::move(dist).value()));
    }
  };

  // One shifted round after the first solves, so the second solves
  // compile.
  auto shift = [&](ProbabilityEvaluator& evaluator) {
    Rng rng(0xBEEF);
    for (const CellRef& var : c.ctable.AllVariables()) {
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, RandomDist(kLevels, rng)));
    }
  };

  ProbabilityEvaluator warm(options);
  setup(warm);
  auto baseline = warm.EvaluateAll(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(baseline.status());
  shift(warm);
  auto compiled = warm.EvaluateAll(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(compiled.status());
  ASSERT_GT(warm.CircuitCount(), 0u);
  std::string blob;
  warm.SerializeMemoState(&blob);

  ProbabilityEvaluator resumed(options);
  setup(resumed);
  shift(resumed);
  BinReader reader(blob);
  ASSERT_TRUE(resumed.RestoreMemoState(&reader).ok());
  EXPECT_EQ(resumed.CircuitCount(), warm.CircuitCount());
  EXPECT_EQ(resumed.compile_stats().restored, warm.CircuitCount());

  // The resumed session's next round replays artifacts it never built.
  Rng rng(0xCAFE);
  for (const CellRef& var : c.ctable.AllVariables()) {
    const std::vector<double> dist = RandomDist(kLevels, rng);
    BAYESCROWD_CHECK_OK(warm.SetDistribution(var, dist));
    BAYESCROWD_CHECK_OK(resumed.SetDistribution(var, dist));
  }
  auto next_warm = warm.EvaluateAll(c.ctable, c.objects);
  auto next_resumed = resumed.EvaluateAll(c.ctable, c.objects);
  BAYESCROWD_CHECK_OK(next_warm.status());
  BAYESCROWD_CHECK_OK(next_resumed.status());
  ASSERT_EQ(next_warm->size(), next_resumed->size());
  for (std::size_t i = 0; i < next_warm->size(); ++i) {
    EXPECT_EQ(next_warm.value()[i], next_resumed.value()[i]) << "slot " << i;
  }
  EXPECT_EQ(resumed.compile_stats().builds, 0u);
  EXPECT_GT(resumed.compile_stats().reuses, 0u);
}

// The trigger: a condition's first exact miss builds nothing, its
// second builds, its third replays. Marks are read before the fan-out
// and written after the barrier, so every counter matches at any lane
// count; the duplicate copy of a condition in one batch reads the same
// mark as the first copy, so neither copy compiles on the first pass.
TEST(EvaluatorCompileTest, SecondExactMissCompilesAtEveryLaneCount) {
  const AdversarialInstance chain = MakeDeepChainInstance(3, 4);
  const AdversarialInstance wide = MakeWideChainConjunctInstance(2, 4);
  const std::vector<const Condition*> batch{
      &chain.condition, &wide.condition, &chain.condition};

  auto run = [&](std::size_t threads, std::vector<CircuitStats>* rounds) {
    ThreadPool pool(threads);
    ProbabilityEvaluator evaluator;
    evaluator.distributions() = chain.dists;  // Covers both instances.
    evaluator.set_thread_pool(&pool);
    Rng rng(0x5EC0);
    std::vector<double> all;
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        BAYESCROWD_CHECK_OK(
            evaluator.SetDistribution(CellRef{1, 0}, RandomDist(4, rng)));
      }
      auto values = evaluator.EvaluateBatch(batch);
      BAYESCROWD_CHECK_OK(values.status());
      all.insert(all.end(), values->begin(), values->end());
      rounds->push_back(evaluator.compile_stats());
    }
    return all;
  };

  std::vector<CircuitStats> one;
  const std::vector<double> base = run(1, &one);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0].builds, 0u);
  EXPECT_EQ(one[0].reuses, 0u);
  EXPECT_EQ(one[1].builds, 2u);  // The duplicate does not double-build.
  EXPECT_EQ(one[1].reuses, 0u);
  EXPECT_EQ(one[2].builds, 2u);
  EXPECT_EQ(one[2].reuses, 3u);  // Both chain copies and the wide one.
  for (const CircuitStats& stats : one) {
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.evictions, 0u);
  }

  std::vector<CircuitStats> eight;
  const std::vector<double> wide_pool = run(8, &eight);
  ASSERT_EQ(base.size(), wide_pool.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], wide_pool[i]) << "slot " << i;
  }
  ASSERT_EQ(eight.size(), one.size());
  for (std::size_t r = 0; r < one.size(); ++r) {
    EXPECT_EQ(eight[r].builds, one[r].builds) << "round " << r;
    EXPECT_EQ(eight[r].reuses, one[r].reuses) << "round " << r;
    EXPECT_EQ(eight[r].nodes, one[r].nodes) << "round " << r;
    EXPECT_EQ(eight[r].fallbacks, one[r].fallbacks) << "round " << r;
  }

  // A degraded answer never arms the trigger. The deep chain exhausts
  // a 32-node budget under uniform posteriors, but pinned posteriors
  // leave ADPLL one branch per variable, so the same budget then
  // solves it exactly: that exact solve is its first, not its second.
  const AdversarialInstance deep = MakeDeepChainInstance(7, 6);
  ProbabilityOptions options;
  options.compile.max_nodes = 1ull << 20;
  options.governor.max_nodes = 32;
  options.governor.ladder = LadderMode::kInterval;
  ProbabilityEvaluator governed(options);
  governed.distributions() = deep.dists;
  const auto degraded = governed.ProbabilityInterval(deep.condition);
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded->exact());
  auto pin = [&](Level offset) {
    for (std::size_t i = 0; i <= 7; ++i) {
      std::vector<double> point(6, 0.0);
      point[(i + offset) % 6] = 1.0;
      BAYESCROWD_CHECK_OK(governed.SetDistribution(CellRef{i, 0}, point));
    }
  };
  pin(0);
  const auto first_exact = governed.ProbabilityInterval(deep.condition);
  ASSERT_TRUE(first_exact.ok());
  EXPECT_TRUE(first_exact->exact());
  EXPECT_EQ(governed.compile_stats().builds, 0u);
  pin(1);
  const auto second_exact = governed.ProbabilityInterval(deep.condition);
  ASSERT_TRUE(second_exact.ok());
  EXPECT_TRUE(second_exact->exact());
  EXPECT_EQ(governed.compile_stats().builds, 1u);
}

// Marks ride the memo blob: an evaluator restored from a blob taken
// after the first miss compiles on the same (second) miss as the
// uninterrupted evaluator, and so does one that merges the blob into
// its own fresh state. Without the blob the same miss is a first one.
TEST(EvaluatorCompileTest, RestoredAndMergedMarksCompileOnTheSameMiss) {
  const CompileCase c = MakeCompileCase(5);
  ASSERT_FALSE(c.objects.empty());
  auto setup = [&](ProbabilityEvaluator& evaluator) {
    for (const CellRef& var : c.ctable.AllVariables()) {
      auto dist = c.dists.Get(var);
      BAYESCROWD_CHECK_OK(dist.status());
      BAYESCROWD_CHECK_OK(
          evaluator.SetDistribution(var, std::move(dist).value()));
    }
  };

  ProbabilityEvaluator uninterrupted;
  setup(uninterrupted);
  BAYESCROWD_CHECK_OK(
      uninterrupted.EvaluateAll(c.ctable, c.objects).status());
  ASSERT_EQ(uninterrupted.compile_stats().builds, 0u);
  std::string blob;
  uninterrupted.SerializeMemoState(&blob);

  ProbabilityEvaluator restored;
  setup(restored);
  BinReader restore_reader(blob);
  ASSERT_TRUE(restored.RestoreMemoState(&restore_reader).ok());
  ProbabilityEvaluator merged;
  setup(merged);
  BinReader merge_reader(blob);
  ASSERT_TRUE(merged.MergeMemoState(&merge_reader).ok());
  ProbabilityEvaluator cold;
  setup(cold);

  std::vector<ProbabilityEvaluator*> all{&uninterrupted, &restored, &merged,
                                         &cold};
  Rng rng(0xA11);
  for (int round = 0; round < 2; ++round) {
    for (const CellRef& var : c.ctable.AllVariables()) {
      const std::vector<double> dist = RandomDist(kLevels, rng);
      for (ProbabilityEvaluator* evaluator : all) {
        BAYESCROWD_CHECK_OK(evaluator->SetDistribution(var, dist));
      }
    }
    std::vector<std::vector<double>> values;
    for (ProbabilityEvaluator* evaluator : all) {
      auto next = evaluator->EvaluateAll(c.ctable, c.objects);
      BAYESCROWD_CHECK_OK(next.status());
      values.push_back(std::move(next).value());
    }
    for (std::size_t e = 1; e < values.size(); ++e) {
      EXPECT_EQ(values[e], values[0]) << "evaluator " << e;
    }
    const CircuitStats reference = uninterrupted.compile_stats();
    if (round == 0) {
      EXPECT_GT(reference.builds, 0u);
      EXPECT_EQ(reference.reuses, 0u);
      EXPECT_EQ(cold.compile_stats().builds, 0u);
    } else {
      EXPECT_GT(reference.reuses, 0u);
      EXPECT_EQ(cold.compile_stats().reuses, 0u);
    }
    for (const ProbabilityEvaluator* evaluator : {&restored, &merged}) {
      EXPECT_EQ(evaluator->compile_stats().builds, reference.builds)
          << "round " << round;
      EXPECT_EQ(evaluator->compile_stats().reuses, reference.reuses)
          << "round " << round;
    }
  }
}

// Reads the variable-index section of a SerializeMemoState blob: the
// live fingerprints first, then per variable its listed fingerprints.
void ReadMemoIndex(
    const std::string& blob, std::vector<ConditionFingerprint>* live,
    std::vector<std::vector<ConditionFingerprint>>* listed) {
  BinReader reader(blob);
  std::uint64_t n = 0;
  BAYESCROWD_CHECK_OK(reader.ReadU64(&n));
  for (std::uint64_t e = 0; e < n; ++e) {
    ConditionFingerprint fingerprint;
    double bound = 0.0;
    std::uint8_t grade = 0;
    std::uint64_t stamp = 0;
    BAYESCROWD_CHECK_OK(reader.ReadU64(&fingerprint.first));
    BAYESCROWD_CHECK_OK(reader.ReadU64(&fingerprint.second));
    BAYESCROWD_CHECK_OK(reader.ReadDouble(&bound));
    BAYESCROWD_CHECK_OK(reader.ReadDouble(&bound));
    BAYESCROWD_CHECK_OK(reader.ReadU8(&grade));
    BAYESCROWD_CHECK_OK(reader.ReadU64(&stamp));
    live->push_back(fingerprint);
  }
  BAYESCROWD_CHECK_OK(reader.ReadU64(&n));
  for (std::uint64_t v = 0; v < n; ++v) {
    std::uint64_t var = 0;
    std::uint64_t count = 0;
    BAYESCROWD_CHECK_OK(reader.ReadU64(&var));
    BAYESCROWD_CHECK_OK(reader.ReadU64(&count));
    listed->emplace_back(count);
    for (ConditionFingerprint& fingerprint : listed->back()) {
      BAYESCROWD_CHECK_OK(reader.ReadU64(&fingerprint.first));
      BAYESCROWD_CHECK_OK(reader.ReadU64(&fingerprint.second));
    }
  }
}

// The in-memory variable index keeps stale and repeated fingerprints;
// a checkpoint keeps only the live ones, once each. Eviction counts
// only what it erases, so a restored evaluator counts the same
// evictions as the one that wrote the blob.
TEST(EvaluatorCompileTest, CheckpointKeepsOnlyLiveIndexEntries) {
  const CellRef x{0, 0}, y{1, 0}, z{2, 0}, w{3, 0};
  const Condition a =
      Condition::Cnf({{Expression::VarConst(x, CmpOp::kGreater, 0)},
                      {Expression::VarConst(y, CmpOp::kLess, 2)}});
  const Condition b =
      Condition::Cnf({{Expression::VarConst(y, CmpOp::kGreater, 0)},
                      {Expression::VarConst(z, CmpOp::kLess, 2)}});
  const Condition d =
      Condition::Cnf({{Expression::VarConst(w, CmpOp::kGreater, 1)}});
  Rng rng(0x11DE);
  std::vector<std::pair<CellRef, std::vector<double>>> dists;
  for (const CellRef& var : {x, y, z, w}) {
    dists.emplace_back(var, RandomDist(3, rng));
  }

  ProbabilityEvaluator writer;
  for (const auto& [var, dist] : dists) {
    BAYESCROWD_CHECK_OK(writer.SetDistribution(var, dist));
  }
  BAYESCROWD_CHECK_OK(writer.EvaluateBatch({&a, &b, &d}).status());
  // Evicting a leaves it listed (stale) under y; re-solving it lists it
  // under y a second time. Evicting b leaves it stale under y too.
  dists[0].second = RandomDist(3, rng);
  BAYESCROWD_CHECK_OK(writer.SetDistribution(x, dists[0].second));
  BAYESCROWD_CHECK_OK(writer.Probability(a).status());
  dists[2].second = RandomDist(3, rng);
  BAYESCROWD_CHECK_OK(writer.SetDistribution(z, dists[2].second));
  ASSERT_EQ(writer.cache_stats().evictions, 2u);
  ASSERT_EQ(writer.CacheSize(), 2u);  // a and d.

  std::string blob;
  writer.SerializeMemoState(&blob);
  std::vector<ConditionFingerprint> live;
  std::vector<std::vector<ConditionFingerprint>> listed;
  ReadMemoIndex(blob, &live, &listed);
  ASSERT_EQ(live.size(), 2u);
  std::size_t total = 0;
  for (const std::vector<ConditionFingerprint>& fingerprints : listed) {
    EXPECT_FALSE(fingerprints.empty());
    for (std::size_t f = 0; f < fingerprints.size(); ++f) {
      EXPECT_NE(std::find(live.begin(), live.end(), fingerprints[f]),
                live.end());
      if (f > 0) {
        EXPECT_LT(fingerprints[f - 1], fingerprints[f]);
      }
    }
    total += fingerprints.size();
  }
  EXPECT_EQ(listed.size(), 3u);  // x: {a}, y: {a}, w: {d}.
  EXPECT_EQ(total, 3u);

  ProbabilityEvaluator reader;
  for (const auto& [var, dist] : dists) {
    BAYESCROWD_CHECK_OK(reader.SetDistribution(var, dist));
  }
  BinReader in(blob);
  ASSERT_TRUE(reader.RestoreMemoState(&in).ok());
  std::string again;
  reader.SerializeMemoState(&again);
  EXPECT_EQ(again, blob);

  // Re-condition every variable, y (one live, one stale and one
  // repeated fingerprint) first.
  const std::uint64_t writer_base = writer.cache_stats().evictions;
  const std::uint64_t reader_base = reader.cache_stats().evictions;
  for (const CellRef& var : {y, x, z, w}) {
    const std::vector<double> dist = RandomDist(3, rng);
    BAYESCROWD_CHECK_OK(writer.SetDistribution(var, dist));
    BAYESCROWD_CHECK_OK(reader.SetDistribution(var, dist));
    EXPECT_EQ(writer.cache_stats().evictions - writer_base,
              reader.cache_stats().evictions - reader_base)
        << "after " << var.object;
    EXPECT_EQ(writer.CacheSize(), reader.CacheSize());
  }
  EXPECT_EQ(writer.cache_stats().evictions - writer_base, 2u);
}

}  // namespace
}  // namespace bayescrowd

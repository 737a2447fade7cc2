// Tests for the Bayesian-network substrate: DAG invariants, CPTs,
// factors, exact inference, structure learning and the
// posterior providers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "bayesnet/cpt.h"
#include "bayesnet/dag.h"
#include "bayesnet/factor.h"
#include "bayesnet/imputation.h"
#include "bayesnet/inference.h"
#include "bayesnet/network.h"
#include "bayesnet/structure_learning.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

// ------------------------------------------------------------------ //
// Dag
// ------------------------------------------------------------------ //

TEST(DagTest, AddRemoveEdges) {
  Dag dag(3);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_TRUE(dag.HasEdge(0, 1));
  EXPECT_FALSE(dag.HasEdge(1, 0));
  EXPECT_EQ(dag.num_edges(), 2u);
  EXPECT_TRUE(dag.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(dag.HasEdge(0, 1));
  EXPECT_TRUE(dag.RemoveEdge(0, 1).IsNotFound());
}

TEST(DagTest, RejectsCyclesAndSelfLoops) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_FALSE(dag.AddEdge(2, 0).ok());  // Would close a cycle.
  EXPECT_FALSE(dag.AddEdge(1, 1).ok());  // Self-loop.
  EXPECT_FALSE(dag.CanAddEdge(2, 0));
  EXPECT_TRUE(dag.CanAddEdge(0, 2));
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  Dag dag(4);
  ASSERT_TRUE(dag.AddEdge(2, 0).ok());
  ASSERT_TRUE(dag.AddEdge(0, 3).ok());
  ASSERT_TRUE(dag.AddEdge(2, 1).ok());
  const auto order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& [from, to] : dag.Edges()) EXPECT_LT(pos[from], pos[to]);
}

// ------------------------------------------------------------------ //
// Cpt
// ------------------------------------------------------------------ //

TEST(CptTest, ConfigIndexMixedRadix) {
  const Cpt cpt(2, 3, {0, 1}, {2, 4});
  EXPECT_EQ(cpt.num_parent_configs(), 8u);
  EXPECT_EQ(cpt.ConfigIndex({0, 0}), 0u);
  EXPECT_EQ(cpt.ConfigIndex({0, 3}), 3u);
  EXPECT_EQ(cpt.ConfigIndex({1, 0}), 4u);
  EXPECT_EQ(cpt.ConfigIndex({1, 3}), 7u);
}

TEST(CptTest, FitNormalizesWithPrior) {
  Cpt cpt(0, 2, {}, {});
  cpt.ClearCounts();
  cpt.AddCount(0, 0, 3.0);
  cpt.AddCount(1, 0, 1.0);
  cpt.NormalizeWithPrior(1.0);
  EXPECT_NEAR(cpt.Prob(0, 0), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(cpt.Prob(1, 0), 2.0 / 6.0, 1e-12);
}

TEST(CptTest, SampleFollowsDistribution) {
  Cpt cpt(0, 2, {}, {});
  cpt.ClearCounts();
  cpt.AddCount(0, 0, 9.0);
  cpt.AddCount(1, 0, 1.0);
  cpt.NormalizeWithPrior(1e-9);
  Rng rng(5);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += cpt.Sample(0, rng) == 1 ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.1, 0.02);
}

// ------------------------------------------------------------------ //
// Factor
// ------------------------------------------------------------------ //

TEST(FactorTest, IndexRoundTrip) {
  Factor f({1, 3}, {2, 3});
  for (std::size_t flat = 0; flat < f.size(); ++flat) {
    EXPECT_EQ(f.IndexOf(f.AssignmentOf(flat)), flat);
  }
}

TEST(FactorTest, ProductMatchesManualComputation) {
  Factor a({0}, {2});
  a.At(0) = 0.3;
  a.At(1) = 0.7;
  Factor b({0, 1}, {2, 2});
  b.At(b.IndexOf({0, 0})) = 0.5;
  b.At(b.IndexOf({0, 1})) = 0.5;
  b.At(b.IndexOf({1, 0})) = 0.2;
  b.At(b.IndexOf({1, 1})) = 0.8;
  const Factor p = Factor::Product(a, b);
  EXPECT_NEAR(p.At(p.IndexOf({0, 0})), 0.15, 1e-12);
  EXPECT_NEAR(p.At(p.IndexOf({1, 1})), 0.56, 1e-12);
}

TEST(FactorTest, MarginalizeSumsOut) {
  Factor f({0, 1}, {2, 2});
  f.At(f.IndexOf({0, 0})) = 0.1;
  f.At(f.IndexOf({0, 1})) = 0.2;
  f.At(f.IndexOf({1, 0})) = 0.3;
  f.At(f.IndexOf({1, 1})) = 0.4;
  const Factor m = f.Marginalize(1);
  ASSERT_EQ(m.variables(), (std::vector<std::size_t>{0}));
  EXPECT_NEAR(m.At(0), 0.3, 1e-12);
  EXPECT_NEAR(m.At(1), 0.7, 1e-12);
}

TEST(FactorTest, ReduceFixesEvidence) {
  Factor f({0, 1}, {2, 3});
  for (std::size_t i = 0; i < f.size(); ++i) {
    f.At(i) = static_cast<double>(i);
  }
  const Factor r = f.Reduce(1, 2);
  ASSERT_EQ(r.variables(), (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(r.At(0), f.At(f.IndexOf({0, 2})));
  EXPECT_DOUBLE_EQ(r.At(1), f.At(f.IndexOf({1, 2})));
}

// The kernels walk their scopes with strides; these references decode
// every entry with IndexOf/AssignmentOf instead, visiting and summing in
// the same order, so results must match bit for bit.

Factor RandomFactor(const std::vector<std::size_t>& vars,
                    const std::vector<Level>& card_of, Rng& rng) {
  std::vector<Level> cards;
  for (std::size_t v : vars) cards.push_back(card_of[v]);
  Factor f(vars, cards);
  for (std::size_t i = 0; i < f.size(); ++i) f.At(i) = rng.NextDouble();
  return f;
}

// Levels of `from`'s assignment for the variables of `to`'s scope.
std::vector<Level> Project(const Factor& from, const std::vector<Level>& asg,
                           const Factor& to) {
  const std::vector<std::size_t>& scope = from.variables();
  std::vector<Level> out;
  for (std::size_t v : to.variables()) {
    const auto it = std::lower_bound(scope.begin(), scope.end(), v);
    out.push_back(asg[static_cast<std::size_t>(it - scope.begin())]);
  }
  return out;
}

void ExpectProductMatchesReference(const Factor& a, const Factor& b) {
  const Factor p = Factor::Product(a, b);
  std::vector<std::size_t> scope = a.variables();
  scope.insert(scope.end(), b.variables().begin(), b.variables().end());
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  ASSERT_EQ(p.variables(), scope);
  for (std::size_t flat = 0; flat < p.size(); ++flat) {
    const std::vector<Level> asg = p.AssignmentOf(flat);
    const double expected = a.At(a.IndexOf(Project(p, asg, a))) *
                            b.At(b.IndexOf(Project(p, asg, b)));
    EXPECT_EQ(p.At(flat), expected) << "flat=" << flat;
  }
}

void ExpectMarginalizeAndReduceMatchReference(const Factor& f) {
  for (std::size_t pos = 0; pos < f.variables().size(); ++pos) {
    const std::size_t var = f.variables()[pos];
    const Factor m = f.Marginalize(var);
    Factor expected = m;
    for (std::size_t i = 0; i < expected.size(); ++i) expected.At(i) = 0.0;
    for (std::size_t flat = 0; flat < f.size(); ++flat) {
      std::vector<Level> asg = f.AssignmentOf(flat);
      asg.erase(asg.begin() + static_cast<std::ptrdiff_t>(pos));
      expected.At(expected.IndexOf(asg)) += f.At(flat);
    }
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(m.At(i), expected.At(i)) << "sum out " << var << " i=" << i;
    }

    for (Level value = 0; value < f.cardinalities()[pos]; ++value) {
      const Factor r = f.Reduce(var, value);
      ASSERT_EQ(r.variables(), m.variables());
      for (std::size_t flat = 0; flat < r.size(); ++flat) {
        std::vector<Level> asg = r.AssignmentOf(flat);
        asg.insert(asg.begin() + static_cast<std::ptrdiff_t>(pos), value);
        EXPECT_EQ(r.At(flat), f.At(f.IndexOf(asg)))
            << "fix " << var << "=" << value << " flat=" << flat;
      }
    }
  }
}

TEST(FactorTest, KernelsMatchDecodedReferenceOnRandomFactors) {
  using Scope = std::vector<std::size_t>;
  const std::vector<std::pair<Scope, Scope>> scope_pairs = {
      {{0, 2, 4}, {5, 7}},        // Disjoint, a's before b's.
      {{1, 6}, {0, 3, 7}},        // Disjoint, interleaved.
      {{0, 2, 5}, {1, 2, 4, 5}},  // Overlapping, interleaved.
      {{1, 3, 4}, {1, 3, 4}},     // Identical.
      {{}, {2, 5}},               // Empty times non-empty.
      {{3, 6, 7}, {}},
      {{}, {}},
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<Level> card_of(8);
    for (Level& card : card_of) {
      card = static_cast<Level>(2 + rng.NextBelow(9));  // 2..10
    }
    card_of[seed % 8] = 2;  // Pin both ends of the range.
    card_of[(seed + 3) % 8] = 10;
    for (const auto& [scope_a, scope_b] : scope_pairs) {
      const Factor a = RandomFactor(scope_a, card_of, rng);
      const Factor b = RandomFactor(scope_b, card_of, rng);
      ExpectProductMatchesReference(a, b);
      ExpectProductMatchesReference(b, a);
      ExpectMarginalizeAndReduceMatchReference(a);
      ExpectMarginalizeAndReduceMatchReference(b);
    }
  }
}

// ------------------------------------------------------------------ //
// Network + inference on a hand-built chain A -> B -> C.
// ------------------------------------------------------------------ //

BayesianNetwork ChainNetwork() {
  Schema schema;
  schema.AddAttribute("A", 2);
  schema.AddAttribute("B", 2);
  schema.AddAttribute("C", 2);
  Dag dag(3);
  BAYESCROWD_CHECK_OK(dag.AddEdge(0, 1));
  BAYESCROWD_CHECK_OK(dag.AddEdge(1, 2));
  auto net = BayesianNetwork::Create(schema, dag);
  BAYESCROWD_CHECK_OK(net.status());

  // Fit from a big exact-proportion sample via counts:
  // P(A=1)=0.3, P(B=1|A=0)=0.2, P(B=1|A=1)=0.9,
  // P(C=1|B=0)=0.4, P(C=1|B=1)=0.6.
  Rng rng(31);
  Table data(schema);
  for (int i = 0; i < 60000; ++i) {
    const Level a = rng.NextBool(0.3) ? 1 : 0;
    const Level b = rng.NextBool(a == 1 ? 0.9 : 0.2) ? 1 : 0;
    const Level c = rng.NextBool(b == 1 ? 0.6 : 0.4) ? 1 : 0;
    BAYESCROWD_CHECK_OK(data.AppendRow("r", {a, b, c}));
  }
  BAYESCROWD_CHECK_OK(net->FitParameters(data, 0.1));
  return std::move(net).value();
}

// Exhaustive P(query | evidence) from the joint, for cross-checking VE.
std::vector<double> BruteForcePosterior(const BayesianNetwork& net,
                                        const Evidence& evidence,
                                        std::size_t query) {
  const std::size_t d = net.num_nodes();
  std::vector<double> posterior(
      static_cast<std::size_t>(net.schema().domain_size(query)), 0.0);
  std::vector<Level> row(d, 0);
  const std::function<void(std::size_t)> enumerate =
      [&](std::size_t node) {
        if (node == d) {
          for (const auto& [ev, val] : evidence) {
            if (row[ev] != val) return;
          }
          posterior[static_cast<std::size_t>(row[query])] +=
              std::exp(net.LogJointProbability(row));
          return;
        }
        for (Level v = 0; v < net.schema().domain_size(node); ++v) {
          row[node] = v;
          enumerate(node + 1);
        }
      };
  enumerate(0);
  double total = 0.0;
  for (double p : posterior) total += p;
  for (double& p : posterior) p /= total;
  return posterior;
}

TEST(NetworkTest, FittedParametersCloseToGenerator) {
  const BayesianNetwork net = ChainNetwork();
  EXPECT_NEAR(net.cpt(0).Prob(1, 0), 0.3, 0.02);
  // P(B=1 | A=1): parent config index 1.
  EXPECT_NEAR(net.cpt(1).Prob(1, 1), 0.9, 0.02);
  EXPECT_NEAR(net.cpt(2).Prob(1, 0), 0.4, 0.02);
}

TEST(NetworkTest, SampleTableMatchesMarginals) {
  const BayesianNetwork net = ChainNetwork();
  Rng rng(77);
  const Table sample = net.SampleTable(20000, rng);
  double a1 = 0;
  for (std::size_t i = 0; i < sample.num_objects(); ++i) {
    a1 += sample.At(i, 0);
  }
  EXPECT_NEAR(a1 / 20000.0, 0.3, 0.02);
}

TEST(InferenceTest, VariableEliminationMatchesBruteForce) {
  const BayesianNetwork net = ChainNetwork();
  for (std::size_t query = 0; query < 3; ++query) {
    for (int ev_case = 0; ev_case < 3; ++ev_case) {
      Evidence evidence;
      if (ev_case == 1) evidence[(query + 1) % 3] = 1;
      if (ev_case == 2) {
        evidence[(query + 1) % 3] = 0;
        evidence[(query + 2) % 3] = 1;
      }
      const auto ve = VariableElimination(net, evidence, query);
      ASSERT_TRUE(ve.ok());
      const auto brute = BruteForcePosterior(net, evidence, query);
      for (std::size_t v = 0; v < brute.size(); ++v) {
        EXPECT_NEAR(ve.value()[v], brute[v], 1e-9)
            << "query=" << query << " case=" << ev_case;
      }
    }
  }
}

TEST(InferenceTest, EvidencePropagatesThroughChain) {
  const BayesianNetwork net = ChainNetwork();
  // P(C=1 | A=1) > P(C=1 | A=0): A raises B which raises C.
  const auto given_a1 = VariableElimination(net, {{0, 1}}, 2);
  const auto given_a0 = VariableElimination(net, {{0, 0}}, 2);
  ASSERT_TRUE(given_a1.ok());
  ASSERT_TRUE(given_a0.ok());
  EXPECT_GT(given_a1.value()[1], given_a0.value()[1]);
}

TEST(InferenceTest, RejectsBadQueries) {
  const BayesianNetwork net = ChainNetwork();
  EXPECT_FALSE(VariableElimination(net, {}, 99).ok());
  EXPECT_FALSE(VariableElimination(net, {{0, 1}}, 0).ok());
  EXPECT_FALSE(VariableElimination(net, {{0, 7}}, 1).ok());
}

// ------------------------------------------------------------------ //
// Structure learning
// ------------------------------------------------------------------ //

TEST(StructureLearningTest, HillClimbRecoversChainSkeleton) {
  // Data from a strong chain A -> B -> C; the learned structure must
  // connect A-B and B-C (direction may legally flip) and must not link
  // A-C directly given limited dependence.
  Rng rng(13);
  Schema schema;
  schema.AddAttribute("A", 2);
  schema.AddAttribute("B", 2);
  schema.AddAttribute("C", 2);
  Table data(schema);
  for (int i = 0; i < 5000; ++i) {
    const Level a = rng.NextBool(0.5) ? 1 : 0;
    const Level b = rng.NextBool(a == 1 ? 0.95 : 0.05) ? 1 : 0;
    const Level c = rng.NextBool(b == 1 ? 0.9 : 0.1) ? 1 : 0;
    BAYESCROWD_CHECK_OK(data.AppendRow("r", {a, b, c}));
  }
  const auto dag = HillClimbStructure(data);
  ASSERT_TRUE(dag.ok());
  const auto linked = [&dag](std::size_t x, std::size_t y) {
    return dag->HasEdge(x, y) || dag->HasEdge(y, x);
  };
  EXPECT_TRUE(linked(0, 1));
  EXPECT_TRUE(linked(1, 2));
}

TEST(StructureLearningTest, BicImprovesOverEmptyForDependentData) {
  const Table data = MakeAdultLike(2000, 3);
  const auto dag = HillClimbStructure(data);
  ASSERT_TRUE(dag.ok());
  EXPECT_GT(dag->num_edges(), 0u);
  const auto learned_score = BicScore(data, *dag);
  const auto empty_score = BicScore(data, Dag(data.num_attributes()));
  ASSERT_TRUE(learned_score.ok());
  ASSERT_TRUE(empty_score.ok());
  EXPECT_GT(learned_score.value(), empty_score.value());
}

TEST(StructureLearningTest, ChowLiuBuildsSpanningTree) {
  const Table data = MakeAdultLike(2000, 4);
  const auto dag = ChowLiuStructure(data);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_edges(), data.num_attributes() - 1);
  EXPECT_EQ(dag->TopologicalOrder().size(), data.num_attributes());
}

TEST(StructureLearningTest, WorksOnIncompleteData) {
  Rng rng(14);
  const Table complete = MakeAdultLike(2000, 5);
  const Table data = InjectMissingUniform(complete, 0.15, rng);
  const auto dag = HillClimbStructure(data);
  ASSERT_TRUE(dag.ok());
  auto net = BayesianNetwork::Create(data.schema(), *dag);
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(net->FitParameters(data).ok());
}


TEST(StructureLearningTest, K2RecoversChainUnderTrueOrdering) {
  Rng rng(15);
  Schema schema;
  schema.AddAttribute("A", 2);
  schema.AddAttribute("B", 2);
  schema.AddAttribute("C", 2);
  Table data(schema);
  for (int i = 0; i < 5000; ++i) {
    const Level a = rng.NextBool(0.5) ? 1 : 0;
    const Level b = rng.NextBool(a == 1 ? 0.95 : 0.05) ? 1 : 0;
    const Level c = rng.NextBool(b == 1 ? 0.9 : 0.1) ? 1 : 0;
    BAYESCROWD_CHECK_OK(data.AppendRow("r", {a, b, c}));
  }
  const auto dag = K2Structure(data, {0, 1, 2});
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->HasEdge(0, 1));
  EXPECT_TRUE(dag->HasEdge(1, 2));
}

TEST(StructureLearningTest, K2RespectsMaxParentsAndOrdering) {
  const Table data = MakeAdultLike(1500, 16);
  std::vector<std::size_t> ordering(data.num_attributes());
  for (std::size_t i = 0; i < ordering.size(); ++i) ordering[i] = i;
  const auto dag = K2Structure(data, ordering, 2);
  ASSERT_TRUE(dag.ok());
  std::vector<std::size_t> position(ordering.size());
  for (std::size_t i = 0; i < ordering.size(); ++i) {
    position[ordering[i]] = i;
  }
  for (std::size_t v = 0; v < data.num_attributes(); ++v) {
    EXPECT_LE(dag->parents(v).size(), 2u);
    for (std::size_t p : dag->parents(v)) {
      EXPECT_LT(position[p], position[v]);  // Parents precede children.
    }
  }
}

TEST(StructureLearningTest, K2ValidatesOrdering) {
  const Table data = MakeAdultLike(100, 17);
  EXPECT_FALSE(K2Structure(data, {0, 1}).ok());           // Too short.
  EXPECT_FALSE(K2Structure(data, {0, 0, 1, 2, 3, 4, 5, 6, 7}).ok());
  EXPECT_FALSE(K2Structure(data, {0, 1, 2, 3, 4, 5, 6, 7, 99}).ok());
}


TEST(StructureLearningTest, AllLearnersBeatTheEmptyGraph) {
  // Greedy searches carry no dominance guarantees among each other
  // (K2 with the generator's own causal ordering can legitimately beat
  // hill-climbing), but on dependency-rich data every learner must
  // improve on independence.
  const Table data = MakeAdultLike(3000, 18);
  const auto hc = HillClimbStructure(data);
  const auto cl = ChowLiuStructure(data);
  std::vector<std::size_t> ordering(data.num_attributes());
  for (std::size_t i = 0; i < ordering.size(); ++i) ordering[i] = i;
  const auto k2 = K2Structure(data, ordering);
  ASSERT_TRUE(hc.ok());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(k2.ok());
  const double s_empty =
      BicScore(data, Dag(data.num_attributes())).value();
  EXPECT_GT(BicScore(data, *hc).value(), s_empty);
  EXPECT_GT(BicScore(data, *cl).value(), s_empty);
  EXPECT_GT(BicScore(data, *k2).value(), s_empty);
}

// ------------------------------------------------------------------ //
// Posterior providers
// ------------------------------------------------------------------ //

TEST(ImputationTest, BnProviderConditionsOnRowEvidence) {
  const BayesianNetwork net = ChainNetwork();
  Table incomplete(net.schema());
  ASSERT_TRUE(incomplete.AppendRow("r1", {1, kMissingLevel, 1}).ok());
  ASSERT_TRUE(incomplete.AppendRow("r2", {0, kMissingLevel, 1}).ok());
  BnPosteriorProvider provider(net, incomplete);
  const auto p1 = provider.Posterior({0, 1});
  const auto p2 = provider.Posterior({1, 1});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  // B is much likelier 1 when A=1 than when A=0.
  EXPECT_GT(p1.value()[1], p2.value()[1]);
  // Cross-check against brute force.
  const auto brute = BruteForcePosterior(net, {{0, 1}, {2, 1}}, 1);
  EXPECT_NEAR(p1.value()[1], brute[1], 1e-9);
}

TEST(ImputationTest, BnProviderRejectsObservedCell) {
  const BayesianNetwork net = ChainNetwork();
  Table incomplete(net.schema());
  ASSERT_TRUE(incomplete.AppendRow("r1", {1, kMissingLevel, 1}).ok());
  BnPosteriorProvider provider(net, incomplete);
  EXPECT_FALSE(provider.Posterior({0, 0}).ok());
  EXPECT_FALSE(provider.Posterior({5, 0}).ok());
}

TEST(ImputationTest, FixedAndUniformProviders) {
  FixedMarginalsProvider fixed(SampleMovieDistributions());
  const auto p = fixed.Posterior({4, 3});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value()[4], 0.3, 1e-12);

  UniformPosteriorProvider uniform(MakeSampleMovieDataset().schema());
  const auto u = uniform.Posterior({4, 2});
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u.value().size(), 8u);
  EXPECT_NEAR(u.value()[0], 0.125, 1e-12);
}

}  // namespace
}  // namespace bayescrowd

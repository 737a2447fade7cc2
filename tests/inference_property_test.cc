// Property tests for Bayesian-network inference: on random small
// networks, variable elimination must match brute-force enumeration
// exactly, and must read no evidence beyond the query's observed
// moral-graph boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "bayesnet/inference.h"
#include "bayesnet/network.h"
#include "bayesnet/structure_learning.h"
#include "common/random.h"
#include "data/generators.h"
#include "skyline/algorithms.h"

namespace bayescrowd {
namespace {

// Random DAG + random CPTs over `d` nodes with mixed cardinalities.
BayesianNetwork RandomNetwork(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  for (std::size_t v = 0; v < d; ++v) {
    schema.AddAttribute("x" + std::to_string(v),
                        static_cast<Level>(2 + rng.NextBelow(3)));
  }
  Dag dag(d);
  // Random edges respecting the identity order (i -> j only if i < j).
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) {
      if (rng.NextBool(0.4) && dag.parents(j).size() < 3) {
        BAYESCROWD_CHECK_OK(dag.AddEdge(i, j));
      }
    }
  }
  auto net = BayesianNetwork::Create(schema, dag);
  BAYESCROWD_CHECK_OK(net.status());
  // Random parameters via random counts.
  for (std::size_t v = 0; v < d; ++v) {
    auto& cpt = const_cast<Cpt&>(net->cpt(v));
    cpt.ClearCounts();
    for (std::size_t c = 0; c < cpt.num_parent_configs(); ++c) {
      for (Level value = 0; value < cpt.cardinality(); ++value) {
        cpt.AddCount(value, c, 0.5 + 10.0 * rng.NextDouble());
      }
    }
    cpt.NormalizeWithPrior(0.01);
  }
  return std::move(net).value();
}

std::vector<double> BruteForce(const BayesianNetwork& net,
                               const Evidence& evidence,
                               std::size_t query) {
  const std::size_t d = net.num_nodes();
  std::vector<double> posterior(
      static_cast<std::size_t>(net.schema().domain_size(query)), 0.0);
  std::vector<Level> row(d, 0);
  const std::function<void(std::size_t)> enumerate = [&](std::size_t v) {
    if (v == d) {
      for (const auto& [node, value] : evidence) {
        if (row[node] != value) return;
      }
      posterior[static_cast<std::size_t>(row[query])] +=
          std::exp(net.LogJointProbability(row));
      return;
    }
    for (Level value = 0; value < net.schema().domain_size(v); ++value) {
      row[v] = value;
      enumerate(v + 1);
    }
  };
  enumerate(0);
  double total = 0.0;
  for (double p : posterior) total += p;
  for (double& p : posterior) p /= total;
  return posterior;
}

class RandomNetworkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworkTest, VariableEliminationIsExact) {
  const BayesianNetwork net = RandomNetwork(5, GetParam());
  Rng rng(GetParam() ^ 0x7777);
  for (int round = 0; round < 4; ++round) {
    const std::size_t query = rng.NextBelow(net.num_nodes());
    Evidence evidence;
    for (std::size_t v = 0; v < net.num_nodes(); ++v) {
      if (v != query && rng.NextBool(0.4)) {
        evidence[v] = static_cast<Level>(rng.NextBelow(
            static_cast<std::uint64_t>(net.schema().domain_size(v))));
      }
    }
    const auto ve = VariableElimination(net, evidence, query);
    ASSERT_TRUE(ve.ok()) << ve.status();
    const auto brute = BruteForce(net, evidence, query);
    for (std::size_t v = 0; v < brute.size(); ++v) {
      EXPECT_NEAR(ve.value()[v], brute[v], 1e-9)
          << "seed=" << GetParam() << " round=" << round << " v=" << v;
    }
  }
}

// Moral-graph neighbours of `node`: its parents, children and
// children's other parents.
std::set<std::size_t> MoralNeighbours(const Dag& dag, std::size_t node) {
  std::set<std::size_t> out(dag.parents(node).begin(),
                            dag.parents(node).end());
  for (std::size_t child : dag.children(node)) {
    out.insert(child);
    out.insert(dag.parents(child).begin(), dag.parents(child).end());
  }
  out.erase(node);
  return out;
}

// The query's connected component among unobserved nodes of the moral
// graph, and the observed nodes adjacent to it. The posterior depends on
// the evidence on the boundary only.
struct Region {
  std::set<std::size_t> component;
  std::set<std::size_t> boundary;
};

Region RegionOf(const Dag& dag, const Evidence& evidence, std::size_t query) {
  Region region;
  region.component.insert(query);
  std::vector<std::size_t> stack = {query};
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (std::size_t u : MoralNeighbours(dag, v)) {
      if (evidence.count(u) > 0) {
        region.boundary.insert(u);
      } else if (region.component.insert(u).second) {
        stack.push_back(u);
      }
    }
  }
  return region;
}

TEST_P(RandomNetworkTest, EvidenceBeyondTheBoundaryLeavesBitsUnchanged) {
  const BayesianNetwork net = RandomNetwork(7, GetParam());
  const Dag& dag = net.structure();
  const std::size_t d = net.num_nodes();
  Rng rng(GetParam() ^ 0x5151);
  const auto random_level = [&](std::size_t v) {
    return static_cast<Level>(rng.NextBelow(
        static_cast<std::uint64_t>(net.schema().domain_size(v))));
  };
  bool saw_observed_blanket = false;
  bool saw_wide_component = false;
  for (int round = 0; round < 6; ++round) {
    const std::size_t query = rng.NextBelow(d);
    // Evidence patterns: every other node observed (a fully observed
    // Markov blanket); the query's two-hop neighbourhood left open (an
    // unobserved component of several nodes); a random half observed.
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::set<std::size_t> open = {query};
      if (pattern == 1) {
        for (std::size_t u : MoralNeighbours(dag, query)) {
          open.insert(u);
          const std::set<std::size_t> second = MoralNeighbours(dag, u);
          open.insert(second.begin(), second.end());
        }
      }
      Evidence evidence;
      for (std::size_t v = 0; v < d; ++v) {
        if (open.count(v) > 0 || (pattern == 2 && rng.NextBool(0.5))) {
          continue;
        }
        evidence[v] = random_level(v);
      }
      const Region region = RegionOf(dag, evidence, query);
      saw_observed_blanket |= region.component.size() == 1 &&
                              !region.boundary.empty();
      saw_wide_component |= region.component.size() >= 3;

      const auto base = VariableElimination(net, evidence, query);
      ASSERT_TRUE(base.ok()) << base.status();
      const auto brute = BruteForce(net, evidence, query);
      for (std::size_t v = 0; v < brute.size(); ++v) {
        EXPECT_NEAR(base.value()[v], brute[v], 1e-9);
      }

      // Add, remove or change evidence everywhere outside the component
      // and its boundary: the output must not move by a single bit.
      for (int trial = 0; trial < 4; ++trial) {
        Evidence moved = evidence;
        for (std::size_t v = 0; v < d; ++v) {
          if (region.component.count(v) > 0 || region.boundary.count(v) > 0) {
            continue;
          }
          switch (rng.NextBelow(3)) {
            case 0:
              moved.erase(v);
              break;
            case 1:
              moved[v] = random_level(v);
              break;
            default:
              break;
          }
        }
        const auto again = VariableElimination(net, moved, query);
        ASSERT_TRUE(again.ok()) << again.status();
        for (std::size_t v = 0; v < brute.size(); ++v) {
          EXPECT_EQ(again.value()[v], base.value()[v])
              << "seed=" << GetParam() << " round=" << round
              << " pattern=" << pattern << " v=" << v;
        }
      }
    }
  }
  EXPECT_TRUE(saw_observed_blanket);
  EXPECT_TRUE(saw_wide_component);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------------ //
// Divide-and-conquer skyline cross-check (three algorithms agree).
// ------------------------------------------------------------------ //

TEST(DivideConquerTest, AgreesWithBnlAcrossWorkloads) {
  for (int round = 0; round < 6; ++round) {
    for (const Table& t :
         {MakeIndependent(500, 4, 8, 400 + round),
          MakeCorrelated(500, 4, 8, 500 + round),
          MakeAnticorrelated(500, 4, 8, 600 + round)}) {
      const auto bnl = SkylineBnl(t);
      const auto dc = SkylineDivideConquer(t);
      ASSERT_TRUE(bnl.ok());
      ASSERT_TRUE(dc.ok()) << dc.status();
      EXPECT_EQ(bnl.value(), dc.value());
    }
  }
}

TEST(DivideConquerTest, HandlesTieHeavyData) {
  // Constant first attribute: the split degenerates to id order.
  Schema schema;
  schema.AddAttribute("a", 4);
  schema.AddAttribute("b", 4);
  Table t(schema);
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    BAYESCROWD_CHECK_OK(t.AppendRow(
        "o" + std::to_string(i),
        {1, static_cast<Level>(rng.NextBelow(4))}));
  }
  const auto bnl = SkylineBnl(t);
  const auto dc = SkylineDivideConquer(t);
  ASSERT_TRUE(bnl.ok());
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(bnl.value(), dc.value());
}

TEST(DivideConquerTest, RejectsIncompleteTable) {
  EXPECT_FALSE(SkylineDivideConquer(MakeSampleMovieDataset()).ok());
}

}  // namespace
}  // namespace bayescrowd

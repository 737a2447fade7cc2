// Tests for the c-table substrate: expressions, conditions, dominator
// sets and Get-CTable — including the paper's worked examples (Tables 1,
// 3, 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/random.h"
#include "ctable/builder.h"
#include "ctable/condition.h"
#include "ctable/dominator.h"
#include "ctable/expression.h"
#include "ctable/knowledge.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

// ------------------------------------------------------------------ //
// Expression
// ------------------------------------------------------------------ //

TEST(ExpressionTest, VariablesOfVarConst) {
  const Expression e = Expression::VarConst(V(4, 1), CmpOp::kLess, 2);
  EXPECT_EQ(e.Variables().size(), 1u);
  EXPECT_TRUE(e.InvolvesVariable(V(4, 1)));
  EXPECT_FALSE(e.InvolvesVariable(V(4, 2)));
}

TEST(ExpressionTest, VariablesOfVarVar) {
  const Expression e = Expression::VarVar(V(4, 1), CmpOp::kGreater, V(1, 1));
  EXPECT_EQ(e.Variables().size(), 2u);
  EXPECT_TRUE(e.InvolvesVariable(V(4, 1)));
  EXPECT_TRUE(e.InvolvesVariable(V(1, 1)));
}

TEST(ExpressionTest, SubstituteDecidesVarConst) {
  const Expression e = Expression::VarConst(V(0, 0), CmpOp::kLess, 3);
  EXPECT_EQ(e.Substitute(V(0, 0), 2).first, Truth::kTrue);
  EXPECT_EQ(e.Substitute(V(0, 0), 3).first, Truth::kFalse);
  EXPECT_EQ(e.Substitute(V(0, 0), 5).first, Truth::kFalse);
}

TEST(ExpressionTest, SubstituteGreater) {
  const Expression e = Expression::VarConst(V(0, 0), CmpOp::kGreater, 3);
  EXPECT_EQ(e.Substitute(V(0, 0), 4).first, Truth::kTrue);
  EXPECT_EQ(e.Substitute(V(0, 0), 3).first, Truth::kFalse);
}

TEST(ExpressionTest, SubstituteUnrelatedVariableKeepsExpression) {
  const Expression e = Expression::VarConst(V(0, 0), CmpOp::kLess, 3);
  const auto [truth, replacement] = e.Substitute(V(1, 1), 2);
  EXPECT_EQ(truth, Truth::kUnknown);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_TRUE(*replacement == e);
}

TEST(ExpressionTest, SubstituteLhsOfVarVarDegradesToVarConst) {
  // Var(0,0) > Var(1,0), set Var(0,0)=3  ->  Var(1,0) < 3.
  const Expression e = Expression::VarVar(V(0, 0), CmpOp::kGreater, V(1, 0));
  const auto [truth, replacement] = e.Substitute(V(0, 0), 3);
  EXPECT_EQ(truth, Truth::kUnknown);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_FALSE(replacement->rhs_is_var);
  EXPECT_TRUE(replacement->lhs == V(1, 0));
  EXPECT_EQ(replacement->op, CmpOp::kLess);
  EXPECT_EQ(replacement->rhs_const, 3);
}

TEST(ExpressionTest, SubstituteRhsOfVarVarDegradesToVarConst) {
  // Var(0,0) > Var(1,0), set Var(1,0)=2  ->  Var(0,0) > 2.
  const Expression e = Expression::VarVar(V(0, 0), CmpOp::kGreater, V(1, 0));
  const auto [truth, replacement] = e.Substitute(V(1, 0), 2);
  EXPECT_EQ(truth, Truth::kUnknown);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_FALSE(replacement->rhs_is_var);
  EXPECT_TRUE(replacement->lhs == V(0, 0));
  EXPECT_EQ(replacement->op, CmpOp::kGreater);
  EXPECT_EQ(replacement->rhs_const, 2);
}

TEST(ExpressionTest, CanonicalizeMirrorsVarVar) {
  const Expression e = Expression::VarVar(V(5, 1), CmpOp::kGreater, V(1, 1));
  const Expression c = Canonicalize(e);
  EXPECT_TRUE(c.lhs == V(1, 1));
  EXPECT_EQ(c.op, CmpOp::kLess);
  EXPECT_TRUE(c.rhs_var == V(5, 1));
  // Logical equality survives canonicalization.
  EXPECT_TRUE(e == c);
  EXPECT_EQ(e.Key(), c.Key());
}

TEST(ExpressionTest, KeysDistinguishDifferentExpressions) {
  const Expression a = Expression::VarConst(V(0, 0), CmpOp::kLess, 3);
  const Expression b = Expression::VarConst(V(0, 0), CmpOp::kLess, 4);
  const Expression c = Expression::VarConst(V(0, 0), CmpOp::kGreater, 3);
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
}

// ------------------------------------------------------------------ //
// Condition
// ------------------------------------------------------------------ //

Condition SampleCondition() {
  // (A<2 | B<3) & (C>1)  with A=Var(0,0), B=Var(0,1), C=Var(1,0).
  return Condition::Cnf({
      {Expression::VarConst(V(0, 0), CmpOp::kLess, 2),
       Expression::VarConst(V(0, 1), CmpOp::kLess, 3)},
      {Expression::VarConst(V(1, 0), CmpOp::kGreater, 1)},
  });
}

TEST(ConditionTest, ConstantsAreDecided) {
  EXPECT_TRUE(Condition::True().IsTrue());
  EXPECT_TRUE(Condition::False().IsFalse());
  EXPECT_TRUE(Condition::True().IsDecided());
}

TEST(ConditionTest, EmptyCnfIsTrue) {
  EXPECT_TRUE(Condition::Cnf({}).IsTrue());
}

TEST(ConditionTest, EmptyConjunctIsFalse) {
  EXPECT_TRUE(Condition::Cnf({{}}).IsFalse());
}

TEST(ConditionTest, CountsVariablesAndExpressions) {
  const Condition c = SampleCondition();
  EXPECT_EQ(c.NumExpressions(), 3u);
  EXPECT_EQ(c.Variables().size(), 3u);
}

TEST(ConditionTest, IndependentConjunctsDetected) {
  EXPECT_TRUE(SampleCondition().ConjunctsAreIndependent());
  const Condition shared = Condition::Cnf({
      {Expression::VarConst(V(0, 0), CmpOp::kLess, 2)},
      {Expression::VarConst(V(0, 0), CmpOp::kGreater, 0)},
  });
  EXPECT_FALSE(shared.ConjunctsAreIndependent());
}

TEST(ConditionTest, ConjunctComponents) {
  // Conjuncts 0 and 1 share Var(0,0); conjunct 2 is separate.
  const Condition c = Condition::Cnf({
      {Expression::VarConst(V(0, 0), CmpOp::kLess, 2)},
      {Expression::VarConst(V(0, 0), CmpOp::kGreater, 0),
       Expression::VarConst(V(0, 1), CmpOp::kLess, 1)},
      {Expression::VarConst(V(2, 2), CmpOp::kGreater, 3)},
  });
  auto components = c.ConjunctComponents();
  ASSERT_EQ(components.size(), 2u);
  std::size_t sizes[2] = {components[0].size(), components[1].size()};
  std::sort(sizes, sizes + 2);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(ConditionTest, MostFrequentVariable) {
  const Condition c = Condition::Cnf({
      {Expression::VarConst(V(0, 0), CmpOp::kLess, 2),
       Expression::VarConst(V(0, 1), CmpOp::kLess, 3)},
      {Expression::VarConst(V(0, 0), CmpOp::kGreater, 0)},
  });
  EXPECT_TRUE(c.MostFrequentVariable() == V(0, 0));
}

TEST(ConditionTest, SubstituteSatisfiesConjunct) {
  // Setting C=2 satisfies the second conjunct of SampleCondition.
  const Condition after = SampleCondition().SubstituteVariable(V(1, 0), 2);
  ASSERT_FALSE(after.IsDecided());
  EXPECT_EQ(after.conjuncts().size(), 1u);
}

TEST(ConditionTest, SubstituteFalsifiesCondition) {
  // Setting C=1 falsifies the singleton conjunct (C>1).
  const Condition after = SampleCondition().SubstituteVariable(V(1, 0), 1);
  EXPECT_TRUE(after.IsFalse());
}

TEST(ConditionTest, SubstituteToTrue) {
  Condition c = SampleCondition();
  c = c.SubstituteVariable(V(0, 0), 0);  // A<2 true: first conjunct gone.
  c = c.SubstituteVariable(V(1, 0), 3);  // C>1 true: second gone.
  EXPECT_TRUE(c.IsTrue());
}

TEST(ConditionTest, SimplifyWithOracle) {
  const Expression target = Expression::VarConst(V(1, 0), CmpOp::kGreater, 1);
  const Condition after =
      SampleCondition().SimplifyWith([&target](const Expression& e) {
        return (e == target) ? Truth::kTrue : Truth::kUnknown;
      });
  ASSERT_FALSE(after.IsDecided());
  EXPECT_EQ(after.conjuncts().size(), 1u);
  EXPECT_EQ(after.NumExpressions(), 2u);
}

TEST(ConditionTest, SimplifyDropsFalseExpressions) {
  const Expression target = Expression::VarConst(V(0, 0), CmpOp::kLess, 2);
  const Condition after =
      SampleCondition().SimplifyWith([&target](const Expression& e) {
        return (e == target) ? Truth::kFalse : Truth::kUnknown;
      });
  ASSERT_FALSE(after.IsDecided());
  EXPECT_EQ(after.NumExpressions(), 2u);  // B<3 and C>1 remain.
}


// The copy-and-rebuild re-simplification: every conjunct reduced into a
// fresh vector, then the CNF rebuilt. The reference for Simplify.
Condition RebuiltSimplification(
    const Condition& condition,
    const std::function<Truth(const Expression&)>& evaluate) {
  if (condition.IsDecided()) return condition;
  std::vector<Conjunct> next;
  for (const Conjunct& conjunct : condition.conjuncts()) {
    Conjunct reduced;
    bool satisfied = false;
    for (const Expression& e : conjunct) {
      const Truth truth = evaluate(e);
      if (truth == Truth::kTrue) {
        satisfied = true;
        break;
      }
      if (truth == Truth::kUnknown) reduced.push_back(e);
    }
    if (satisfied) continue;
    if (reduced.empty()) return Condition::False();
    next.push_back(std::move(reduced));
  }
  return Condition::Cnf(std::move(next));
}

TEST(ConditionTest, SimplifyInPlaceMatchesSimplifyWith) {
  Rng rng(0x51A9F1);
  // Four objects × two attributes and constants 0..3: expressions repeat
  // inside conjuncts and across them.
  const auto random_var = [&rng] {
    return V(rng.NextBelow(4), rng.NextBelow(2));
  };
  const auto random_expression = [&rng, &random_var] {
    const CmpOp op = rng.NextBool(0.5) ? CmpOp::kLess : CmpOp::kGreater;
    if (rng.NextBool(0.5)) {
      return Expression::VarConst(random_var(), op, rng.NextInt(0, 3));
    }
    return Expression::VarVar(random_var(), op, random_var());
  };
  using Oracle =
      std::unordered_map<PackedExpr, Truth, PackedExprHash>;
  const auto check = [](const Condition& before, const Oracle& truths) {
    const std::function<Truth(const Expression&)> evaluate =
        [&truths](const Expression& e) {
          const auto it = truths.find(e.PackedKey());
          return it == truths.end() ? Truth::kUnknown : it->second;
        };
    const Condition reference = RebuiltSimplification(before, evaluate);
    Condition in_place = before;
    const bool changed = in_place.Simplify(evaluate);
    EXPECT_TRUE(in_place == reference);
    EXPECT_TRUE(in_place == before.SimplifyWith(evaluate));
    EXPECT_EQ(in_place.Fingerprint(), reference.Fingerprint());
    EXPECT_EQ(in_place.IsDecided(), in_place.conjuncts().empty());
    EXPECT_EQ(changed, !(before == in_place));
    return in_place;
  };

  std::size_t to_false = 0, to_true = 0, changed = 0, unchanged = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Conjunct> conjuncts(1 + rng.NextBelow(8));
    for (Conjunct& conjunct : conjuncts) {
      conjunct.resize(1 + rng.NextBelow(4));
      for (Expression& e : conjunct) e = random_expression();
    }
    const Condition before = Condition::Cnf(conjuncts);
    ASSERT_FALSE(before.IsDecided());

    // A random three-valued oracle: one answer per distinct expression,
    // so repeats agree.
    Oracle random;
    for (const Conjunct& conjunct : conjuncts) {
      for (const Expression& e : conjunct) {
        const double u = rng.NextDouble();
        random.emplace(e.PackedKey(), u < 0.15   ? Truth::kTrue
                                      : u < 0.45 ? Truth::kFalse
                                                 : Truth::kUnknown);
      }
    }
    const Condition after = check(before, random);
    if (after.IsFalse()) ++to_false;
    if (after.IsTrue()) ++to_true;
    if (after == before) {
      ++unchanged;
    } else {
      ++changed;
    }

    // Every expression of one conjunct false: the condition is False.
    Oracle empties;
    for (const Expression& e : conjuncts[rng.NextBelow(conjuncts.size())]) {
      empties[e.PackedKey()] = Truth::kFalse;
    }
    EXPECT_TRUE(check(before, empties).IsFalse());

    // The first expression of every conjunct true: the condition is True.
    Oracle satisfies;
    for (const Conjunct& conjunct : conjuncts) {
      satisfies[conjunct.front().PackedKey()] = Truth::kTrue;
    }
    EXPECT_TRUE(check(before, satisfies).IsTrue());

    // The all-unknown oracle changes nothing.
    EXPECT_TRUE(check(before, {}) == before);
  }
  // The random oracles reach every outcome.
  EXPECT_GT(to_false, 0u);
  EXPECT_GT(to_true, 0u);
  EXPECT_GT(changed, to_false + to_true);
  EXPECT_GT(unchanged, 0u);

  // A decided condition is left alone and reports no change.
  for (Condition decided : {Condition::True(), Condition::False()}) {
    const Condition copy = decided;
    EXPECT_FALSE(decided.Simplify([](const Expression&) {
      return Truth::kUnknown;
    }));
    EXPECT_TRUE(decided == copy);
  }
}

TEST(ConditionTest, SubstituteOnDecidedConditionIsIdentity) {
  EXPECT_TRUE(Condition::True().SubstituteVariable(V(0, 0), 1).IsTrue());
  EXPECT_TRUE(Condition::False().SubstituteVariable(V(0, 0), 1).IsFalse());
  EXPECT_TRUE(Condition::True()
                  .SimplifyWith([](const Expression&) {
                    return Truth::kFalse;  // Must be ignored.
                  })
                  .IsTrue());
}

TEST(ConditionTest, VariableFrequencyCounts) {
  const Condition c = Condition::Cnf({
      {Expression::VarConst(V(0, 0), CmpOp::kLess, 2),
       Expression::VarVar(V(0, 0), CmpOp::kGreater, V(1, 0))},
      {Expression::VarConst(V(0, 0), CmpOp::kGreater, 0)},
  });
  EXPECT_EQ(c.VariableFrequency(V(0, 0)), 3u);
  EXPECT_EQ(c.VariableFrequency(V(1, 0)), 1u);
  EXPECT_EQ(c.VariableFrequency(V(9, 9)), 0u);
}

TEST(ConditionTest, PackedKeysMatchStringKeys) {
  // Two expressions share a PackedKey iff they share a Key.
  Rng rng(808);
  std::vector<Expression> pool;
  for (int i = 0; i < 40; ++i) {
    const CellRef a = {rng.NextBelow(3), rng.NextBelow(2)};
    CellRef b = {rng.NextBelow(3), rng.NextBelow(2)};
    const CmpOp op = rng.NextBool(0.5) ? CmpOp::kGreater : CmpOp::kLess;
    if (rng.NextBool(0.5) && !(a == b)) {
      pool.push_back(Expression::VarVar(a, op, b));
    } else {
      pool.push_back(Expression::VarConst(
          a, op, static_cast<Level>(rng.NextBelow(4))));
    }
  }
  for (const Expression& x : pool) {
    for (const Expression& y : pool) {
      EXPECT_EQ(x.Key() == y.Key(), x.PackedKey() == y.PackedKey())
          << x.Key() << " vs " << y.Key();
    }
  }
}

// ------------------------------------------------------------------ //
// Dominator sets: the paper's Table 4.
// ------------------------------------------------------------------ //

TEST(DominatorTest, SampleDatasetMatchesPaperTable4) {
  const Table table = MakeSampleMovieDataset();
  const auto result = ComputeDominatorSets(table, /*alpha=*/-1.0);
  ASSERT_TRUE(result.ok());
  const DominatorSets& sets = result.value();
  EXPECT_EQ(sets.dominators[0], (std::vector<std::uint32_t>{4}));  // {o5}
  EXPECT_TRUE(sets.dominators[1].empty());                         // ∅
  EXPECT_TRUE(sets.dominators[2].empty());                         // ∅
  EXPECT_EQ(sets.dominators[3], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(sets.dominators[4], (std::vector<std::uint32_t>{0, 1}));
}

TEST(DominatorTest, BaselineAgreesWithFastOnSampleDataset) {
  const Table table = MakeSampleMovieDataset();
  const auto fast = ComputeDominatorSets(table, -1.0);
  const auto base = ComputeDominatorSetsBaseline(table, -1.0);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(fast->dominators, base->dominators);
}

TEST(DominatorTest, FastEqualsBaselineOnRandomIncompleteData) {
  Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    const Table complete =
        MakeIndependent(60, 4, 6, /*seed=*/1000 + round);
    Rng inject_rng(round);
    const Table table = InjectMissingUniform(complete, 0.2, inject_rng);
    const auto fast = ComputeDominatorSets(table, -1.0);
    const auto base = ComputeDominatorSetsBaseline(table, -1.0);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(fast->dominators, base->dominators) << "round " << round;
  }
}

TEST(DominatorTest, PruningFlagsLargeSets) {
  // alpha=0: any non-empty dominator set is pruned.
  const Table table = MakeSampleMovieDataset();
  const auto result = ComputeDominatorSets(table, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->pruned[0]);
  EXPECT_FALSE(result->pruned[1]);
  EXPECT_FALSE(result->pruned[2]);
  EXPECT_TRUE(result->pruned[3]);
  EXPECT_TRUE(result->pruned[4]);
}

// ------------------------------------------------------------------ //
// Get-CTable: the paper's Table 3.
// ------------------------------------------------------------------ //

TEST(BuilderTest, SampleDatasetMatchesPaperTable3) {
  const Table table = MakeSampleMovieDataset();
  const auto result = BuildCTable(table, {.alpha = -1.0});
  ASSERT_TRUE(result.ok());
  const CTable& ctable = result.value();

  // φ(o2) = φ(o3) = true.
  EXPECT_TRUE(ctable.condition(1).IsTrue());
  EXPECT_TRUE(ctable.condition(2).IsTrue());

  // φ(o1) = Var(o5,a2)<2 | Var(o5,a3)<3 | Var(o5,a4)<4.
  const Condition& phi1 = ctable.condition(0);
  ASSERT_EQ(phi1.conjuncts().size(), 1u);
  const Conjunct expected1 = {
      Expression::VarConst(V(4, 1), CmpOp::kLess, 2),
      Expression::VarConst(V(4, 2), CmpOp::kLess, 3),
      Expression::VarConst(V(4, 3), CmpOp::kLess, 4),
  };
  ASSERT_EQ(phi1.conjuncts()[0].size(), expected1.size());
  for (std::size_t i = 0; i < expected1.size(); ++i) {
    EXPECT_TRUE(phi1.conjuncts()[0][i] == expected1[i]) << i;
  }

  // φ(o4) = (Var(o2,a2)<3) & (Var(o5,a2)<3 | Var(o5,a3)<1 | Var(o5,a4)<2).
  const Condition& phi4 = ctable.condition(3);
  ASSERT_EQ(phi4.conjuncts().size(), 2u);
  EXPECT_EQ(phi4.conjuncts()[0].size(), 1u);
  EXPECT_TRUE(phi4.conjuncts()[0][0] ==
              Expression::VarConst(V(1, 1), CmpOp::kLess, 3));
  EXPECT_EQ(phi4.conjuncts()[1].size(), 3u);

  // φ(o5) = (Var(o5,a2)>2 | Var(o5,a3)>3 | Var(o5,a4)>4)
  //       & (Var(o5,a2)>Var(o2,a2) | Var(o5,a3)>2 | Var(o5,a4)>2).
  const Condition& phi5 = ctable.condition(4);
  ASSERT_EQ(phi5.conjuncts().size(), 2u);
  EXPECT_EQ(phi5.conjuncts()[0].size(), 3u);
  EXPECT_TRUE(phi5.conjuncts()[0][0] ==
              Expression::VarConst(V(4, 1), CmpOp::kGreater, 2));
  EXPECT_EQ(phi5.conjuncts()[1].size(), 3u);
  EXPECT_TRUE(phi5.conjuncts()[1][0] ==
              Expression::VarVar(V(4, 1), CmpOp::kGreater, V(1, 1)));
}

TEST(BuilderTest, CompleteDominatedObjectGetsFalse) {
  Schema schema;
  schema.AddAttribute("a", 10);
  schema.AddAttribute("b", 10);
  Table table(schema);
  ASSERT_TRUE(table.AppendRow("low", {1, 1}).ok());
  ASSERT_TRUE(table.AppendRow("high", {5, 5}).ok());
  const auto result = BuildCTable(table, {.alpha = -1.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->condition(0).IsFalse());
  EXPECT_TRUE(result->condition(1).IsTrue());
}

TEST(BuilderTest, OnlyADominatorInEveryWorldFalsifies) {
  Schema schema;
  schema.AddAttribute("a", 10);
  schema.AddAttribute("b", 10);
  Table table(schema);
  ASSERT_TRUE(table.AppendRow("o0", {5, 5}).ok());
  ASSERT_TRUE(table.AppendRow("dup", {5, 5}).ok());
  ASSERT_TRUE(table.AppendRow("loses_a", {4, 9}).ok());
  ASSERT_TRUE(table.AppendRow("maybe", {5, kMissingLevel}).ok());
  ASSERT_TRUE(table.AppendRow("beats", {7, 7}).ok());
  ASSERT_TRUE(table.AppendRow("top_b", {kMissingLevel, 9}).ok());
  ASSERT_TRUE(table.AppendRow("zero_a", {0, kMissingLevel}).ok());
  // An exact duplicate never strictly dominates, and a list member that
  // o0 beats on an observed attribute is no dominator: φ stays true.
  EXPECT_TRUE(BuildCondition(table, 0, {1}).IsTrue());
  EXPECT_TRUE(BuildCondition(table, 0, {2}).IsTrue());
  EXPECT_TRUE(BuildCondition(table, 0, {1, 2}).IsTrue());
  // "maybe" dominates o0 only in worlds where its b is at least 5.
  const Condition uncertain = BuildCondition(table, 0, {1, 2, 3});
  ASSERT_EQ(uncertain.conjuncts().size(), 1u);
  EXPECT_TRUE(uncertain.conjuncts()[0][0] ==
              Expression::VarConst(V(3, 1), CmpOp::kLess, 5));
  // One dominator in every world decides the object, wherever it sits
  // in the list.
  EXPECT_TRUE(BuildCondition(table, 0, {1, 2, 3, 4}).IsFalse());
  EXPECT_TRUE(BuildCondition(table, 0, {4, 3}).IsFalse());
  // So does one whose comparisons with missing cells are unsatisfiable:
  // nothing is below level 0 on a, and nothing above the top of b.
  EXPECT_TRUE(BuildCondition(table, 6, {5}).IsFalse());
}

TEST(BuilderTest, AlphaPruningProducesFalse) {
  const Table table = MakeSampleMovieDataset();
  const auto result = BuildCTable(table, {.alpha = 0.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->condition(0).IsFalse());
  EXPECT_TRUE(result->condition(1).IsTrue());
  EXPECT_TRUE(result->condition(3).IsFalse());
}

TEST(BuilderTest, FastAndBaselinePathsAgree) {
  Rng rng(7);
  const Table complete = MakeCorrelated(80, 5, 8, 99);
  const Table table = InjectMissingUniform(complete, 0.15, rng);
  const auto fast = BuildCTable(table, {.alpha = 0.2});
  const auto sets = ComputeDominatorSetsBaseline(table, 0.2);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(sets.ok());
  const auto base = BuildConditions(table, *sets);
  ASSERT_TRUE(base.ok());
  for (std::size_t i = 0; i < table.num_objects(); ++i) {
    EXPECT_TRUE(fast->condition(i) == base->condition(i)) << "object " << i;
  }
}

// ------------------------------------------------------------------ //
// KnowledgeBase
// ------------------------------------------------------------------ //

class KnowledgeTest : public ::testing::Test {
 protected:
  KnowledgeTest() : schema_(MakeSampleMovieDataset().schema()), kb_(schema_) {}

  Schema schema_;
  KnowledgeBase kb_;
};

TEST_F(KnowledgeTest, DefaultBoundsSpanDomain) {
  const auto [lo, hi] = kb_.Bounds(V(4, 1));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 9);
  EXPECT_FALSE(kb_.IsPinned(V(4, 1)));
}

TEST_F(KnowledgeTest, RestrictLessNarrowsUpperBound) {
  ASSERT_TRUE(kb_.RestrictLess(V(4, 3), 4).ok());
  const auto [lo, hi] = kb_.Bounds(V(4, 3));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
}

TEST_F(KnowledgeTest, RestrictEqualPins) {
  ASSERT_TRUE(kb_.RestrictEqual(V(4, 2), 3).ok());
  Level value = -1;
  EXPECT_TRUE(kb_.IsPinned(V(4, 2), &value));
  EXPECT_EQ(value, 3);
}

TEST_F(KnowledgeTest, ImpossibleRestrictionsRejected) {
  EXPECT_FALSE(kb_.RestrictLess(V(0, 0), 0).ok());
  EXPECT_FALSE(kb_.RestrictGreater(V(0, 0), 9).ok());
  EXPECT_FALSE(kb_.RestrictEqual(V(0, 0), 10).ok());
}

TEST_F(KnowledgeTest, ConflictResolvedNewestWins) {
  ASSERT_TRUE(kb_.RestrictGreater(V(0, 0), 5).ok());  // [6, 9]
  ASSERT_TRUE(kb_.RestrictLess(V(0, 0), 3).ok());     // Conflicts.
  const auto [lo, hi] = kb_.Bounds(V(0, 0));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 2);  // Newest fact kept.
}

TEST_F(KnowledgeTest, EvaluateVarConstAgainstInterval) {
  ASSERT_TRUE(kb_.RestrictEqual(V(4, 2), 3).ok());
  // Paper Example 4: Var(o5,a3)=3 decides <1 (false), >2 (true), >3
  // (false) at once.
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 2), CmpOp::kLess, 1)),
            Truth::kFalse);
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 2), CmpOp::kGreater, 2)),
            Truth::kTrue);
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 2), CmpOp::kGreater, 3)),
            Truth::kFalse);
}

TEST_F(KnowledgeTest, EvaluatePartialIntervalIsUnknown) {
  ASSERT_TRUE(kb_.RestrictLess(V(4, 3), 4).ok());  // [0, 3]
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 3), CmpOp::kLess, 4)),
            Truth::kTrue);
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 3), CmpOp::kLess, 2)),
            Truth::kUnknown);
  EXPECT_EQ(kb_.Evaluate(Expression::VarConst(V(4, 3), CmpOp::kGreater, 3)),
            Truth::kFalse);
}

TEST_F(KnowledgeTest, EvaluateVarVarFromOrderFact) {
  ASSERT_TRUE(kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kGreater).ok());
  EXPECT_EQ(kb_.Evaluate(Expression::VarVar(V(4, 1), CmpOp::kGreater,
                                            V(1, 1))),
            Truth::kTrue);
  EXPECT_EQ(kb_.Evaluate(Expression::VarVar(V(1, 1), CmpOp::kGreater,
                                            V(4, 1))),
            Truth::kFalse);
  EXPECT_EQ(kb_.Evaluate(Expression::VarVar(V(1, 1), CmpOp::kLess, V(4, 1))),
            Truth::kTrue);
}

TEST_F(KnowledgeTest, EvaluateVarVarFromDisjointIntervals) {
  ASSERT_TRUE(kb_.RestrictGreater(V(0, 0), 5).ok());  // [6, 9]
  ASSERT_TRUE(kb_.RestrictLess(V(1, 0), 4).ok());     // [0, 3]
  EXPECT_EQ(kb_.Evaluate(Expression::VarVar(V(0, 0), CmpOp::kGreater,
                                            V(1, 0))),
            Truth::kTrue);
}

TEST_F(KnowledgeTest, ReRecordingSameOrderIsIdempotent) {
  ASSERT_TRUE(kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kGreater).ok());
  EXPECT_TRUE(kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kGreater).ok());
  // The mirrored statement of the same fact is also idempotent.
  EXPECT_TRUE(kb_.RecordVarOrder(V(1, 1), V(4, 1), Ordering::kLess).ok());
  EXPECT_EQ(kb_.num_order_facts(), 1u);
}

TEST_F(KnowledgeTest, ContradictoryOrderRejectedAndStoredFactKept) {
  ASSERT_TRUE(kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kGreater).ok());
  const Status direct =
      kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kLess);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.IsInvalidArgument());
  // The framework arbitrates on this exact prefix (counts the conflict
  // and keeps going instead of aborting the query).
  EXPECT_EQ(direct.message().rfind("contradictory var-var fact", 0), 0u)
      << direct.message();

  // The mirrored contradiction (b > a after a > b) is caught too.
  const Status mirrored =
      kb_.RecordVarOrder(V(1, 1), V(4, 1), Ordering::kGreater);
  ASSERT_FALSE(mirrored.ok());
  EXPECT_TRUE(mirrored.IsInvalidArgument());

  const Status equal = kb_.RecordVarOrder(V(4, 1), V(1, 1), Ordering::kEqual);
  ASSERT_FALSE(equal.ok());
  EXPECT_TRUE(equal.IsInvalidArgument());

  // Stored fact survives every rejected update.
  EXPECT_EQ(kb_.num_order_facts(), 1u);
  EXPECT_EQ(kb_.Evaluate(Expression::VarVar(V(4, 1), CmpOp::kGreater,
                                            V(1, 1))),
            Truth::kTrue);
}

TEST_F(KnowledgeTest, ConditionDistributionRenormalizes) {
  ASSERT_TRUE(kb_.RestrictLess(V(4, 3), 4).ok());  // a4 in [0,3]
  const std::vector<double> raw = {0.1, 0.1, 0.2, 0.2, 0.3, 0.1};
  const auto conditioned = kb_.ConditionDistribution(V(4, 3), raw);
  ASSERT_EQ(conditioned.size(), raw.size());
  EXPECT_DOUBLE_EQ(conditioned[4], 0.0);
  EXPECT_DOUBLE_EQ(conditioned[5], 0.0);
  double total = 0.0;
  for (double p : conditioned) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(conditioned[2], 0.2 / 0.6, 1e-12);
}

}  // namespace
}  // namespace bayescrowd

// Tests for complete-data skyline algorithms and result metrics.

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "skyline/metrics.h"

namespace bayescrowd {
namespace {

Table MoviesExample() {
  // The paper's intro example: m1=(3,2,1), m2=(4,2,3), m3=(2,3,2);
  // skyline = {m2, m3}.
  Schema schema;
  schema.AddAttribute("r1", 6);
  schema.AddAttribute("r2", 6);
  schema.AddAttribute("r3", 6);
  Table t(schema);
  BAYESCROWD_CHECK_OK(t.AppendRow("m1", {3, 2, 1}));
  BAYESCROWD_CHECK_OK(t.AppendRow("m2", {4, 2, 3}));
  BAYESCROWD_CHECK_OK(t.AppendRow("m3", {2, 3, 2}));
  return t;
}

TEST(DominanceTest, IntroExample) {
  const Table t = MoviesExample();
  EXPECT_TRUE(Dominates(t, 1, 0));   // m2 dominates m1.
  EXPECT_FALSE(Dominates(t, 0, 1));
  EXPECT_FALSE(Dominates(t, 1, 2));
  EXPECT_FALSE(Dominates(t, 2, 1));
}

TEST(DominanceTest, EqualRowsDoNotDominate) {
  EXPECT_FALSE(Dominates({1, 2, 3}, {1, 2, 3}));
  EXPECT_TRUE(Dominates({1, 2, 4}, {1, 2, 3}));
  EXPECT_FALSE(Dominates({1, 2, 3}, {0, 4, 0}));
}

TEST(SkylineTest, IntroExampleSkyline) {
  const auto bnl = SkylineBnl(MoviesExample());
  ASSERT_TRUE(bnl.ok());
  EXPECT_EQ(bnl.value(), (std::vector<std::size_t>{1, 2}));
}

TEST(SkylineTest, BnlAndSfsAgreeOnRandomData) {
  for (int round = 0; round < 8; ++round) {
    for (const Table& t :
         {MakeIndependent(300, 4, 8, 100 + round),
          MakeCorrelated(300, 4, 8, 200 + round),
          MakeAnticorrelated(300, 4, 8, 300 + round)}) {
      const auto bnl = SkylineBnl(t);
      const auto sfs = SkylineSfs(t);
      ASSERT_TRUE(bnl.ok());
      ASSERT_TRUE(sfs.ok());
      EXPECT_EQ(bnl.value(), sfs.value());
    }
  }
}

TEST(SkylineTest, SkylineMembersAreNotDominated) {
  const Table t = MakeIndependent(400, 3, 10, 9);
  const auto skyline = SkylineBnl(t);
  ASSERT_TRUE(skyline.ok());
  for (std::size_t s : skyline.value()) {
    for (std::size_t p = 0; p < t.num_objects(); ++p) {
      EXPECT_FALSE(Dominates(t, p, s));
    }
  }
  // And every non-member is dominated by someone.
  std::vector<bool> in_skyline(t.num_objects(), false);
  for (std::size_t s : skyline.value()) in_skyline[s] = true;
  for (std::size_t o = 0; o < t.num_objects(); ++o) {
    if (in_skyline[o]) continue;
    bool dominated = false;
    for (std::size_t p = 0; p < t.num_objects() && !dominated; ++p) {
      dominated = Dominates(t, p, o);
    }
    EXPECT_TRUE(dominated) << "object " << o;
  }
}

TEST(SkylineTest, AnticorrelatedHasMoreSkylinePointsThanCorrelated) {
  const auto corr = SkylineBnl(MakeCorrelated(1000, 5, 10, 11));
  const auto anti = SkylineBnl(MakeAnticorrelated(1000, 5, 10, 11));
  ASSERT_TRUE(corr.ok());
  ASSERT_TRUE(anti.ok());
  EXPECT_GT(anti->size(), corr->size());
}

TEST(SkylineTest, RejectsIncompleteTable) {
  EXPECT_FALSE(SkylineBnl(MakeSampleMovieDataset()).ok());
  EXPECT_FALSE(SkylineSfs(MakeSampleMovieDataset()).ok());
}

TEST(MetricsTest, PerfectMatch) {
  const auto m = EvaluateResultSet({1, 2, 3}, {3, 2, 1});
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_EQ(m.true_positives, 3u);
}

TEST(MetricsTest, PartialOverlap) {
  const auto m = EvaluateResultSet({1, 2}, {2, 3});
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
}

TEST(MetricsTest, EmptySets) {
  EXPECT_DOUBLE_EQ(EvaluateResultSet({}, {}).f1, 1.0);
  EXPECT_DOUBLE_EQ(EvaluateResultSet({}, {1}).f1, 0.0);
  EXPECT_DOUBLE_EQ(EvaluateResultSet({1}, {}).f1, 0.0);
}

}  // namespace
}  // namespace bayescrowd

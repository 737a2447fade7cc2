// QuerySpec: one reader, one default set and one canonical dump for the
// query both frontends run, plus the builders they share (posterior
// model, simulated crowd, dataset dispatch).

#include "core/query_spec.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bayesnet/structure_learning.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

using obs::JsonValue;

JsonValue Doc(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  BAYESCROWD_CHECK_OK(parsed.status());
  return std::move(parsed).value();
}

Status ParseError(const std::string& text,
                  KeyStyle style = KeyStyle::kJson) {
  return ParseQuerySpec(Doc(text), {}, style).status();
}

TEST(QuerySpecTest, DefaultsAreTheLibraryDefaults) {
  const auto spec = ParseQuerySpec(JsonValue::Object());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const BayesCrowdOptions library;
  const BayesCrowdOptions& options = spec->options;
  EXPECT_EQ(options.strategy.kind, library.strategy.kind);
  EXPECT_EQ(options.budget, library.budget);
  EXPECT_EQ(options.latency, library.latency);
  EXPECT_EQ(options.ctable.alpha, library.ctable.alpha);
  EXPECT_EQ(options.strategy.m, library.strategy.m);
  EXPECT_EQ(options.strategy.pessimistic, library.strategy.pessimistic);
  EXPECT_EQ(options.breaker_threshold, library.breaker_threshold);
  const GovernorOptions& governor = options.probability.governor;
  const GovernorOptions& library_governor = library.probability.governor;
  EXPECT_EQ(governor.max_nodes, library_governor.max_nodes);
  EXPECT_EQ(governor.max_components, library_governor.max_components);
  EXPECT_EQ(governor.deadline_ms, library_governor.deadline_ms);
  EXPECT_EQ(governor.ladder, library_governor.ladder);
  EXPECT_EQ(governor.interval_samples, library_governor.interval_samples);
  EXPECT_EQ(governor.confidence_z, library_governor.confidence_z);
  EXPECT_FALSE(options.adaptive.enabled);
  EXPECT_EQ(spec->structure, PosteriorStructure::kHillClimb);
  EXPECT_FALSE(spec->use_marketplace);
  const SimulatedPlatformOptions flat;
  EXPECT_EQ(spec->flat.worker_accuracy, flat.worker_accuracy);
  EXPECT_EQ(spec->flat.seed, flat.seed);
  EXPECT_EQ(spec->flat.workers_per_task, flat.workers_per_task);
}

TEST(QuerySpecTest, EveryKeyReachesItsField) {
  const auto spec = ParseQuerySpec(Doc(
      R"({"strategy":"ubs","budget":24,"latency":4,"alpha":-1,"m":5,)"
      R"("pessimistic":true,"breaker_threshold":2,"solver_node_budget":4,)"
      R"("solver_component_budget":9,"solver_deadline_ms":30,)"
      R"("solver_ladder":"strict",)"
      R"("structure":"chowliu","seed":11,"marketplace":20,)"
      R"("spam_rate":0.3,"adaptive_votes":5,"no_defense":true})"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const BayesCrowdOptions& options = spec->options;
  EXPECT_EQ(options.strategy.kind, StrategyKind::kUbs);
  EXPECT_EQ(options.budget, 24u);
  EXPECT_EQ(options.latency, 4u);
  EXPECT_EQ(options.ctable.alpha, -1.0);
  EXPECT_EQ(options.strategy.m, 5u);
  EXPECT_TRUE(options.strategy.pessimistic);
  EXPECT_EQ(options.breaker_threshold, 2u);
  EXPECT_EQ(options.probability.governor.max_nodes, 4u);
  EXPECT_EQ(options.probability.governor.max_components, 9u);
  EXPECT_EQ(options.probability.governor.deadline_ms, 30);
  EXPECT_EQ(options.probability.governor.ladder, LadderMode::kStrict);
  EXPECT_EQ(spec->structure, PosteriorStructure::kChowLiu);
  ASSERT_TRUE(spec->use_marketplace);
  EXPECT_EQ(spec->market.pool_size, 20u);
  EXPECT_EQ(spec->market.seed, 11u);
  EXPECT_EQ(spec->market.spam_rate, 0.3);
  EXPECT_EQ(spec->market.max_votes, 5);
  EXPECT_FALSE(spec->market.defend);
  EXPECT_TRUE(options.adaptive.enabled);
  EXPECT_EQ(options.adaptive.base_votes, 3u);
  EXPECT_EQ(options.adaptive.max_votes, 5u);
}

TEST(QuerySpecTest, TasksPerRoundIsTheLatencyThatYieldsIt) {
  const auto spec = ParseQuerySpec(Doc(R"({"budget":12,"tasks_per_round":5})"));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->options.latency, 3u);  // ceil(12 / 5).
  EXPECT_EQ(QuerySpecToJson(*spec).Find("latency")->AsInt(), 3);
  EXPECT_EQ(QuerySpecToJson(*spec).Find("tasks_per_round"), nullptr);
}

TEST(QuerySpecTest, RejectionsNameTheKeyInEitherSpelling) {
  struct Case {
    const char* doc;
    const char* json;
    const char* flag;
  };
  const Case cases[] = {
      {R"({"budegt":40})", "unknown key 'budegt'", "unknown flag --budegt"},
      // Retired keys are unknown like any other.
      {R"({"compile":"auto"})", "unknown key 'compile'",
       "unknown flag --compile"},
      {R"({"compile_node_budget":64})", "unknown key 'compile_node_budget'",
       "unknown flag --compile-node-budget"},
      {R"({"budget":-3})", "'budget' must be an integer in [0, 1000000000]",
       "--budget must be an integer in [0, 1000000000]"},
      {R"({"latency":2.5})", "'latency' must be an integer",
       "--latency must be an integer"},
      {R"({"m":18446744073709551616})", "'m' must be an integer >= 0",
       "--m must be an integer >= 0"},
      {R"({"alpha":"x"})", "'alpha' must be a number in [-1, 1]",
       "--alpha must be a number in [-1, 1]"},
      {R"({"strategy":"dfs"})", "'strategy' must be one of fbs|ubs|hhs",
       "--strategy must be one of fbs|ubs|hhs"},
      {R"({"no_defense":1,"marketplace":5})",
       "'no_defense' must be true or false",
       "--no-defense must be true or false"},
      {R"({"marketplace":{"pool_size":20}})",
       "'marketplace' must be an integer",
       "--marketplace must be an integer"},
      {R"({"spam_rate":0.3})", "'spam_rate' needs 'marketplace'",
       "--spam-rate needs --marketplace"},
      {R"({"marketplace":20,"accuracy":0.9})",
       "'accuracy' cannot be combined with 'marketplace'",
       "--accuracy cannot be combined with --marketplace"},
      {R"({"latency":3,"tasks_per_round":2})",
       "'tasks_per_round' cannot be combined with 'latency'",
       "--tasks-per-round cannot be combined with --latency"},
  };
  for (const Case& c : cases) {
    for (const KeyStyle style : {KeyStyle::kJson, KeyStyle::kFlag}) {
      const Status status = ParseError(c.doc, style);
      ASSERT_TRUE(status.IsInvalidArgument()) << c.doc;
      const char* expected = style == KeyStyle::kJson ? c.json : c.flag;
      EXPECT_NE(status.message().find(expected), std::string::npos)
          << c.doc << " -> " << status.message();
      EXPECT_EQ(status.message().find('\n'), std::string::npos);
    }
  }
  EXPECT_TRUE(ParseQuerySpec(JsonValue(5)).status().IsInvalidArgument());
}

TEST(QuerySpecTest, FrontendKeysAreCheckedButLeftToTheCaller) {
  constexpr KeyDef kFrontend[] = {{"id", KeyKind::kString},
                                  {"dataset", KeyKind::kObject}};
  EXPECT_TRUE(
      ParseQuerySpec(Doc(R"({"id":"s1","dataset":{},"budget":3})"), {kFrontend})
          .ok());
  const Status wrong =
      ParseQuerySpec(Doc(R"({"id":7})"), {kFrontend}).status();
  EXPECT_NE(wrong.message().find("'id' must be a string"), std::string::npos);
  constexpr KeyDef kBlock[] = {{"n", KeyKind::kInt, 1, 10}};
  const Status nested = CheckKeys(Doc(R"({"n":11})"), {kBlock},
                                  KeyStyle::kJson, "dataset.");
  EXPECT_NE(nested.message().find("'dataset.n' must be an integer in [1, 10]"),
            std::string::npos)
      << nested.message();
}

TEST(QuerySpecTest, DumpRoundTripsAndCoversEveryKey) {
  const char* docs[] = {
      "{}",
      R"({"strategy":"fbs","budget":7,"alpha":0.25,"accuracy":0.8,"seed":3,)"
      R"("solver_node_budget":4,"solver_component_budget":2,)"
      R"("solver_deadline_ms":9,"pessimistic":true,"structure":"none"})",
      R"({"marketplace":12,"spam_rate":0.1,"adaptive_votes":3,)"
      R"("no_defense":true})",
  };
  std::set<std::string> dumped;
  for (const char* text : docs) {
    const auto spec = ParseQuerySpec(Doc(text));
    ASSERT_TRUE(spec.ok()) << text;
    const std::string dump = QuerySpecToJson(*spec).Dump();
    const auto again = ParseQuerySpec(Doc(dump));
    ASSERT_TRUE(again.ok()) << dump;
    EXPECT_EQ(QuerySpecToJson(*again).Dump(), dump);
    const JsonValue canonical = QuerySpecToJson(*spec);
    for (const auto& [name, value] : canonical.members()) {
      dumped.insert(name);
    }
  }
  for (const KeyDef& def : QueryKeys()) {
    // A batch size is dumped as the latency it resolves to.
    if (std::string(def.name) == "tasks_per_round") continue;
    EXPECT_EQ(dumped.count(def.name), 1u) << def.name;
  }
}

TEST(QuerySpecTest, FlagsBecomeKeysOfTheirKind) {
  const auto doc = FlagsToJson({{"budget", "5"},
                                {"alpha", "0.5"},
                                {"no-defense", ""},
                                {"solver-ladder", "full"},
                                {"m", "x"}},
                               {QueryKeys()});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("budget")->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(doc->Find("alpha")->kind(), JsonValue::Kind::kDouble);
  EXPECT_TRUE(doc->Find("no_defense")->AsBool());
  EXPECT_EQ(doc->Find("solver_ladder")->AsString(), "full");
  // Text that does not convert is reported against its key, verbatim.
  const Status bad = CheckKeys(*doc, {QueryKeys()}, KeyStyle::kFlag);
  EXPECT_EQ(bad.message(), "--m must be an integer >= 0, got 'x'");
  EXPECT_FALSE(FlagsToJson({{"budegt", "5"}}, {QueryKeys()}).ok());
  const auto nan = FlagsToJson({{"alpha", "nan"}}, {QueryKeys()});
  ASSERT_TRUE(nan.ok());
  EXPECT_EQ(CheckKeys(*nan, {QueryKeys()}, KeyStyle::kFlag).message(),
            "--alpha must be a number in [-1, 1], got 'nan'");
}

Table Incomplete(Table* truth) {
  *truth = MakeNbaLike(80, 3);
  Rng rng(4);
  return InjectMissingUniform(*truth, 0.2, rng);
}

TEST(PosteriorModelTest, OwnsWhatItReadsAndMatchesTheProvider) {
  Table truth;
  const Table incomplete = Incomplete(&truth);
  auto dag = HillClimbStructure(incomplete);
  ASSERT_TRUE(dag.ok());
  auto network = BayesianNetwork::Create(incomplete.schema(), *dag);
  ASSERT_TRUE(network.ok());
  ASSERT_TRUE(network->FitParameters(incomplete).ok());
  BnPosteriorProvider reference(*network, incomplete);

  // The model reads its own copies: the table it was built from is gone
  // before the first posterior is asked.
  const auto learn = [&](PosteriorStructure structure) {
    Table source = incomplete;
    return PosteriorModel::Learn(structure, std::move(source));
  };
  auto model = learn(PosteriorStructure::kHillClimb);
  ASSERT_TRUE(model.ok());
  ASSERT_NE((*model)->network(), nullptr);
  const std::vector<CellRef> cells = incomplete.MissingCells();
  ASSERT_FALSE(cells.empty());
  for (const CellRef& cell : cells) {
    const auto expected = reference.Posterior(cell);
    const auto got = (*model)->Posterior(cell);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_EQ(*expected, *got);
  }

  auto uniform = learn(PosteriorStructure::kNone);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ((*uniform)->network(), nullptr);
  UniformPosteriorProvider flat(incomplete.schema());
  EXPECT_EQ(*(*uniform)->Posterior(cells[0]), *flat.Posterior(cells[0]));
}

TEST(SimulatedCrowdTest, FlatOrMarketplaceAsTheSpecSays) {
  Table truth;
  (void)Incomplete(&truth);
  const auto flat = ParseQuerySpec(Doc(R"({"accuracy":0.9})"));
  const auto market = ParseQuerySpec(Doc(R"({"marketplace":5})"));
  ASSERT_TRUE(flat.ok() && market.ok());
  const auto make = [&](const QuerySpec& spec) {
    return MakeSimulatedCrowd(truth, spec.use_marketplace, spec.flat,
                              spec.market, nullptr, nullptr);
  };
  EXPECT_NE(dynamic_cast<SimulatedCrowdPlatform*>(make(*flat).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<MarketplaceCrowdPlatform*>(make(*market).get()),
            nullptr);
}

TEST(MakeDatasetTest, DispatchesByKindWithinTheCellLimit) {
  const auto nba = MakeDataset("nba", 50, 1, 2, 9);
  ASSERT_TRUE(nba.ok());
  EXPECT_EQ(nba->At(7, 3), MakeNbaLike(50, 9).At(7, 3));
  const auto corr = MakeDataset("corr", 40, 5, 8, 3);
  ASSERT_TRUE(corr.ok());
  EXPECT_EQ(corr->num_attributes(), 5u);
  EXPECT_EQ(corr->At(11, 4), MakeCorrelated(40, 5, 8, 3).At(11, 4));

  const auto plasma = MakeDataset("plasma", 10, 2, 4, 1);
  EXPECT_EQ(plasma.status().ToString(),
            "InvalidArgument: unknown dataset kind 'plasma'");
  const auto wide = MakeDataset("indep", kMaxDatasetCells / 4 + 1, 4, 4, 1);
  EXPECT_TRUE(wide.status().IsInvalidArgument());
  const auto tall = MakeDataset("adult", kMaxDatasetCells / 9 + 1, 1, 2, 1);
  EXPECT_TRUE(tall.status().IsInvalidArgument());
}

}  // namespace
}  // namespace bayescrowd

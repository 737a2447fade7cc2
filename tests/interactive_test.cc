// Tests for the interactive (human-answered) crowd platform.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/binio.h"
#include "crowd/fault_injection.h"
#include "crowd/interactive.h"
#include "data/generators.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

std::vector<Task> TwoTasks() {
  std::vector<Task> tasks(2);
  tasks[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  tasks[1].expression = Expression::VarVar(V(4, 1), CmpOp::kGreater,
                                           V(1, 1));
  return tasks;
}

TEST(InteractiveTest, ParsesShortAndLongAnswers) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("s\nlarger\n");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  const auto answers = platform.PostBatch(TwoTasks());
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers.value()[0].relation, Ordering::kLess);
  EXPECT_EQ(answers.value()[1].relation, Ordering::kGreater);
  EXPECT_EQ(platform.total_tasks(), 2u);
  EXPECT_EQ(platform.total_rounds(), 1u);
}

TEST(InteractiveTest, ParsesSymbolAnswers) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("=\n<\n");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  const auto answers = platform.PostBatch(TwoTasks());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value()[0].relation, Ordering::kEqual);
  EXPECT_EQ(answers.value()[1].relation, Ordering::kLess);
}

TEST(InteractiveTest, ReasksOnGarbageThenSucceeds) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("banana\n42\ne\ns\n");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  const auto answers = platform.PostBatch(TwoTasks());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value()[0].relation, Ordering::kEqual);
  EXPECT_NE(out.str().find("could not parse"), std::string::npos);
}

TEST(InteractiveTest, ThreeGarbageAnswersFail) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("a\nb\nc\n");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  EXPECT_TRUE(platform.PostBatch(TwoTasks()).status().IsInvalidArgument());
}

TEST(InteractiveTest, EofFailsWithIOError) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("s\n");  // Second task gets no answer.
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  EXPECT_TRUE(platform.PostBatch(TwoTasks()).status().IsIOError());
}

TEST(InteractiveTest, QuestionsMentionObjectNames) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("s\ne\n");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  ASSERT_TRUE(platform.PostBatch(TwoTasks()).ok());
  EXPECT_NE(out.str().find("Star Wars"), std::string::npos);
  EXPECT_NE(out.str().find("Se7en"), std::string::npos);
}

TEST(InteractiveTest, EmptyBatchRejected) {
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("");
  std::ostringstream out;
  InteractiveCrowdPlatform platform(table, in, out);
  EXPECT_FALSE(platform.PostBatch({}).ok());
}

TEST(InteractiveTest, TotalsSurviveACheckpointAndCountReplays) {
  // A paused session's resumed prompts continue its round numbering:
  // the totals ride the platform state, and replayed batches count
  // without prompting.
  const Table table = MakeSampleMovieDataset();
  std::istringstream in("s\nl\n");
  std::ostringstream out;
  InteractiveCrowdPlatform first(table, in, out);
  ASSERT_TRUE(first.PostBatch(TwoTasks()).ok());
  std::string state;
  first.SaveState(&state);

  std::istringstream rest("e\ne\n");
  std::ostringstream resumed_out;
  InteractiveCrowdPlatform resumed(table, rest, resumed_out);
  BinReader reader(state);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  resumed.SyncReplayed(TwoTasks(), /*delivered=*/true);
  resumed.SyncReplayed(TwoTasks(), /*delivered=*/false);
  EXPECT_TRUE(resumed_out.str().empty());  // Nothing re-prompted.
  EXPECT_EQ(resumed.total_rounds(), 2u);
  EXPECT_EQ(resumed.total_tasks(), 4u);
  ASSERT_TRUE(resumed.PostBatch(TwoTasks()).ok());
  EXPECT_NE(resumed_out.str().find("--- round 3:"), std::string::npos)
      << resumed_out.str();

  std::string wrong_chunk = state;
  wrong_chunk[0] = 'S';
  BinReader wrong(wrong_chunk);
  EXPECT_FALSE(resumed.LoadState(&wrong).ok());
}

TEST(InteractiveTest, FaultInjectorReplaysWithoutPrompting) {
  // A fault injector over a human replays a recorded batch with its own
  // draws and hands it to the human's SyncReplayed: nobody is asked
  // again, and the injector and the platform below it end where the
  // live session left them.
  const Table table = MakeSampleMovieDataset();
  const FaultOptions faults = FaultOptions::Profile(0.5, 7);
  std::string lines;
  for (int i = 0; i < 40; ++i) lines += "l\n";
  std::istringstream live_in(lines);
  std::ostringstream live_out;
  InteractiveCrowdPlatform live_human(table, live_in, live_out);
  FaultInjectingPlatform live(live_human, faults);

  std::istringstream replay_in;
  std::ostringstream replay_out;
  InteractiveCrowdPlatform replay_human(table, replay_in, replay_out);
  FaultInjectingPlatform replay(replay_human, faults);

  for (int attempt = 0; attempt < 20; ++attempt) {
    const bool delivered = live.PostBatch(TwoTasks()).ok();
    replay.SyncReplayed(TwoTasks(), delivered);
  }
  // The schedule exercised every kind of draw.
  EXPECT_GT(live.stats().transient_failures + live.stats().timeouts, 0u);
  EXPECT_GT(live.stats().partial_batches, 0u);
  EXPECT_GT(live.stats().abstained_tasks, 0u);

  EXPECT_TRUE(replay_out.str().empty()) << replay_out.str();
  EXPECT_TRUE(replay_in.good());  // Nothing was read.
  EXPECT_GT(replay_human.total_rounds(), 0u);
  EXPECT_EQ(replay_human.total_rounds(), live_human.total_rounds());
  EXPECT_EQ(replay_human.total_tasks(), live_human.total_tasks());
  std::string live_state;
  std::string replay_state;
  live.SaveState(&live_state);
  replay.SaveState(&replay_state);
  EXPECT_EQ(replay_state[0], 'F');
  EXPECT_EQ(replay_state, live_state);
}

}  // namespace
}  // namespace bayescrowd

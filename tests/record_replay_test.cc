// Tests for crowd answer recording/replay — pause/resume of a
// deterministic crowd query — and the answer log's journal codec.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bayesnet/imputation.h"
#include "common/fileio.h"
#include "common/journal.h"
#include "common/random.h"
#include "core/framework.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

AnswerLog SampleLog() {
  AnswerLog log;
  AnswerLogEntry a;
  a.expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  a.relation = Ordering::kLess;
  a.round = 1;
  AnswerLogEntry b;
  b.expression = Expression::VarVar(V(4, 1), CmpOp::kGreater, V(1, 1));
  b.relation = Ordering::kGreater;
  b.round = 1;
  log.entries = {a, b};
  return log;
}

AnswerLog RoundTrip(const AnswerLog& log) {
  AnswerLog out;
  out.entries.resize(log.entries.size());
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    const Status decoded = DecodeAnswerLogEntry(
        EncodeAnswerLogEntry(log.entries[i]), &out.entries[i]);
    EXPECT_TRUE(decoded.ok()) << decoded.ToString();
  }
  return out;
}

TEST(AnswerLogTest, SerializationRoundTrip) {
  const AnswerLog log = SampleLog();
  EXPECT_EQ(RoundTrip(log), log);
}

TEST(AnswerLogTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bc_answers.log";
  std::filesystem::remove(path);
  JournalWriter journal(nullptr, path, kAnswerLogFormat);
  std::vector<std::string> payloads;
  for (const AnswerLogEntry& entry : SampleLog().entries) {
    payloads.push_back(EncodeAnswerLogEntry(entry));
  }
  ASSERT_TRUE(journal.Append(payloads).ok());
  bool torn = true;
  const auto loaded = LoadAnswerLog(path, &torn);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(torn);
  EXPECT_EQ(loaded.value(), SampleLog());
}

TEST(AnswerLogTest, AbstainsAndFailuresRoundTrip) {
  // Abstains and whole-batch failure markers must round-trip: replaying
  // a faulted session depends on them.
  AnswerLog log = SampleLog();
  AnswerLogEntry abstain;
  abstain.kind = AnswerLogEntry::Kind::kAbstain;
  abstain.expression = Expression::VarConst(V(2, 0), CmpOp::kGreater, 1);
  abstain.round = 2;
  AnswerLogEntry failure;
  failure.kind = AnswerLogEntry::Kind::kFailure;
  failure.round = 3;
  log.entries.push_back(abstain);
  log.entries.push_back(failure);
  // A failure marker carries its kind and round only.
  EXPECT_EQ(EncodeAnswerLogEntry(failure).size(), 9u);
  EXPECT_EQ(RoundTrip(log), log);
}

TEST(AnswerLogTest, VotesRoundTripExactly) {
  // Per-vote provenance: worker id, raw answer and work time trail the
  // aggregate. The marketplace's replay determinism, adaptive charging
  // included, rides on these surviving a round trip; work times are
  // stored as doubles, so none is quantized.
  AnswerLog log = SampleLog();
  log.entries[0].votes = {{7, Ordering::kLess, 31.25},
                          {2, Ordering::kEqual, 0.0041234},
                          {19, Ordering::kGreater, 3600.0}};
  const AnswerLog parsed = RoundTrip(log);
  EXPECT_EQ(parsed, log);
  EXPECT_EQ(parsed.entries[0].votes[1].work_seconds, 0.0041234);
}

TEST(AnswerLogTest, RejectsOutOfDomainBytes) {
  AnswerLogEntry entry = SampleLog().entries[0];  // A var-const answer.
  entry.votes = {{7, Ordering::kLess, 30.0}};
  const std::string valid = EncodeAnswerLogEntry(entry);
  AnswerLogEntry out;
  ASSERT_TRUE(DecodeAnswerLogEntry(valid, &out).ok());
  // Layout: kind 0 | round 1-8 | object 9-16 | attribute 17-24 | op 25 |
  // rhs flag 26 | constant 27-30 | relation 31 | vote count 32-35 |
  // worker 36-39 | vote answer 40 | work seconds 41-48.
  ASSERT_EQ(valid.size(), 49u);
  const auto refused = [&](std::size_t offset, char byte) {
    std::string bad = valid;
    bad[offset] = byte;
    return !DecodeAnswerLogEntry(bad, &out).ok();
  };
  EXPECT_TRUE(refused(0, 3));   // Kind.
  EXPECT_TRUE(refused(25, 2));  // Operator.
  EXPECT_TRUE(refused(26, 2));  // Operand flag.
  EXPECT_TRUE(refused(31, 3));  // Relation.
  EXPECT_TRUE(refused(40, 3));  // Vote answer.
  EXPECT_TRUE(refused(32, 2));  // Vote count past the payload.
  EXPECT_TRUE(refused(35, 0x7F));
  EXPECT_FALSE(DecodeAnswerLogEntry(valid + '\0', &out).ok());  // Trailing.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(DecodeAnswerLogEntry(valid.substr(0, len), &out).ok())
        << "length " << len;
  }
}

TEST(AnswerLogTest, RefusesForeignAndOtherVersionFiles) {
  const std::string path = ::testing::TempDir() + "/bc_answers_foreign.log";
  const auto write = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  };
  bool torn = false;
  write("# bayescrowd answer log v3\nvc 4 3 < 4 l 1\n");
  EXPECT_TRUE(LoadAnswerLog(path, &torn).status().IsIOError());
  std::string newer = JournalHeader(kAnswerLogFormat);
  newer[4] = static_cast<char>(kAnswerLogFormat.version + 1);
  write(newer);
  const Status refused = LoadAnswerLog(path, &torn).status();
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_NE(refused.message().find("newer"), std::string::npos);
}

TEST(RecordReplayTest, RecordingCapturesTranscript) {
  const Table gt = MakeSampleMovieGroundTruth();
  SimulatedCrowdPlatform live(gt, {});
  RecordingPlatform recorder(live);

  std::vector<Task> batch(2);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  batch[1].expression = Expression::VarConst(V(4, 1), CmpOp::kGreater, 2);
  ASSERT_TRUE(recorder.PostBatch(batch).ok());
  ASSERT_EQ(recorder.log().entries.size(), 2u);
  EXPECT_EQ(recorder.log().entries[0].relation, Ordering::kLess);
  EXPECT_EQ(recorder.log().entries[0].round, 1u);
}

TEST(RecordReplayTest, ReplayServesWithoutLivePlatform) {
  ReplayingPlatform replay(SampleLog(), /*fallback=*/nullptr);
  std::vector<Task> batch(2);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  batch[1].expression = Expression::VarVar(V(4, 1), CmpOp::kGreater,
                                           V(1, 1));
  const auto answers = replay.PostBatch(batch);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers.value()[0].relation, Ordering::kLess);
  EXPECT_EQ(answers.value()[1].relation, Ordering::kGreater);
  EXPECT_EQ(replay.replayed(), 2u);
  // Log exhausted, no fallback: next batch fails.
  EXPECT_EQ(replay.PostBatch(batch).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecordReplayTest, DivergentBatchDetected) {
  ReplayingPlatform replay(SampleLog(), nullptr);
  std::vector<Task> batch(1);
  batch[0].expression = Expression::VarConst(V(0, 0), CmpOp::kLess, 1);
  EXPECT_EQ(replay.PostBatch(batch).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecordReplayTest, ResumedQueryMatchesUninterruptedRun) {
  // Run the same query (i) straight with budget 60, and (ii) in two
  // sessions: budget 24 recorded, then budget 60 resuming from the log.
  // The deterministic framework must produce identical results and the
  // live platform must only be asked for the post-resume tasks.
  const Table complete = MakeNbaLike(250, 404, 8);
  Rng rng(9);
  const Table incomplete = InjectMissingUniform(complete, 0.1, rng);

  BayesCrowdOptions base;
  base.ctable.alpha = 0.1;
  base.latency = 12;  // ceil(B/L) = 5 tasks per round for B=60.
  UniformPosteriorProvider posteriors(incomplete.schema());

  // (i) Uninterrupted reference run.
  base.budget = 60;
  std::vector<std::size_t> reference;
  std::size_t reference_tasks = 0;
  {
    SimulatedCrowdPlatform live(complete, {});
    BayesCrowd framework(base);
    const auto result = framework.Run(incomplete, posteriors, live);
    ASSERT_TRUE(result.ok());
    reference = result->result_objects;
    reference_tasks = result->tasks_posted;
  }

  // (ii-a) First session: budget 24, recorded.
  AnswerLog log;
  {
    BayesCrowdOptions first = base;
    first.budget = 24;
    // Keep the same per-round batch size as the reference run, so the
    // replayed batch boundaries line up: ceil(24/L)=5 needs L=5.
    first.latency = 5;
    SimulatedCrowdPlatform live(complete, {});
    RecordingPlatform recorder(live);
    BayesCrowd framework(first);
    const auto result = framework.Run(incomplete, posteriors, recorder);
    ASSERT_TRUE(result.ok());
    log = recorder.log();
  }
  ASSERT_FALSE(log.entries.empty());

  // (ii-b) Second session: full budget, replaying then going live.
  {
    SimulatedCrowdPlatform live(complete, {});
    ReplayingPlatform replay(log, &live);
    BayesCrowd framework(base);
    const auto result = framework.Run(incomplete, posteriors, replay);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->result_objects, reference);
    EXPECT_EQ(result->tasks_posted, reference_tasks);
    EXPECT_EQ(replay.replayed(), log.entries.size());
    // The replayed prefix is mirrored into the live platform
    // (SyncReplayed posts and discards) so its RNG stream and totals
    // match the uninterrupted run exactly.
    EXPECT_EQ(live.total_tasks(), reference_tasks);
  }
}

std::vector<Task> OneTaskBatch() {
  std::vector<Task> batch(1);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  return batch;
}

TEST(RecordingJournalTest, InjectedAppendFailureIsCleanIOErrorWithPath) {
  const std::string path =
      ::testing::TempDir() + "/bc_journal_enospc.log";
  std::filesystem::remove(path);
  ASSERT_TRUE(JournalWriter(nullptr, path, kAnswerLogFormat)
                  .Rewrite({})
                  .ok());

  // A broken-disk journal on the same file: every append tears. (Its
  // scope closes the file, so the torn bytes leave the stdio buffer.)
  {
    FaultPlan broken;
    broken.write_fail_rate = 1.0;
    FaultInjectingFileIo broken_io(broken);
    JournalWriter journal(&broken_io, path, kAnswerLogFormat);
    const Table gt = MakeSampleMovieGroundTruth();
    SimulatedCrowdPlatform live(gt, {});
    RecordingPlatform recorder(live, &journal);
    const Status appended = recorder.PostBatch(OneTaskBatch()).status();
    EXPECT_TRUE(appended.IsIOError()) << appended.ToString();
    EXPECT_NE(appended.message().find(path), std::string::npos)
        << appended.ToString();
    EXPECT_GE(broken_io.stats().writes_failed, 1u);
  }

  // The short write left a torn tail, exactly what the load rule is
  // built for: the header survives, the torn record drops.
  bool torn = false;
  const auto loaded = LoadAnswerLog(path, &torn);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(torn);
  EXPECT_TRUE(loaded->entries.empty());
}

TEST(RecordingJournalTest, InjectedSyncFailureFailsTheBatch) {
  const std::string path = ::testing::TempDir() + "/bc_journal_esync.log";
  std::filesystem::remove(path);

  FaultPlan plan;
  plan.sync_fail_rate = 1.0;
  FaultInjectingFileIo io(plan);
  JournalWriter journal(&io, path, kAnswerLogFormat);
  const Table gt = MakeSampleMovieGroundTruth();
  SimulatedCrowdPlatform live(gt, {});
  RecordingPlatform recorder(live, &journal);
  const Status appended = recorder.PostBatch(OneTaskBatch()).status();
  EXPECT_TRUE(appended.IsIOError()) << appended.ToString();
  EXPECT_GE(io.stats().syncs_failed, 1u);
}

}  // namespace
}  // namespace bayescrowd

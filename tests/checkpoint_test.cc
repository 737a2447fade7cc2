// Checkpoint format and store tests: envelope integrity, payload
// round-trips, generation management, corruption fallback, the memo
// blob, and the committed v7 golden fixture (format-drift contract).

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/fileio.h"
#include "common/random.h"
#include "core/session.h"
#include "crowd/record_replay.h"
#include "obs/metrics.h"
#include "probability/evaluator.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The condition whose memo entry GoldenMemoBlob keeps.
Condition GoldenLiveCondition() {
  return Condition::Cnf(
      {{Expression::VarConst(V(2, 0), CmpOp::kGreater, 0),
        Expression::VarConst(V(2, 1), CmpOp::kLess, 1)}});
}

/// The condition whose memo entry GoldenMemoBlob evicts.
Condition GoldenEvictedCondition() {
  return Condition::Cnf({{Expression::VarConst(V(3, 0), CmpOp::kGreater, 1)}});
}

/// A real SerializeMemoState blob: the live condition's entry (solved
/// twice, across an epoch bump), its variable index and the epochs,
/// including the variable of the evicted condition, which is absent
/// from the live-only index.
std::string GoldenMemoBlob() {
  ProbabilityEvaluator evaluator;
  BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
      V(2, 0), std::vector<double>{0.25, 0.25, 0.5}));
  BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
      V(2, 1), std::vector<double>{0.5, 0.125, 0.375}));
  BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
      V(3, 0), std::vector<double>{0.25, 0.5, 0.25}));
  const Condition condition = GoldenLiveCondition();
  BAYESCROWD_CHECK_OK(evaluator.Probability(condition).status());
  BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
      V(2, 0), std::vector<double>{0.5, 0.25, 0.25}));
  BAYESCROWD_CHECK_OK(evaluator.Probability(condition).status());
  BAYESCROWD_CHECK_OK(
      evaluator.Probability(GoldenEvictedCondition()).status());
  BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
      V(3, 0), std::vector<double>{0.125, 0.5, 0.375}));
  std::string blob;
  evaluator.SerializeMemoState(&blob);
  return blob;
}

/// A deterministic, richly-populated state: every field class exercised
/// (decided + CNF conditions, round logs with recovery data, metrics of
/// all three kinds, binary blobs, session-layer stamps). Also the
/// generator of the committed golden fixture — see GoldenV7FixtureTest.
SessionState MakeGoldenState() {
  SessionState state;
  state.budget_left = 12.5;
  state.consecutive_barren = 1;
  state.rounds = 3;
  state.tasks_posted = 9;
  state.cost_spent = 11.5;
  state.cost_refunded = 2.0;
  state.tasks_unanswered = 2;
  state.retries = 4;
  state.transient_failures = 3;
  state.rounds_abandoned = 1;
  state.order_conflicts = 1;
  state.backoff_seconds = 1.75;
  state.simulated_seconds = 21.25;
  state.initial_true = 2;
  state.initial_false = 5;
  state.initial_undecided = 3;

  RoundLog log;
  log.round = 3;
  log.tasks = 4;
  log.seconds = 0.0;  // Wall clock is not part of determinism.
  log.attempts = 2;
  log.answered = 3;
  log.unanswered = 1;
  log.cost_refunded = 1.0;
  log.backoff_seconds = 0.5;
  log.simulated_seconds = 7.5;
  log.abandoned = false;
  log.cache_hits = 17;
  log.cache_misses = 5;
  state.round_logs = {log};

  state.conditions.push_back(Condition::True());
  state.conditions.push_back(Condition::False());
  state.conditions.push_back(Condition::Cnf(
      {{Expression::VarConst(V(2, 1), CmpOp::kGreater, 3)},
       {Expression::VarVar(V(2, 0), CmpOp::kLess, V(0, 0)),
        Expression::VarConst(V(2, 1), CmpOp::kLess, 7)}}));

  state.knowledge_blob = std::string("kb\x00\x01\x7f", 5);
  state.evaluator_blob = GoldenMemoBlob();

  obs::MetricsRegistry registry;
  registry.GetCounter("framework.tasks_posted")->Increment(9);
  registry.GetGauge("framework.budget_left")->Set(12.5);
  registry.GetHistogram("round.entropy", {0.5, 1.0, 2.0})->Observe(0.75);
  state.metrics = registry.Snapshot();

  state.platform_state = std::string("\x01\x02\x03", 3);
  state.platform_tasks = 9;
  state.platform_rounds = 3;
  state.answer_log_offset = 7;
  state.config_fingerprint = 0x1234abcd5678ef90ULL;

  // One open and one counting breaker, ascending object id.
  SolverBreakerRecord open_breaker;
  open_breaker.object = 2;
  open_breaker.fingerprint = {0xfeedbeefULL, 0x12345678ULL};
  open_breaker.consecutive = 3;
  open_breaker.open = true;
  open_breaker.last = ProbInterval{0.25, 0.75, ProbQuality::kPartialBound};
  SolverBreakerRecord counting_breaker;
  counting_breaker.object = 5;
  counting_breaker.fingerprint = {0x1ULL, 0x2ULL};
  counting_breaker.consecutive = 1;
  counting_breaker.open = false;
  counting_breaker.last = ProbInterval::Exact(0.5);
  state.solver_breakers = {open_breaker, counting_breaker};
  return state;
}

std::string SerializeState(const SessionState& state) {
  std::string payload;
  SerializeSessionState(state, &payload);
  return payload;
}

TEST(CheckpointEnvelopeTest, RoundTrips) {
  const std::string payload = "some payload bytes";
  const std::string wrapped = WrapCheckpoint(payload);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(unwrapped.value(), payload);
}

TEST(CheckpointEnvelopeTest, DetectsPayloadCorruption) {
  std::string wrapped = WrapCheckpoint("the payload under test");
  // Flip one payload byte; the CRC must catch it.
  wrapped[20] = static_cast<char>(wrapped[20] ^ 0x40);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_FALSE(unwrapped.ok());
  EXPECT_TRUE(unwrapped.status().IsIOError())
      << unwrapped.status().ToString();
}

TEST(CheckpointEnvelopeTest, DetectsCrcCorruption) {
  std::string wrapped = WrapCheckpoint("another payload");
  wrapped.back() = static_cast<char>(wrapped.back() ^ 0x01);
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, DetectsTruncationAtEveryLength) {
  const std::string wrapped = WrapCheckpoint("payload that gets cut");
  for (std::size_t len = 0; len < wrapped.size(); ++len) {
    const auto unwrapped = UnwrapCheckpoint(wrapped.substr(0, len));
    ASSERT_FALSE(unwrapped.ok()) << "length " << len;
    EXPECT_TRUE(unwrapped.status().IsIOError()) << "length " << len;
  }
}

TEST(CheckpointEnvelopeTest, RejectsBadMagic) {
  std::string wrapped = WrapCheckpoint("payload");
  wrapped[0] = 'X';
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, RejectsFutureVersionWithClearError) {
  std::string wrapped = WrapCheckpoint("payload");
  // Version is the little-endian u32 after the 4-byte magic.
  wrapped[4] = static_cast<char>(kCheckpointVersion + 1);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_FALSE(unwrapped.ok());
  EXPECT_TRUE(unwrapped.status().IsInvalidArgument())
      << unwrapped.status().ToString();
  EXPECT_NE(unwrapped.status().message().find("newer"), std::string::npos)
      << unwrapped.status().message();
}

TEST(SessionStateTest, RoundTripsByteExact) {
  const SessionState original = MakeGoldenState();
  const std::string payload = SerializeState(original);

  BinReader reader(payload);
  SessionState restored;
  ASSERT_TRUE(DeserializeSessionState(&reader, &restored).ok());

  // Byte-exact re-serialization covers every field, including the
  // metrics snapshot, without a field-by-field comparison.
  EXPECT_EQ(SerializeState(restored), payload);
  EXPECT_EQ(restored.rounds, original.rounds);
  EXPECT_EQ(restored.budget_left, original.budget_left);
  ASSERT_EQ(restored.conditions.size(), 3u);
  EXPECT_TRUE(restored.conditions[0].IsTrue());
  EXPECT_TRUE(restored.conditions[1].IsFalse());
  EXPECT_FALSE(restored.conditions[2].IsDecided());
  EXPECT_EQ(restored.knowledge_blob, original.knowledge_blob);
  EXPECT_EQ(restored.config_fingerprint, original.config_fingerprint);
}

TEST(SessionStateTest, RejectsTrailingBytes) {
  std::string payload = SerializeState(MakeGoldenState());
  payload += "extra";
  BinReader reader(payload);
  SessionState restored;
  EXPECT_FALSE(DeserializeSessionState(&reader, &restored).ok());
}

TEST(SessionStateTest, RejectsTruncatedPayload) {
  const std::string payload = SerializeState(MakeGoldenState());
  // Sample a few truncation points; every one must fail cleanly.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{9}, payload.size() / 3,
        payload.size() / 2, payload.size() - 1}) {
    const std::string cut = payload.substr(0, len);
    BinReader reader(cut);
    SessionState restored;
    EXPECT_FALSE(DeserializeSessionState(&reader, &restored).ok())
        << "length " << len;
  }
}

TEST(CheckpointStoreTest, WritesPrunesAndLoadsNewest) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_store");
  options.keep = 2;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  for (std::size_t round = 1; round <= 4; ++round) {
    state.rounds = round;
    state.answer_log_offset = round;
    ASSERT_TRUE(store.Write(state).ok()) << "round " << round;
  }
  const auto generations = store.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);  // Pruned to keep.
  EXPECT_EQ(generations.front(), "ckpt-00000003.bin");
  EXPECT_EQ(generations.back(), "ckpt-00000004.bin");

  std::size_t fallbacks = 99;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 4u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, FallsBackPastCorruptNewestGeneration) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_fallback");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    ASSERT_TRUE(store.Write(state).ok());
  }
  // Corrupt the newest generation in the middle of the payload.
  const std::string newest = options.dir + "/ckpt-00000003.bin";
  std::string bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFileBytes(newest, bytes);

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 2u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointStoreTest, SkipsSnapshotAheadOfAnswerLog) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_ahead");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 2;
  ASSERT_TRUE(store.Write(state).ok());
  state.rounds = 2;
  state.answer_log_offset = 10;  // More than the log will hold.
  ASSERT_TRUE(store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(/*max_valid_log_entries=*/5,
                                       &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointStoreTest, NoUsableGenerationIsNotFound) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_empty");
  const CheckpointStore store(options);
  std::size_t fallbacks = 0;
  EXPECT_TRUE(store.LoadLatest(0, &fallbacks).status().IsNotFound());
}

TEST(CheckpointStoreTest, InjectedWriteFailureIsCleanIOErrorWithPath) {
  FaultPlan plan;
  plan.write_fail_rate = 1.0;  // Every durable write fails (ENOSPC-ish).
  FaultInjectingFileIo io(plan);

  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_enospc");
  options.io = &io;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  const Status wrote = store.Write(state);
  EXPECT_TRUE(wrote.IsIOError()) << wrote.ToString();
  // The error carries the path so an operator can find the full disk,
  // and the aborted tmp file is cleaned up — no half-written
  // generations for a later scan to trip over.
  EXPECT_NE(wrote.message().find(options.dir), std::string::npos)
      << wrote.ToString();
  EXPECT_TRUE(store.ListGenerations().empty());
  for (const auto& entry :
       std::filesystem::directory_iterator(options.dir)) {
    ADD_FAILURE() << "leftover file " << entry.path();
  }
  EXPECT_GE(io.stats().writes_failed, 1u);
}

TEST(CheckpointStoreTest, InjectedSyncFailureFailsTheWrite) {
  FaultPlan plan;
  plan.sync_fail_rate = 1.0;
  FaultInjectingFileIo io(plan);

  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_esync");
  options.io = &io;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  const Status wrote = store.Write(state);
  EXPECT_TRUE(wrote.IsIOError()) << wrote.ToString();
  EXPECT_GE(io.stats().syncs_failed, 1u);

  // The same store succeeds once the disk heals (deterministic plan,
  // new injector): faults never latch the store.
  FaultInjectingFileIo healthy({});
  CheckpointStore::Options healed_options;
  healed_options.dir = options.dir;
  healed_options.io = &healthy;
  CheckpointStore healed(healed_options);
  EXPECT_TRUE(healed.Write(state).ok());
  EXPECT_EQ(healed.ListGenerations().size(), 1u);
}

TEST(CheckpointStoreTest, InjectedReadCorruptionFallsBackToOlder) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_readcorrupt");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    ASSERT_TRUE(store.Write(state).ok());
  }

  // Reads through a corrupting IO layer: roughly half the generations
  // come back truncated; the CRC envelope rejects them and LoadLatest
  // falls back — it never returns a damaged snapshot.
  FaultPlan plan;
  plan.read_corrupt_rate = 0.5;
  plan.seed = 11;
  FaultInjectingFileIo io(plan);
  CheckpointStore::Options corrupt_options;
  corrupt_options.dir = options.dir;
  corrupt_options.io = &io;
  const CheckpointStore corrupted(corrupt_options);
  std::size_t fallbacks = 0;
  const auto loaded = corrupted.LoadLatest(100, &fallbacks);
  if (loaded.ok()) {
    EXPECT_GE(loaded->rounds, 1u);
    EXPECT_LE(loaded->rounds, 3u);
  } else {
    EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
  }
}

TEST(CheckpointStoreTest, SessionNamespacesNeitherPruneNorLoadEachOther) {
  const std::string dir = FreshDir("bc_ckpt_sessions");
  CheckpointStore alpha({.dir = dir, .session_id = "alpha", .keep = 2});
  CheckpointStore beta({.dir = dir, .session_id = "beta", .keep = 2});

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    state.budget_left = 100.0 + static_cast<double>(round);
    ASSERT_TRUE(alpha.Write(state).ok());
  }
  state.rounds = 1;
  state.budget_left = 7.0;
  ASSERT_TRUE(beta.Write(state).ok());

  // Alpha pruned only its own generations; beta's survived alpha's
  // three writes even though beta is far below its own keep limit.
  const auto alpha_gens = alpha.ListGenerations();
  ASSERT_EQ(alpha_gens.size(), 2u);
  EXPECT_EQ(alpha_gens.front(), "ckpt-alpha-00000002.bin");
  EXPECT_EQ(alpha_gens.back(), "ckpt-alpha-00000003.bin");
  const auto beta_gens = beta.ListGenerations();
  ASSERT_EQ(beta_gens.size(), 1u);
  EXPECT_EQ(beta_gens.front(), "ckpt-beta-00000001.bin");

  // Each store loads its own newest snapshot, never the neighbor's —
  // even though beta's generation number is lower than alpha's.
  std::size_t fallbacks = 0;
  const auto from_alpha = alpha.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(from_alpha.ok()) << from_alpha.status().ToString();
  EXPECT_EQ(from_alpha->rounds, 3u);
  EXPECT_EQ(from_alpha->budget_left, 103.0);
  const auto from_beta = beta.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(from_beta.ok()) << from_beta.status().ToString();
  EXPECT_EQ(from_beta->rounds, 1u);
  EXPECT_EQ(from_beta->budget_left, 7.0);

  // A legacy (un-namespaced) store sharing the directory sees neither
  // session's files, and its own writes are invisible to both.
  CheckpointStore legacy({.dir = dir});
  EXPECT_TRUE(legacy.ListGenerations().empty());
  state.rounds = 9;
  ASSERT_TRUE(legacy.Write(state).ok());
  EXPECT_EQ(legacy.ListGenerations().size(), 1u);
  EXPECT_EQ(alpha.ListGenerations().size(), 2u);
  EXPECT_EQ(beta.ListGenerations().size(), 1u);
}

TEST(CheckpointStoreTest, SessionIdPrefixCannotClaimLongerIdsFiles) {
  // "alpha" is a prefix of "alpha-00000001": the parser must not let
  // the short id claim the long id's files (or vice versa) even though
  // `ckpt-alpha-00000001-00000001.bin` starts with the short prefix.
  const std::string dir = FreshDir("bc_ckpt_prefix");
  CheckpointStore shorter({.dir = dir, .session_id = "alpha"});
  CheckpointStore longer({.dir = dir, .session_id = "alpha-00000001"});

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  state.rounds = 1;
  ASSERT_TRUE(longer.Write(state).ok());

  EXPECT_TRUE(shorter.ListGenerations().empty());
  std::size_t fallbacks = 0;
  EXPECT_TRUE(shorter.LoadLatest(100, &fallbacks).status().IsNotFound());

  state.rounds = 2;
  ASSERT_TRUE(shorter.Write(state).ok());
  const auto longer_gens = longer.ListGenerations();
  ASSERT_EQ(longer_gens.size(), 1u);
  EXPECT_EQ(longer_gens.front(), "ckpt-alpha-00000001-00000001.bin");
  const auto shorter_gens = shorter.ListGenerations();
  ASSERT_EQ(shorter_gens.size(), 1u);
  EXPECT_EQ(shorter_gens.front(), "ckpt-alpha-00000002.bin");
}

TEST(CheckpointStoreTest, AbortedWriteLeavesPreviousGenerationsIntact) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_abort");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  ASSERT_TRUE(store.Write(state).ok());

  // A kill before the rename: the tmp file never becomes a generation.
  CheckpointStore::Options failing = options;
  failing.pre_rename_hook = [](const std::string&) {
    return Status::IOError("simulated kill before rename");
  };
  CheckpointStore failing_store(failing);
  state.rounds = 2;
  EXPECT_FALSE(failing_store.Write(state).ok());

  EXPECT_EQ(store.ListGenerations(),
            std::vector<std::string>{"ckpt-00000001.bin"});
  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, TornTmpWritePromotedByRenameFallsBack) {
  // The hook truncates the tmp file *and lets the rename happen*: the
  // worst realistic torn-write outcome. The loader must fall back.
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_torn");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  ASSERT_TRUE(store.Write(state).ok());

  CheckpointStore::Options tearing = options;
  tearing.pre_rename_hook = [](const std::string& tmp_path) {
    std::error_code ec;
    std::filesystem::resize_file(
        tmp_path, std::filesystem::file_size(tmp_path) / 2, ec);
    return ec ? Status::IOError(ec.message()) : Status::OK();
  };
  CheckpointStore tearing_store(tearing);
  state.rounds = 2;
  ASSERT_TRUE(tearing_store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

// ------------------------------------------------------------------- //
// Golden fixture. golden_v7.ckpt matches today's writer byte-for-byte,
// envelope and memo blob included; regenerate with:
//   BC_REGEN_GOLDEN=1 ./checkpoint_test
// ------------------------------------------------------------------- //

TEST(GoldenV7FixtureTest, CommittedFixtureMatchesHeadBytes) {
  const std::string path = std::string(BC_TESTDATA_DIR) + "/golden_v7.ckpt";
  const SessionState expected = MakeGoldenState();
  if (std::getenv("BC_REGEN_GOLDEN") != nullptr) {
    WriteFileBytes(path, WrapCheckpoint(SerializeState(expected)));
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty()) << "missing fixture " << path;

  // Any drift in the envelope, the payload or the memo blob fails here:
  // a writer change needs a kCheckpointVersion bump and a regenerated
  // fixture.
  EXPECT_EQ(bytes, WrapCheckpoint(SerializeState(expected)));
  const auto payload = UnwrapCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  BinReader reader(payload.value());
  SessionState restored;
  ASSERT_TRUE(DeserializeSessionState(&reader, &restored).ok());
  ASSERT_EQ(restored.solver_breakers.size(), 2u);
  EXPECT_EQ(restored.solver_breakers[0].object, 2u);
  EXPECT_TRUE(restored.solver_breakers[0].open);
  EXPECT_EQ(restored.solver_breakers[0].last.quality,
            ProbQuality::kPartialBound);
  EXPECT_EQ(restored.solver_breakers[1].object, 5u);
  EXPECT_FALSE(restored.solver_breakers[1].open);

  // The pinned memo blob decodes to its one live entry, which the
  // restored epochs validate; the evicted condition stays a miss.
  ProbabilityEvaluator evaluator;
  BinReader memo(restored.evaluator_blob);
  ASSERT_TRUE(evaluator.RestoreMemoState(&memo).ok());
  EXPECT_TRUE(memo.AtEnd());
  EXPECT_EQ(evaluator.CacheSize(), 1u);
  EXPECT_TRUE(evaluator.IsCached(GoldenLiveCondition()));
  EXPECT_FALSE(evaluator.IsCached(GoldenEvictedCondition()));
}

TEST(MemoBlobTest, TruncatedBlobIsRefusedAndLeavesEvaluatorUntouched) {
  // Restore and merge share one decoder that validates the whole blob
  // before applying any of it.
  const std::string blob = GoldenMemoBlob();
  ProbabilityEvaluator evaluator;
  BinReader whole(blob);
  ASSERT_TRUE(evaluator.RestoreMemoState(&whole).ok());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::string cut = blob.substr(0, len);
    BinReader restore(cut);
    EXPECT_FALSE(evaluator.RestoreMemoState(&restore).ok()) << len;
    BinReader merge(cut);
    EXPECT_FALSE(evaluator.MergeMemoState(&merge).ok()) << len;
    ASSERT_EQ(evaluator.CacheSize(), 1u) << len;
  }
}

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
TEST(MemoBlobTest, CheckpointKeepsOnlyLiveIndexEntries) {
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
  BAYESCROWD_CHECK_OK(writer.EvaluateBatchIntervals({&a, &b, &d}).status());
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

TEST(CheckpointEnvelopeTest, RefusesEveryOtherVersion) {
  // The CRC covers only the payload, so the version byte may be edited
  // in place: only kCheckpointVersion itself unwraps.
  std::string wrapped = WrapCheckpoint("payload");
  ASSERT_EQ(kCheckpointVersion, 7u);
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    wrapped[4] = static_cast<char>(version);
    const auto refused = UnwrapCheckpoint(wrapped);
    ASSERT_FALSE(refused.ok()) << "version " << version;
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
    EXPECT_NE(refused.status().message().find(
                  version < kCheckpointVersion ? "older" : "newer"),
              std::string::npos)
        << refused.status().message();
  }
}

// ------------------------------------------------------------------- //
// Session layer: fingerprints and answer-log-aware recovery.
// ------------------------------------------------------------------- //

TEST(SessionTest, FingerprintSensitivity) {
  BayesCrowdOptions options;
  const std::uint64_t base = ConfigFingerprint(options, "data", "platform");
  EXPECT_EQ(base, ConfigFingerprint(options, "data", "platform"));
  EXPECT_NE(base, ConfigFingerprint(options, "data2", "platform"));
  EXPECT_NE(base, ConfigFingerprint(options, "data", "platform2"));

  BayesCrowdOptions changed = options;
  changed.budget += 1;
  EXPECT_NE(base, ConfigFingerprint(changed, "data", "platform"));

  // Thread count is excluded by design: results are bit-identical at
  // any thread count, so a resume may change it.
  BayesCrowdOptions threaded = options;
  threaded.threads = 8;
  EXPECT_EQ(base, ConfigFingerprint(threaded, "data", "platform"));
}

TEST(SessionTest, RecoverReplaysTailAndDropsTornLine) {
  const std::string dir = FreshDir("bc_session_recover");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";

  // Three durable entries plus a torn final line (killed mid-append).
  WriteFileBytes(log_path,
                 "# bayescrowd answer log v2\n"
                 "vc 0 1 > 3 g 1\n"
                 "vc 1 0 < 5 l 1\n"
                 "vv 2 1 > 0 1 g 2\n"
                 "vc 2 0 > 4");  // Torn: no relation/round/newline.

  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 1;
  state.config_fingerprint = 42;
  ASSERT_TRUE(store.Write(state).ok());

  const auto recovered = RecoverSession(dir, log_path, 42);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->durable_entries, 3u);
  EXPECT_EQ(recovered->state.rounds, 1u);
  ASSERT_EQ(recovered->replay_tail.entries.size(), 2u);
  EXPECT_EQ(recovered->replay_tail.entries[1].round, 2u);

  // The torn line was scrubbed from disk: a plain strict load succeeds
  // and sees exactly the three durable entries.
  const auto reloaded = LoadAnswerLog(log_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->entries.size(), 3u);
}

TEST(SessionTest, RecoverRefusesFingerprintMismatch) {
  const std::string dir = FreshDir("bc_session_fpr");
  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  state.config_fingerprint = 7;
  ASSERT_TRUE(store.Write(state).ok());

  const auto recovered = RecoverSession(dir, dir + "/answers.log", 8);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsFailedPrecondition())
      << recovered.status().ToString();

  // Fingerprint 0 skips the check (caller opted out).
  EXPECT_TRUE(RecoverSession(dir, dir + "/answers.log", 0).ok());
}

}  // namespace
}  // namespace bayescrowd

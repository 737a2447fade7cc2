// Checkpoint format and store tests: envelope integrity, payload
// round-trips, generation management, corruption fallback, and the
// committed v12 golden fixture (format-drift contract).

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/fileio.h"
#include "common/journal.h"
#include "core/session.h"
#include "crowd/record_replay.h"
#include "obs/metrics.h"

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

/// A deterministic, richly-populated state: every field class exercised
/// (round logs with recovery data and an abandoned round, var-const and
/// var-var answers, metrics of all three kinds, a platform blob,
/// session-layer stamps). Also the generator of the committed golden
/// fixture — see GoldenV12FixtureTest.
SessionState MakeGoldenState() {
  SessionState state;
  state.budget_left = 12.5;
  state.cost_spent = 11.5;

  // Two delivered rounds (two answers, then one), then an abandoned
  // round: three rounds, the last one barren.
  RoundLog log;
  log.round = 1;
  log.tasks = 3;
  log.seconds = 0.0;  // Wall clock is not part of determinism.
  log.attempts = 2;
  log.answered = 2;
  log.unanswered = 1;
  log.cost_refunded = 1.0;
  log.backoff_seconds = 0.5;
  log.simulated_seconds = 7.5;
  state.round_logs.push_back(log);
  log.round = 2;
  log.tasks = 1;
  log.attempts = 1;
  log.answered = 1;
  log.unanswered = 0;
  log.cost_refunded = 0.0;
  log.backoff_seconds = 0.0;
  log.simulated_seconds = 1.0;
  state.round_logs.push_back(log);
  RoundLog abandoned;
  abandoned.round = 3;
  abandoned.attempts = 3;
  abandoned.backoff_seconds = 3.0;
  abandoned.simulated_seconds = 6.0;
  abandoned.abandoned = true;
  state.round_logs.push_back(abandoned);

  state.answers = {
      {Expression::VarConst(V(2, 1), CmpOp::kGreater, 3), Ordering::kGreater},
      {Expression::VarVar(V(2, 0), CmpOp::kLess, V(0, 0)), Ordering::kLess},
      {Expression::VarConst(V(2, 1), CmpOp::kLess, 7), Ordering::kEqual}};

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
  const std::string wrapped = WrapCheckpoint(payload).value();
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(unwrapped.value(), payload);
}

TEST(CheckpointEnvelopeTest, DetectsPayloadCorruption) {
  std::string wrapped = WrapCheckpoint("the payload under test").value();
  // Flip one payload byte; the CRC must catch it.
  wrapped[20] = static_cast<char>(wrapped[20] ^ 0x40);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_FALSE(unwrapped.ok());
  EXPECT_TRUE(unwrapped.status().IsIOError())
      << unwrapped.status().ToString();
}

TEST(CheckpointEnvelopeTest, DetectsCrcCorruption) {
  std::string wrapped = WrapCheckpoint("another payload").value();
  wrapped.back() = static_cast<char>(wrapped.back() ^ 0x01);
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, DetectsTruncationAtEveryLength) {
  const std::string wrapped = WrapCheckpoint("payload that gets cut").value();
  for (std::size_t len = 0; len < wrapped.size(); ++len) {
    const auto unwrapped = UnwrapCheckpoint(wrapped.substr(0, len));
    ASSERT_FALSE(unwrapped.ok()) << "length " << len;
    EXPECT_TRUE(unwrapped.status().IsIOError()) << "length " << len;
  }
}

TEST(CheckpointEnvelopeTest, RejectsBadMagic) {
  std::string wrapped = WrapCheckpoint("payload").value();
  wrapped[0] = 'X';
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, RejectsFutureVersionWithClearError) {
  std::string wrapped = WrapCheckpoint("payload").value();
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
  EXPECT_EQ(restored.budget_left, original.budget_left);
  EXPECT_EQ(restored.answers, original.answers);
  EXPECT_EQ(restored.answers[1].expression.rhs_var, V(0, 0));
  EXPECT_EQ(restored.config_fingerprint, original.config_fingerprint);
  // Neither is stored: both are read off the round logs.
  EXPECT_EQ(restored.rounds(), 3u);
  EXPECT_EQ(restored.consecutive_barren(), 1u);
}

TEST(SessionStateTest, RejectsAnOutOfDomainRelation) {
  SessionState state = MakeGoldenState();
  state.answers[1].relation = static_cast<Ordering>(3);
  const std::string payload = SerializeState(state);
  BinReader reader(payload);
  SessionState restored;
  EXPECT_TRUE(DeserializeSessionState(&reader, &restored).IsOutOfRange());
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
    state.round_logs.resize(round);
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
  EXPECT_EQ(loaded->rounds(), 4u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, FallsBackPastCorruptNewestGeneration) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_fallback");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.round_logs.resize(round);
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
  EXPECT_EQ(loaded->rounds(), 2u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointStoreTest, SkipsSnapshotAheadOfAnswerLog) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_ahead");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.round_logs.resize(1);
  state.answer_log_offset = 2;
  ASSERT_TRUE(store.Write(state).ok());
  state.round_logs.resize(2);
  state.answer_log_offset = 10;  // More than the log will hold.
  ASSERT_TRUE(store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(/*max_valid_log_entries=*/5,
                                       &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds(), 1u);
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
  state.round_logs.resize(1);
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
  state.round_logs.resize(1);
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
    state.round_logs.resize(round);
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
    EXPECT_GE(loaded->rounds(), 1u);
    EXPECT_LE(loaded->rounds(), 3u);
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
    state.round_logs.resize(round);
    state.budget_left = 100.0 + static_cast<double>(round);
    ASSERT_TRUE(alpha.Write(state).ok());
  }
  state.round_logs.resize(1);
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
  EXPECT_EQ(from_alpha->rounds(), 3u);
  EXPECT_EQ(from_alpha->budget_left, 103.0);
  const auto from_beta = beta.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(from_beta.ok()) << from_beta.status().ToString();
  EXPECT_EQ(from_beta->rounds(), 1u);
  EXPECT_EQ(from_beta->budget_left, 7.0);

  // A legacy (un-namespaced) store sharing the directory sees neither
  // session's files, and its own writes are invisible to both.
  CheckpointStore legacy({.dir = dir});
  EXPECT_TRUE(legacy.ListGenerations().empty());
  state.round_logs.resize(9);
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
  state.round_logs.resize(1);
  ASSERT_TRUE(longer.Write(state).ok());

  EXPECT_TRUE(shorter.ListGenerations().empty());
  std::size_t fallbacks = 0;
  EXPECT_TRUE(shorter.LoadLatest(100, &fallbacks).status().IsNotFound());

  state.round_logs.resize(2);
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
  state.round_logs.resize(1);
  state.answer_log_offset = 0;
  ASSERT_TRUE(store.Write(state).ok());

  // A kill before the rename: the tmp file never becomes a generation.
  CheckpointStore::Options failing = options;
  failing.pre_rename_hook = [](const std::string&) {
    return Status::IOError("simulated kill before rename");
  };
  CheckpointStore failing_store(failing);
  state.round_logs.resize(2);
  EXPECT_FALSE(failing_store.Write(state).ok());

  EXPECT_EQ(store.ListGenerations(),
            std::vector<std::string>{"ckpt-00000001.bin"});
  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rounds(), 1u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, TornTmpWritePromotedByRenameFallsBack) {
  // The hook truncates the tmp file *and lets the rename happen*: the
  // worst realistic torn-write outcome. The loader must fall back.
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_torn");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.round_logs.resize(1);
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
  state.round_logs.resize(2);
  ASSERT_TRUE(tearing_store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds(), 1u);
  EXPECT_EQ(fallbacks, 1u);
}

// ------------------------------------------------------------------- //
// Golden fixture. golden_v12.ckpt matches today's writer byte-for-byte,
// envelope included; regenerate with:
//   BC_REGEN_GOLDEN=1 ./checkpoint_test
// ------------------------------------------------------------------- //

TEST(GoldenV12FixtureTest, CommittedFixtureMatchesHeadBytes) {
  const std::string path = std::string(BC_TESTDATA_DIR) + "/golden_v12.ckpt";
  const SessionState expected = MakeGoldenState();
  if (std::getenv("BC_REGEN_GOLDEN") != nullptr) {
    WriteFileBytes(path, WrapCheckpoint(SerializeState(expected)).value());
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty()) << "missing fixture " << path;

  // Any drift in the envelope or the payload fails here:
  // a writer change needs a kCheckpointVersion bump and a regenerated
  // fixture.
  EXPECT_EQ(bytes, WrapCheckpoint(SerializeState(expected)).value());
  const auto payload = UnwrapCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  BinReader reader(payload.value());
  SessionState restored;
  ASSERT_TRUE(DeserializeSessionState(&reader, &restored).ok());
  EXPECT_EQ(restored.answers, expected.answers);
  ASSERT_EQ(restored.solver_breakers.size(), 2u);
  EXPECT_EQ(restored.solver_breakers[0].object, 2u);
  EXPECT_TRUE(restored.solver_breakers[0].open);
  EXPECT_EQ(restored.solver_breakers[0].last.quality,
            ProbQuality::kPartialBound);
  EXPECT_EQ(restored.solver_breakers[1].object, 5u);
  EXPECT_FALSE(restored.solver_breakers[1].open);
}

TEST(CheckpointEnvelopeTest, RefusesEveryOtherVersion) {
  // The CRC covers only the payload, so the version byte may be edited
  // in place: only kCheckpointVersion itself unwraps.
  std::string wrapped = WrapCheckpoint("payload").value();
  ASSERT_EQ(kCheckpointVersion, 12u);
  for (const std::uint32_t version :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 13u}) {
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

AnswerLogEntry LogEntry(std::size_t object, std::size_t round) {
  AnswerLogEntry entry;
  entry.expression =
      Expression::VarConst({object, 1}, CmpOp::kGreater, 3);
  entry.relation = Ordering::kGreater;
  entry.round = round;
  return entry;
}

std::string LogRecord(std::size_t object, std::size_t round) {
  std::string record;
  BAYESCROWD_CHECK_OK(EncodeJournalRecord(
      EncodeAnswerLogEntry(LogEntry(object, round)), &record));
  return record;
}

/// Three durable entries (rounds 1, 1, 2) and the front half of a
/// fourth record: what a kill mid-append leaves.
std::string TornAnswerLog() {
  const std::string torn = LogRecord(3, 2);
  return JournalHeader(kAnswerLogFormat) + LogRecord(0, 1) +
         LogRecord(1, 1) + LogRecord(2, 2) + torn.substr(0, torn.size() / 2);
}

/// One generation at round 1 referencing one answer-log entry.
void WriteRoundOneSnapshot(const std::string& dir,
                           std::uint64_t fingerprint) {
  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.round_logs.resize(1);
  state.answer_log_offset = 1;
  state.config_fingerprint = fingerprint;
  ASSERT_TRUE(store.Write(state).ok());
}

TEST(SessionTest, RecoverReplaysTailAndDropsTornRecord) {
  const std::string dir = FreshDir("bc_session_recover");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";
  WriteFileBytes(log_path, TornAnswerLog());
  WriteRoundOneSnapshot(dir, 42);

  const auto recovered = RecoverSession(dir, log_path, 42);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->durable_entries, 3u);
  EXPECT_EQ(recovered->state.rounds(), 1u);
  ASSERT_EQ(recovered->replay_tail.entries.size(), 2u);
  EXPECT_EQ(recovered->replay_tail.entries[1], LogEntry(2, 2));

  // The torn record was scrubbed from disk: the log reloads clean with
  // exactly the three durable entries.
  bool torn = true;
  const auto reloaded = LoadAnswerLog(log_path, &torn);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_FALSE(torn);
  EXPECT_EQ(reloaded->entries.size(), 3u);
}

TEST(SessionTest, FailedRepairLeavesTheLogByteIdentical) {
  const std::string dir = FreshDir("bc_session_repair");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";
  WriteFileBytes(log_path, TornAnswerLog());
  WriteRoundOneSnapshot(dir, 42);

  // The repair's tmp write tears: the old log must stay in place, so a
  // later resume still sees all three durable entries.
  FaultPlan plan;
  plan.write_fail_rate = 1.0;
  FaultInjectingFileIo io(plan);
  const auto recovered = RecoverSession(dir, log_path, 42, &io);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsIOError())
      << recovered.status().ToString();
  EXPECT_EQ(ReadFileBytes(log_path), TornAnswerLog());
  EXPECT_FALSE(std::filesystem::exists(log_path + ".tmp"));
  EXPECT_TRUE(RecoverSession(dir, log_path, 42).ok());
}

TEST(SessionTest, TextAnswerLogIsRefusedAndLeftIntact) {
  const std::string dir = FreshDir("bc_session_text_log");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";
  const std::string text =
      "# bayescrowd answer log v3\nvc 0 1 > 3 g 1 7:g:30\n";
  WriteFileBytes(log_path, text);
  WriteRoundOneSnapshot(dir, 42);

  const auto recovered = RecoverSession(dir, log_path, 42);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsIOError())
      << recovered.status().ToString();
  EXPECT_EQ(ReadFileBytes(log_path), text);
}

/// A platform that is never asked anything: DurableSession::Open only
/// stacks decorators on it.
class IdlePlatform : public CrowdPlatform {
 public:
  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>&) override {
    return Status::Internal("not posted in this test");
  }
  std::size_t total_tasks() const override { return 0; }
  std::size_t total_rounds() const override { return 0; }
};

TEST(SessionTest, FreshOpenRefusesADirectoryHoldingASession) {
  const std::string dir = FreshDir("bc_session_fresh");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";
  const std::string log = JournalHeader(kAnswerLogFormat) + LogRecord(0, 1);
  WriteFileBytes(log_path, log);

  IdlePlatform live;
  BayesCrowdOptions run;
  DurableSession::Options options;
  options.dir = dir;
  const auto refused = DurableSession::Open(options, live, &run);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());
  EXPECT_NE(refused.status().message().find(dir), std::string::npos);
  EXPECT_EQ(ReadFileBytes(log_path), log);  // Nothing truncated.

  // A generation alone is enough to refuse, too.
  WriteFileBytes(log_path, "");
  WriteRoundOneSnapshot(dir, 42);
  EXPECT_TRUE(DurableSession::Open(options, live, &run)
                  .status()
                  .IsFailedPrecondition());

  // The same directory resumes.
  WriteFileBytes(log_path, log);
  options.resume = true;
  const auto resumed = DurableSession::Open(options, live, &run);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(run.resume, &(*resumed)->recovered()->state);
}

TEST(SessionTest, RecoverRefusesFingerprintMismatch) {
  const std::string dir = FreshDir("bc_session_fpr");
  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.round_logs.resize(1);
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

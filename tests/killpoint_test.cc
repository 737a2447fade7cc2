// Kill-point harness: a seeded, faulted, checkpointed query session is
// killed at every checkpoint boundary (before the write, after the
// write, and mid-write with a torn tmp file), then resumed in a fresh
// platform stack. The resumed run's telemetry envelope must diff clean
// against the uninterrupted reference modulo wall-clock fields, lane
// usage, and resume markers — the headline guarantee of the
// crash-safety subsystem. A second profile (learned posteriors, faults
// heavy enough to abandon rounds) resumes from every generation of a
// run that ends in the barren stop. A noisy crowd then checks a
// resume's replay of the checkpoint's answers against the live run,
// and that a resume refuses answers that do not fit the table or the
// round logs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/random.h"
#include "core/checkpoint.h"
#include "core/framework.h"
#include "core/query_spec.h"
#include "core/runner.h"
#include "core/session.h"
#include "core/telemetry.h"
#include "core/update.h"
#include "crowd/fault_injection.h"
#include "crowd/platform.h"
#include "ctable/knowledge.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/normalize.h"

namespace bayescrowd {
namespace {

constexpr std::uint64_t kWorkerSeed = 5;
constexpr char kSessionConfig[] = "killpoint-fixture|sim";

Table KillDataset() {
  Rng rng(0xD15EA5E);
  return InjectMissingUniform(MakeNbaLike(120, kWorkerSeed), 0.15, rng);
}

Table KillTruth() { return MakeNbaLike(120, kWorkerSeed); }

/// What a kill-point run faces: the crowd's fault schedule and the
/// posterior model.
struct Profile {
  double fault_rate = 0.15;
  std::uint64_t fault_seed = 77;
  /// Learned posteriors (a hill-climbed network, the CLI's default)
  /// instead of uniform ones.
  bool learned = false;
};

/// Faults that cost retries and refunds but leave the run its budget.
constexpr Profile kFixture;

/// Faults that abandon rounds until the barren stop ends the run.
constexpr Profile kBarren{.fault_rate = 0.8, .fault_seed = 3, .learned = true};

std::unique_ptr<PosteriorProvider> KillPosteriors(const Profile& profile,
                                                  const Table& incomplete) {
  if (!profile.learned) {
    return std::make_unique<UniformPosteriorProvider>(incomplete.schema());
  }
  auto model = PosteriorModel::Learn(PosteriorStructure::kHillClimb,
                                     incomplete);
  BAYESCROWD_CHECK_OK(model.status());
  return std::move(model).value();
}

BayesCrowdOptions KillOptions(std::size_t threads,
                              obs::MetricsRegistry* metrics) {
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.budget = 18;
  options.latency = 6;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 5;
  options.threads = threads;
  options.metrics = metrics;
  return options;
}

std::uint64_t Fingerprint(const BayesCrowdOptions& options) {
  return ConfigFingerprint(options, "killpoint-data", kSessionConfig);
}

std::string NormalizedEnvelope(const BayesCrowdOptions& options,
                               const BayesCrowdResult& result) {
  obs::NormalizeOptions normalize;
  normalize.strip_lane_usage = true;
  normalize.strip_resume_markers = true;
  return obs::NormalizeTelemetry(
             RunTelemetryJson("killpoint", options, result), normalize)
      .Dump(2);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Forwards `kill_after` writes to the store, then fails the next one —
/// the framework propagates the failure out of Run(), which is the
/// in-process stand-in for SIGKILL at a checkpoint boundary. With
/// `write_before_kill`, the fatal boundary's snapshot still lands on
/// disk first (kill between rename and return).
class KillingSink : public CheckpointSink {
 public:
  KillingSink(CheckpointSink* inner, std::size_t kill_after,
              bool write_before_kill)
      : inner_(inner),
        kill_after_(kill_after),
        write_before_kill_(write_before_kill) {}

  Status Write(const SessionState& state) override {
    if (writes_ == kill_after_) {
      if (write_before_kill_) {
        const Status written = inner_->Write(state);
        if (!written.ok()) return written;
      }
      return Status::Unavailable("simulated kill at checkpoint boundary");
    }
    ++writes_;
    return inner_->Write(state);
  }

 private:
  CheckpointSink* inner_;
  std::size_t kill_after_;
  bool write_before_kill_;
  std::size_t writes_ = 0;
};

/// The uninterrupted reference: same seeds, same fault schedule, no
/// checkpoint machinery at all (also proves checkpointing is
/// behavior-neutral when compared against the checkpointed runs).
struct Reference {
  BayesCrowdResult result;
  std::string envelope;
};

Reference RunReference(std::size_t threads,
                       const Profile& profile = kFixture) {
  const Table incomplete = KillDataset();
  const Table truth = KillTruth();
  const auto posteriors = KillPosteriors(profile, incomplete);
  obs::MetricsRegistry metrics;
  const BayesCrowdOptions options = KillOptions(threads, &metrics);
  SimulatedCrowdPlatform sim(truth, {.worker_accuracy = 0.95,
                                     .seed = kWorkerSeed});
  FaultInjectingPlatform faulter(
      sim, FaultOptions::Profile(profile.fault_rate, profile.fault_seed));
  faulter.BindMetrics(&metrics);
  BayesCrowd framework(options);
  auto result = framework.Run(incomplete, *posteriors, faulter);
  BAYESCROWD_CHECK_OK(result.status());
  Reference out;
  out.envelope = NormalizedEnvelope(options, result.value());
  out.result = std::move(result).value();
  return out;
}

/// One checkpointed session (fresh or resumed) against the durable
/// state in `dir`, through the same entry point the CLI runs. Returns
/// Run()'s status; on success fills `result` and `envelope`.
Status RunSession(std::size_t threads, const std::string& dir,
                  bool resume, CheckpointSink* sink_override,
                  CheckpointStore* store, BayesCrowdResult* result,
                  std::string* envelope, std::size_t* fallbacks,
                  const Profile& profile = kFixture) {
  const Table incomplete = KillDataset();
  const Table truth = KillTruth();
  const auto posteriors = KillPosteriors(profile, incomplete);
  obs::MetricsRegistry metrics;
  BayesCrowdOptions options = KillOptions(threads, &metrics);
  options.checkpoint_every = 1;

  SimulatedCrowdPlatform sim(truth, {.worker_accuracy = 0.95,
                                     .seed = kWorkerSeed});
  FaultInjectingPlatform faulter(
      sim, FaultOptions::Profile(profile.fault_rate, profile.fault_seed));
  faulter.BindMetrics(&metrics);

  DurableSession::Options durable;
  durable.dir = dir;
  durable.resume = resume;
  durable.fingerprint = Fingerprint(options);
  durable.sink = sink_override != nullptr ? sink_override : store;
  auto session = DurableSession::Open(durable, faulter, &options);
  if (!session.ok()) return session.status();
  if (fallbacks != nullptr && (*session)->recovered() != nullptr) {
    *fallbacks = (*session)->recovered()->fallbacks;
  }

  BayesCrowd framework(options);
  auto run = framework.Run(incomplete, *posteriors, (*session)->platform());
  if (!run.ok()) return run.status();
  if (envelope != nullptr) *envelope = NormalizedEnvelope(options, *run);
  if (result != nullptr) *result = std::move(run).value();
  return Status::OK();
}

/// Counts the checkpoint boundaries of an uninterrupted checkpointed
/// run (= rounds, with checkpoint_every=1).
std::size_t CountBoundaries(std::size_t threads) {
  const std::string dir = FreshDir("bc_kp_count");
  CheckpointStore store({.dir = dir});
  BayesCrowdResult result;
  std::string envelope;
  BAYESCROWD_CHECK_OK(RunSession(threads, dir, /*resume=*/false,
                                 /*sink_override=*/nullptr, &store,
                                 &result, &envelope, nullptr));
  return result.rounds;
}

void ExpectKillResumeDiffsClean(std::size_t threads,
                                const Reference& reference,
                                std::size_t kill_point,
                                bool write_before_kill) {
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               " kill_point=" + std::to_string(kill_point) +
               (write_before_kill ? " after-write" : " before-write"));
  const std::string dir = FreshDir(
      "bc_kp_" + std::to_string(threads) + "_" +
      std::to_string(kill_point) + (write_before_kill ? "a" : "b"));
  CheckpointStore store({.dir = dir});

  KillingSink killer(&store, kill_point, write_before_kill);
  const Status killed =
      RunSession(threads, dir, /*resume=*/false, &killer, &store,
                 nullptr, nullptr, nullptr);
  ASSERT_TRUE(killed.IsUnavailable()) << killed.ToString();

  BayesCrowdResult resumed;
  std::string envelope;
  const Status ok =
      RunSession(threads, dir, /*resume=*/true, /*sink_override=*/nullptr,
                 &store, &resumed, &envelope, nullptr);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  // kill_point 0 / before-write recovers from scratch (no snapshot
  // existed yet), so `resumed` is legitimately false there.
  if (kill_point > 0 || write_before_kill) EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(envelope, reference.envelope);
}

// ------------------------------------------------------------------ //
// Kill at every boundary, single-threaded
// ------------------------------------------------------------------ //

TEST(KillPointTest, EveryBoundarySingleThread) {
  const Reference reference = RunReference(1);
  const std::size_t boundaries = CountBoundaries(1);
  ASSERT_GE(boundaries, 2u) << "fixture too small to exercise resume";
  for (std::size_t k = 0; k < boundaries; ++k) {
    ExpectKillResumeDiffsClean(1, reference, k, /*write_before_kill=*/false);
    ExpectKillResumeDiffsClean(1, reference, k, /*write_before_kill=*/true);
  }
}

// ------------------------------------------------------------------ //
// Kill at every boundary, 8 threads (results are thread-invariant, so
// the same reference envelope must emerge)
// ------------------------------------------------------------------ //

TEST(KillPointTest, EveryBoundaryEightThreads) {
  const Reference reference = RunReference(8);
  const std::size_t boundaries = CountBoundaries(8);
  ASSERT_GE(boundaries, 2u);
  for (std::size_t k = 0; k < boundaries; ++k) {
    ExpectKillResumeDiffsClean(8, reference, k, /*write_before_kill=*/false);
    ExpectKillResumeDiffsClean(8, reference, k, /*write_before_kill=*/true);
  }
}

TEST(KillPointTest, ThreadCountsAgreeOnReference) {
  // The envelope embeds options.threads, so compare the results
  // themselves: the query outcome must be thread-invariant.
  const Reference a = RunReference(1);
  const Reference b = RunReference(8);
  EXPECT_EQ(a.result.result_objects, b.result.result_objects);
  EXPECT_EQ(a.result.probabilities, b.result.probabilities);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.tasks_posted, b.result.tasks_posted);
  EXPECT_EQ(a.result.cost_spent, b.result.cost_spent);
  EXPECT_EQ(a.result.cost_refunded, b.result.cost_refunded);
  EXPECT_EQ(a.result.simulated_seconds, b.result.simulated_seconds);
}

// ------------------------------------------------------------------ //
// Mid-write kill: the tmp file is torn AND promoted by the rename, then
// the process dies. Recovery must fall back past the torn generation.
// ------------------------------------------------------------------ //

TEST(KillPointTest, TornCheckpointWriteFallsBackAGeneration) {
  const Reference reference = RunReference(1);
  const std::string dir = FreshDir("bc_kp_torn");

  std::size_t writes = 0;
  CheckpointStore::Options tearing;
  tearing.dir = dir;
  tearing.pre_rename_hook = [&writes](const std::string& tmp_path) {
    if (++writes < 2) return Status::OK();  // Tear the second boundary.
    std::error_code ec;
    std::filesystem::resize_file(
        tmp_path, std::filesystem::file_size(tmp_path) / 2, ec);
    return ec ? Status::IOError(ec.message()) : Status::OK();
  };
  CheckpointStore tearing_store(tearing);
  // Kill right after the torn write was "successfully" promoted.
  KillingSink killer(&tearing_store, 2, /*write_before_kill=*/false);
  const Status killed =
      RunSession(1, dir, /*resume=*/false, &killer, &tearing_store,
                 nullptr, nullptr, nullptr);
  ASSERT_TRUE(killed.IsUnavailable()) << killed.ToString();

  CheckpointStore store({.dir = dir});
  BayesCrowdResult resumed;
  std::string envelope;
  std::size_t fallbacks = 0;
  const Status ok =
      RunSession(1, dir, /*resume=*/true, /*sink_override=*/nullptr,
                 &store, &resumed, &envelope, &fallbacks);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_GE(fallbacks, 1u);  // recovery.fallback
  EXPECT_EQ(envelope, reference.envelope);
}

// ------------------------------------------------------------------ //
// Corrupted newest snapshot after a clean shutdown: resume falls back
// to the previous generation and replays the final round from the log.
// ------------------------------------------------------------------ //

TEST(KillPointTest, CorruptNewestSnapshotFallsBackAndReplays) {
  const Reference reference = RunReference(1);
  const std::string dir = FreshDir("bc_kp_corrupt");
  CheckpointStore store({.dir = dir});
  BayesCrowdResult first;
  std::string first_envelope;
  BAYESCROWD_CHECK_OK(RunSession(1, dir, /*resume=*/false,
                                 /*sink_override=*/nullptr, &store, &first,
                                 &first_envelope, nullptr));
  EXPECT_EQ(first_envelope, reference.envelope);

  const auto generations = store.ListGenerations();
  ASSERT_GE(generations.size(), 2u);
  const std::string newest = dir + "/" + generations.back();
  {
    std::filesystem::resize_file(newest,
                                 std::filesystem::file_size(newest) / 3);
  }

  BayesCrowdResult resumed;
  std::string envelope;
  std::size_t fallbacks = 0;
  const Status ok =
      RunSession(1, dir, /*resume=*/true, /*sink_override=*/nullptr,
                 &store, &resumed, &envelope, &fallbacks);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_GE(fallbacks, 1u);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(envelope, reference.envelope);
}

// ------------------------------------------------------------------ //
// Barren stop: learned posteriors and faults heavy enough to abandon
// rounds. A resume from every generation (the newer ones removed) and
// from the finished run's own directory must end where the
// uninterrupted run ended: the same rounds, tasks, degraded flag and
// probabilities, bit for bit.
// ------------------------------------------------------------------ //

TEST(KillPointTest, ResumeFromEveryGenerationKeepsTheBarrenStop) {
  const Reference reference = RunReference(1, kBarren);
  ASSERT_TRUE(reference.result.degraded)
      << "profile must end in the barren stop";
  ASSERT_GT(reference.result.rounds_abandoned, 0u);

  const std::string dir = FreshDir("bc_kp_barren");
  CheckpointStore store({.dir = dir, .keep = 100});
  std::string envelope;
  BAYESCROWD_CHECK_OK(RunSession(1, dir, /*resume=*/false,
                                 /*sink_override=*/nullptr, &store, nullptr,
                                 &envelope, nullptr, kBarren));
  EXPECT_EQ(envelope, reference.envelope);
  const std::vector<std::string> generations = store.ListGenerations();
  ASSERT_EQ(generations.size(), reference.result.rounds);
  ASSERT_GE(generations.size(), 3u);

  for (std::size_t g = 0; g < generations.size(); ++g) {
    SCOPED_TRACE("resumed from " + generations[g]);
    const std::string copy = FreshDir("bc_kp_barren_copy");
    std::filesystem::copy(dir, copy);
    for (std::size_t newer = g + 1; newer < generations.size(); ++newer) {
      std::filesystem::remove(copy + "/" + generations[newer]);
    }
    CheckpointStore copy_store({.dir = copy, .keep = 100});
    BayesCrowdResult resumed;
    const Status ok = RunSession(1, copy, /*resume=*/true,
                                 /*sink_override=*/nullptr, &copy_store,
                                 &resumed, &envelope, nullptr, kBarren);
    ASSERT_TRUE(ok.ok()) << ok.ToString();
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(envelope, reference.envelope);
  }

  // The finished run's own directory: a resume has nothing left to buy.
  BayesCrowdResult resumed;
  const Status ok = RunSession(1, dir, /*resume=*/true,
                               /*sink_override=*/nullptr, &store, &resumed,
                               &envelope, nullptr, kBarren);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(resumed.tasks_posted, reference.result.tasks_posted);
  EXPECT_EQ(envelope, reference.envelope);
}

// ------------------------------------------------------------------ //
// Replay: a resume folds the checkpoint's answers again onto the
// rebuilt c-table. A noisy crowd contradicts its own interval answers
// (newest wins), so only a replay in the live order matches.
// ------------------------------------------------------------------ //

Table NoisyTruth() { return MakeNbaLike(200, kWorkerSeed); }

Table NoisyDataset() {
  Rng rng(0xD15EA5E);
  return InjectMissingUniform(NoisyTruth(), 0.2, rng);
}

/// Keeps a copy of every snapshot the run writes.
class CapturingSink : public CheckpointSink {
 public:
  Status Write(const SessionState& state) override {
    states.push_back(state);
    return Status::OK();
  }
  std::vector<SessionState> states;
};

/// The noisy query (three workers of accuracy 0.6 per task), resumed
/// from `resume` (null: fresh), stepped at most `steps` rounds, then
/// finished. Snapshots every round into `sink` when one is given.
Result<BayesCrowdResult> RunNoisy(const SessionState* resume,
                                  std::size_t steps, CheckpointSink* sink) {
  const Table incomplete = NoisyDataset();
  UniformPosteriorProvider posteriors(incomplete.schema());
  obs::MetricsRegistry metrics;
  BayesCrowdOptions options = KillOptions(/*threads=*/2, &metrics);
  options.budget = 40;
  options.latency = 8;
  options.resume = resume;
  options.checkpoint_sink = sink;
  options.checkpoint_every = 1;
  SimulatedPlatformOptions crowd;
  crowd.worker_accuracy = 0.6;
  crowd.seed = kWorkerSeed;
  SimulatedCrowdPlatform sim(NoisyTruth(), crowd);
  QueryRunner runner(options);
  BAYESCROWD_RETURN_NOT_OK(runner.Init(incomplete, posteriors, sim));
  for (std::size_t s = 0; s < steps && !runner.Done(); ++s) {
    BAYESCROWD_RETURN_NOT_OK(runner.Step());
  }
  BAYESCROWD_RETURN_NOT_OK(runner.Finish());
  return runner.TakeResult();
}

/// The var-const answers that contradict the variable's interval when
/// `answers` are folded in order (newest wins, so the interval leaves
/// the old one). Every answer must fold.
std::size_t CountIntervalResets(const Schema& schema,
                                const std::vector<FoldedAnswer>& answers) {
  KnowledgeBase knowledge(schema);
  std::size_t resets = 0;
  for (const FoldedAnswer& answer : answers) {
    const auto before = knowledge.Bounds(answer.expression.lhs);
    EXPECT_TRUE(ApplyAnswer(answer, &knowledge).ok());
    const auto after = knowledge.Bounds(answer.expression.lhs);
    if (after.first < before.first || after.second > before.second) {
      ++resets;
    }
  }
  return resets;
}

TEST(ResumeReplayTest, EveryGenerationMatchesTheLiveRunStoppedThere) {
  CapturingSink sink;
  const auto full = RunNoisy(nullptr, SIZE_MAX, &sink);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GE(sink.states.size(), 2u);
  EXPECT_GT(CountIntervalResets(NoisyDataset().schema(),
                                sink.states.back().answers),
            0u);

  for (const SessionState& state : sink.states) {
    SCOPED_TRACE("generation " + std::to_string(state.rounds()));
    const auto live = RunNoisy(nullptr, state.rounds(), nullptr);
    const auto resumed = RunNoisy(&state, 0, nullptr);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(live->rounds, state.rounds());
    ASSERT_EQ(resumed->rounds, state.rounds());
    const CTable& want = live->final_ctable;
    const CTable& got = resumed->final_ctable;
    ASSERT_EQ(got.num_objects(), want.num_objects());
    for (std::size_t i = 0; i < want.num_objects(); ++i) {
      EXPECT_TRUE(got.condition(i) == want.condition(i)) << "object " << i;
      EXPECT_EQ(got.condition(i).Fingerprint(),
                want.condition(i).Fingerprint())
          << "object " << i;
    }
    ASSERT_EQ(resumed->probability_intervals.size(),
              live->probability_intervals.size());
    for (std::size_t i = 0; i < live->probability_intervals.size(); ++i) {
      const ProbInterval& a = live->probability_intervals[i];
      const ProbInterval& b = resumed->probability_intervals[i];
      EXPECT_EQ(b.lo, a.lo) << "object " << i;
      EXPECT_EQ(b.hi, a.hi) << "object " << i;
      EXPECT_EQ(b.quality, a.quality) << "object " << i;
    }
  }
}

TEST(ResumeReplayTest, RefusesAnswersOutsideTheTableOrTheRoundLogs) {
  CapturingSink sink;
  ASSERT_TRUE(RunNoisy(nullptr, SIZE_MAX, &sink).ok());
  ASSERT_GE(sink.states.size(), 2u);
  const SessionState& good = sink.states[1];
  ASSERT_FALSE(good.answers.empty());
  const Table incomplete = NoisyDataset();

  SessionState attribute = good;
  attribute.answers.back().expression.lhs.attribute =
      incomplete.num_attributes();
  SessionState object = good;
  object.answers.front().expression.lhs.object = incomplete.num_objects();
  SessionState overrun = good;
  ++overrun.round_logs.back().answered;
  SessionState unclaimed = good;
  --unclaimed.round_logs.front().answered;
  // No live round records a contradictory var-var answer: a recorded
  // order decides every expression on its pair, so the pair is not
  // asked again. The last generation with the contradiction of its
  // first var-var answer added to its last round is refused.
  SessionState contradicted = sink.states.back();
  const auto var_var =
      std::find_if(contradicted.answers.begin(), contradicted.answers.end(),
                   [](const FoldedAnswer& a) {
                     return a.expression.rhs_is_var;
                   });
  ASSERT_NE(var_var, contradicted.answers.end());
  FoldedAnswer contradiction = *var_var;
  contradiction.relation = var_var->relation == Ordering::kLess
                               ? Ordering::kGreater
                               : Ordering::kLess;
  contradicted.answers.push_back(contradiction);
  ASSERT_FALSE(contradicted.round_logs.back().abandoned);
  ++contradicted.round_logs.back().answered;

  for (const SessionState* bad : {&attribute, &object, &overrun,
                                  &unclaimed, &contradicted}) {
    // Through the checkpoint envelope, so the CRC holds: the refusal is
    // resume's, not the loader's.
    std::string payload;
    SerializeSessionState(*bad, &payload);
    const auto unwrapped = UnwrapCheckpoint(WrapCheckpoint(payload).value());
    ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
    BinReader reader(unwrapped.value());
    SessionState loaded;
    ASSERT_TRUE(DeserializeSessionState(&reader, &loaded).ok());
    const auto refused = RunNoisy(&loaded, 0, nullptr);
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
    if (bad == &contradicted) {
      EXPECT_NE(refused.status().message().find("contradictory"),
                std::string::npos)
          << refused.status().ToString();
    }
  }
  EXPECT_TRUE(RunNoisy(&good, 0, nullptr).ok());
  EXPECT_TRUE(RunNoisy(&sink.states.back(), 0, nullptr).ok());
}

}  // namespace
}  // namespace bayescrowd

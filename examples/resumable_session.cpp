// Resumable crowdsourcing: pause a query, keep the answers, continue
// later — without serializing any framework state.
//
// BayesCrowd is deterministic, so replaying the already-bought answers
// through a ReplayingPlatform reconstructs the interrupted session
// exactly, and the live platform is only charged for the remaining
// tasks. This example simulates the three steps a real deployment would
// take across process restarts (the CLI runs the same flow durably as
// `run --checkpoint-dir D`, then `run --checkpoint-dir D --resume` after
// a pause or a crash).
//
//   ./build/examples/resumable_session
//
// Exits 1 when the resumed answers differ from an uninterrupted run's;
// ctest runs it as `resumable_session`.

#include <cstdio>

#include "bayesnet/imputation.h"
#include "common/random.h"
#include "core/framework.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

using namespace bayescrowd;  // Example code; the library never does this.

int main() {
  const Table complete = MakeNbaLike(400, /*seed=*/2026, /*levels=*/8);
  Rng rng(5);
  const Table incomplete = InjectMissingUniform(complete, 0.1, rng);
  UniformPosteriorProvider posteriors(incomplete.schema());

  // The batch size must stay constant across sessions: task selection
  // adapts to each round's answers, so the replayed batches only line
  // up when ceil(budget / latency) does.
  constexpr std::size_t kTasksPerRound = 6;

  const auto options_for = [](std::size_t budget) {
    BayesCrowdOptions options;
    options.ctable.alpha = 0.1;
    options.budget = budget;
    options.latency =
        (budget + kTasksPerRound - 1) / kTasksPerRound;
    return options;
  };

  // --- Session 1: spend a third of the budget, then "walk away". ----- //
  AnswerLog saved_log;
  {
    SimulatedCrowdPlatform live(complete, {});
    RecordingPlatform recorder(live);
    BayesCrowd framework(options_for(30));
    const auto result = framework.Run(incomplete, posteriors, recorder);
    BAYESCROWD_CHECK_OK(result.status());
    saved_log = recorder.log();
    std::printf("session 1: spent %zu tasks over %zu rounds; transcript "
                "saved (%zu answers)\n",
                result->tasks_posted, result->rounds,
                saved_log.entries.size());
  }

  // On disk each entry is one record of the answer-log journal, which
  // `run --checkpoint-dir` appends as answers are bought. Round-trip the
  // transcript through that encoding.
  AnswerLog restored;
  for (const AnswerLogEntry& entry : saved_log.entries) {
    BAYESCROWD_CHECK_OK(DecodeAnswerLogEntry(
        EncodeAnswerLogEntry(entry), &restored.entries.emplace_back()));
  }

  // --- Session 2: resume with the full budget. ----------------------- //
  std::size_t resumed_tasks = 0;
  std::vector<std::size_t> resumed_answer;
  {
    SimulatedCrowdPlatform live(complete, {});
    ReplayingPlatform replay(restored, &live);
    BayesCrowd framework(options_for(90));
    const auto result = framework.Run(incomplete, posteriors, replay);
    BAYESCROWD_CHECK_OK(result.status());
    resumed_tasks = result->tasks_posted;
    resumed_answer = result->result_objects;
    // The live platform's totals also count the replayed tasks it
    // mirrored (SyncReplayed), so the new purchases are the difference.
    std::printf("session 2: replayed %zu answers, bought %zu new tasks "
                "(total %zu)\n",
                replay.replayed(), result->tasks_posted - replay.replayed(),
                result->tasks_posted);
  }

  // --- Reference: one uninterrupted run with the full budget. -------- //
  {
    SimulatedCrowdPlatform live(complete, {});
    BayesCrowd framework(options_for(90));
    const auto result = framework.Run(incomplete, posteriors, live);
    BAYESCROWD_CHECK_OK(result.status());
    const bool identical = result->result_objects == resumed_answer &&
                           result->tasks_posted == resumed_tasks;
    std::printf("reference:  %zu tasks, answers %s the resumed run\n",
                result->tasks_posted,
                identical ? "IDENTICAL to" : "DIFFER from");

    const auto truth = SkylineBnl(complete);
    BAYESCROWD_CHECK_OK(truth.status());
    std::printf("F1 vs ground truth: %.3f\n",
                EvaluateResultSet(resumed_answer, truth.value()).f1);
    return identical ? 0 : 1;
  }
}

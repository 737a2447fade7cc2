// FaultInjectingPlatform: a deterministic chaos layer for the crowd
// pipeline.
//
// Wraps any CrowdPlatform and, driven by a seeded schedule, injects the
// failure modes a real marketplace exhibits: whole-batch transient
// errors (platform down), batch timeouts, per-task abstentions (a
// worker never answers), and partial batches (a contiguous tail of the
// round is dropped). The schedule depends only on the fault seed and
// the sequence of PostBatch calls — never on wall clock or thread
// count — so a faulted run reproduces bit-identically and the
// framework's retry/degradation path can be pinned by tests. The
// injector models delivery faults only: what an answer says is the
// inner platform's business (its error model is crowd/quality.h's).
//
// Failed attempts never reach the inner platform (the batch never made
// it to the marketplace), so the inner platform's own random stream
// stays aligned with the successful attempts. Dropped tasks DO reach
// the inner platform (the work was assigned, the answer was lost) and
// their answers are overwritten with `answered = false`.
//
// With every rate at 0 the decorator is a transparent pass-through:
// answers, inner-platform state, and framework behavior are
// bit-identical to running without it (asserted by fault_test.cc).

#ifndef BAYESCROWD_CROWD_FAULT_INJECTION_H_
#define BAYESCROWD_CROWD_FAULT_INJECTION_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "crowd/platform.h"
#include "crowd/task.h"
#include "obs/metrics.h"

namespace bayescrowd {

struct FaultOptions {
  /// Per-attempt probability that PostBatch fails outright with
  /// Status::Unavailable before reaching the inner platform.
  double transient_failure_rate = 0.0;

  /// Per-task probability that an answer comes back abstained
  /// (`answered = false`).
  double abstain_rate = 0.0;

  /// Per-batch probability that the round comes back partial: a
  /// uniformly-drawn non-empty tail of the batch is dropped.
  double partial_batch_rate = 0.0;

  /// Drives the entire schedule; same seed = same faults.
  std::uint64_t seed = 42;

  /// Convenience: one knob for a mixed-fault profile, as exposed by the
  /// CLI's --fault-rate. Sets transient failures and abstentions to
  /// `rate` and partial batches to `rate / 2`.
  static FaultOptions Profile(double rate, std::uint64_t seed);
};

/// Per-fault-kind injection totals (also exported as "fault.*" counters
/// when a metrics registry is bound).
struct FaultStats {
  std::uint64_t transient_failures = 0;  // Unavailable, platform down.
  std::uint64_t timeouts = 0;            // Unavailable, batch timed out.
  /// Tasks an abstain draw hit outside the dropped tail, whatever the
  /// inner platform answered: every stat follows from the draws alone.
  std::uint64_t abstained_tasks = 0;
  std::uint64_t partial_batches = 0;     // Batches with a dropped tail.
  std::uint64_t dropped_tail_tasks = 0;  // Tasks lost to partial batches.
  std::uint64_t batches_attempted = 0;   // Every PostBatch call seen.
  std::uint64_t batches_delivered = 0;   // Calls that returned answers.
};

/// The decorator. Non-owning: `inner` must outlive it.
class FaultInjectingPlatform : public CrowdPlatform {
 public:
  FaultInjectingPlatform(CrowdPlatform& inner, FaultOptions options);

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  /// Inner totals: failed attempts never reached the marketplace, so
  /// they are invisible here (the framework tracks its own retries).
  std::size_t total_tasks() const override { return inner_.total_tasks(); }
  std::size_t total_rounds() const override {
    return inner_.total_rounds();
  }

  const FaultStats& stats() const { return stats_; }

  /// Mirrors the stats into "fault.*" counters of `registry` (nullptr
  /// detaches). Non-owning; must outlive the platform.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Chunk: own RNG + stats, then the inner platform's chunk.
  void SaveState(std::string* out) const override;
  Status LoadState(BinReader* reader) override;

  /// Replay sync: makes this layer's draws for the batch (failure,
  /// partial tail, abstentions) and forwards a delivered batch to the
  /// inner platform's SyncReplayed, never to its PostBatch — so an
  /// interactive platform below is never re-asked. Both streams stay
  /// aligned with the recorded run.
  void SyncReplayed(const std::vector<Task>& tasks, bool delivered) override;

 private:
  /// One attempt's failure draws; Unavailable when the batch fails.
  Status DrawAttempt();
  /// A delivered batch's partial-tail and abstain draws, applied to
  /// its answers.
  void DropAnswers(std::vector<TaskAnswer>* answers);

  CrowdPlatform& inner_;
  FaultOptions options_;
  Rng rng_;
  FaultStats stats_;

  struct Instruments {
    obs::Counter* transient_failures = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* abstained_tasks = nullptr;
    obs::Counter* partial_batches = nullptr;
    obs::Counter* dropped_tail_tasks = nullptr;
  } ins_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_FAULT_INJECTION_H_

// Crowdsourcing platform abstraction and the simulated implementation
// used in the offline experiments (Section 7: per-task majority voting
// over three workers with configurable accuracy; worker accuracy 1.0 by
// default).

#ifndef BAYESCROWD_CROWD_PLATFORM_H_
#define BAYESCROWD_CROWD_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "common/result.h"
#include "crowd/task.h"
#include "ctable/knowledge.h"
#include "data/table.h"

namespace bayescrowd {

/// Where tasks get answered. One PostBatch call is one latency round.
class CrowdPlatform {
 public:
  virtual ~CrowdPlatform() = default;

  /// Posts one round of tasks; returns one aggregated answer per task
  /// (aligned by index).
  virtual Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) = 0;

  /// Total individual tasks posted so far (monetary cost proxy).
  virtual std::size_t total_tasks() const = 0;

  /// Total rounds so far (latency proxy).
  virtual std::size_t total_rounds() const = 0;

  /// Appends the platform's internal state (RNG position, totals,
  /// worker reputations) to `out` for checkpointing. Decorators append
  /// their own chunk and forward. Default: stateless, writes nothing.
  virtual void SaveState(std::string* out) const { (void)out; }

  /// Restores state written by SaveState (same platform stack shape).
  virtual Status LoadState(BinReader* reader) {
    (void)reader;
    return Status::OK();
  }

  /// Notifies the platform that a batch was served from a recorded
  /// answer log instead of being posted live (`delivered` false = a
  /// replayed transient failure). Stateful simulators mirror the draws
  /// a live call would have made, so their RNG streams stay aligned
  /// with the recorded session once the replay catches up. Default:
  /// ignore (an interactive platform must never re-prompt).
  virtual void SyncReplayed(const std::vector<Task>& tasks,
                            bool delivered) {
    (void)tasks;
    (void)delivered;
  }
};

struct SimulatedPlatformOptions {
  /// Probability that an individual worker returns the true relation;
  /// wrong answers are uniform over the other two choices (NoisyVote in
  /// crowd/quality.h).
  double worker_accuracy = 1.0;

  /// Majority voting pool per task (the paper assigns each task to
  /// three workers).
  int workers_per_task = 3;

  /// When non-empty, every vote comes from a fresh worker whose
  /// accuracy is drawn uniformly from this pool, overriding
  /// `worker_accuracy`. Models a heterogeneous anonymous crowd (the
  /// Table 6 "live AMT" simulation); per-worker quality lives in
  /// crowd/marketplace.h.
  std::vector<double> accuracy_pool;

  std::uint64_t seed = 99;
};

/// Simulated workers answering from a hidden complete ground-truth
/// table.
class SimulatedCrowdPlatform : public CrowdPlatform {
 public:
  /// `ground_truth` must be complete. Held by value: binding a
  /// temporary is safe (tests routinely pass a freshly built table).
  SimulatedCrowdPlatform(Table ground_truth,
                         SimulatedPlatformOptions options);

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  std::size_t total_tasks() const override { return total_tasks_; }
  std::size_t total_rounds() const override { return total_rounds_; }

  void SaveState(std::string* out) const override;
  Status LoadState(BinReader* reader) override;

  /// Replay sync = post and discard: the simulated workers make the
  /// exact draws of the recorded session and the totals advance.
  void SyncReplayed(const std::vector<Task>& tasks,
                    bool delivered) override {
    if (!delivered || tasks.empty()) return;
    (void)PostBatch(tasks);
  }

 private:
  const Table ground_truth_;
  SimulatedPlatformOptions options_;
  Rng rng_;
  std::size_t total_tasks_ = 0;
  std::size_t total_rounds_ = 0;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_PLATFORM_H_

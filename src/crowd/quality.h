// Worker-quality modeling and answer aggregation.
//
// The paper aggregates with plain 3-worker majority voting and notes
// that real marketplaces support recruiting workers above an accuracy
// bar. This module provides the quality toolkit such a deployment
// needs: accuracy-weighted voting, an unsupervised consensus
// (Dawid-Skene-style EM) estimator, and the joint quality model the
// marketplace's spam defense runs on.

#ifndef BAYESCROWD_CROWD_QUALITY_H_
#define BAYESCROWD_CROWD_QUALITY_H_

#include <cstdint>
#include <vector>

#include "common/binio.h"
#include "common/result.h"
#include "crowd/task.h"
#include "ctable/knowledge.h"

namespace bayescrowd {

/// Plain majority over triple-choice votes; ties broken toward the
/// first-listed tied option (deterministic).
Ordering MajorityVote(const std::vector<Ordering>& votes);

/// Accuracy-weighted vote: each worker contributes the log-odds of their
/// accuracy under the symmetric 3-choice error model (wrong answers
/// uniform over the other two options). Accuracies are clamped to
/// [0.34, 0.999]; weights and votes must align.
Result<Ordering> WeightedVote(const std::vector<Ordering>& votes,
                              const std::vector<double>& accuracies);

/// One worker's vote on one task.
struct Vote {
  std::size_t worker = 0;
  Ordering answer = Ordering::kEqual;
};

/// Unsupervised accuracy estimation from redundant votes (simplified
/// Dawid-Skene): iterate between (i) consensus answers via
/// accuracy-weighted voting and (ii) per-worker accuracy as smoothed
/// agreement with the consensus. `task_votes[t]` holds the votes on task
/// t. Returns per-worker accuracies (workers indexed 0..num_workers-1).
Result<std::vector<double>> EstimateAccuraciesByConsensus(
    const std::vector<std::vector<Vote>>& task_votes,
    std::size_t num_workers, int iterations = 10);

/// Fleiss' kappa over one round's vote sets (generalized to unequal
/// vote counts per task; tasks with fewer than two votes are skipped).
/// 1.0 = perfect agreement, 0 = chance-level, negative = systematic
/// disagreement. Degenerate inputs (no multi-vote task, or all votes in
/// one category so chance agreement is total) return 1.0. The round loop
/// uses a per-round drop as a crowd-collapse detector: a spam storm
/// drags agreement toward chance even when each task still "resolves".
double FleissKappa(const std::vector<std::vector<Ordering>>& task_votes);

/// Gates and thresholds for the marketplace spam defense. The
/// approval-rate and work-time filters mirror the qualification
/// predicates real marketplaces attach to HITs (lifetime approval rate,
/// implausibly fast submit times); the accuracy floor comes from the
/// joint Dawid-Skene estimate.
struct WorkerDefenseOptions {
  /// Minimum smoothed agreement-with-consensus before a worker with
  /// enough observations is flagged.
  double min_approval_rate = 0.5;

  /// Mean per-task work time outside [min, max] seconds flags the
  /// worker (too fast = click-through spam, too slow = abandoned HITs).
  double min_work_seconds = 5.0;
  double max_work_seconds = 3600.0;

  /// Estimated accuracy below this flags the worker.
  double min_accuracy = 0.45;

  /// Votes a worker must have contributed before any gate may flag
  /// them — new arrivals are never quarantined on a first impression.
  std::size_t min_observations = 8;

  /// EM iterations per Refresh().
  int inference_iterations = 10;
};

/// Joint worker-quality inference over *all* accumulated votes (not
/// just gold tasks): each Refresh() re-runs the Dawid-Skene consensus
/// estimator, recomputes per-worker approval rates and mean work times,
/// and latches quarantine flags for workers failing the defense gates.
/// Quarantine is sticky — once flagged, a worker stays flagged for the
/// session (mirroring the serve layer's poison-session registry) — and
/// the whole model rides the platform checkpoint chunk so resumed runs
/// keep their learned reputations.
class JointQualityModel {
 public:
  explicit JointQualityModel(WorkerDefenseOptions options = {})
      : options_(options) {}

  const WorkerDefenseOptions& options() const { return options_; }

  /// Grows the worker table to cover ids [0, n). Shrinking is a no-op.
  void EnsureWorkers(std::size_t n);
  std::size_t num_workers() const { return accuracies_.size(); }

  /// Accumulates one task's votes. Votes from ids beyond the current
  /// worker table grow it implicitly.
  void AddTask(const std::vector<VoteRecord>& votes);

  /// Like AddTask, but the task's true answer is known (an operator
  /// audit / pre-labeled gold comparison). Gold tasks pin the EM
  /// consensus at the truth, anchoring the joint inference: without
  /// them a perfectly coordinated colluder bloc (100% mutual
  /// agreement) can capture the consensus and invert every accuracy
  /// estimate, quarantining the honest majority instead.
  void AddGoldTask(const std::vector<VoteRecord>& votes, Ordering truth);

  /// Tasks added via AddGoldTask.
  std::size_t gold_tasks() const;

  /// Re-runs joint inference and the defense gates over everything
  /// accumulated so far. Returns the number of *newly* quarantined
  /// workers this call.
  std::size_t Refresh();

  /// Latest estimated accuracy (prior 0.7 before any Refresh sees the
  /// worker). Out-of-range ids return the prior.
  double Accuracy(std::size_t worker) const;

  /// Latest smoothed agreement-with-consensus (prior 0.5 when unseen).
  double ApprovalRate(std::size_t worker) const;

  /// Mean work time in seconds (0 when unseen).
  double MeanWorkSeconds(std::size_t worker) const;

  /// Total votes contributed by `worker`.
  std::size_t Observations(std::size_t worker) const;

  bool Quarantined(std::size_t worker) const;
  std::size_t quarantined_count() const;
  std::size_t tasks_accumulated() const { return task_votes_.size(); }

  /// Checkpoint serialization (embedded in the owning platform's state
  /// chunk; no tag of its own).
  void Save(BinWriter* writer) const;
  Status Load(BinReader* reader);

 private:
  WorkerDefenseOptions options_;
  std::vector<std::vector<Vote>> task_votes_;
  // Parallel to task_votes_: -1 = unlabeled, else the known true
  // Ordering that pins the task's consensus during EM.
  std::vector<std::int8_t> gold_;
  std::vector<double> work_sum_;
  std::vector<double> vote_counts_;
  std::vector<double> approval_;
  std::vector<double> accuracies_;
  std::vector<std::uint8_t> quarantined_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_QUALITY_H_

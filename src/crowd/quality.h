// The crowd's error model and answer aggregation.
//
// The paper's crowd answers triple-choice tasks; each worker is right
// with probability p and otherwise picks one of the two wrong answers
// at random, and three votes are decided by majority. Every simulated
// platform draws its votes through NoisyVote and reads the truth
// through TrueRelation. The marketplace adds accuracy-weighted voting
// and the joint Dawid-Skene quality model its spam defense runs on.

#ifndef BAYESCROWD_CROWD_QUALITY_H_
#define BAYESCROWD_CROWD_QUALITY_H_

#include <cstdint>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "common/result.h"
#include "crowd/task.h"
#include "ctable/expression.h"
#include "ctable/knowledge.h"
#include "data/table.h"

namespace bayescrowd {

/// The relation of `expression`'s left operand to its right operand in
/// the complete table `truth`. FailedPrecondition when an asked cell is
/// missing.
Result<Ordering> TrueRelation(const Table& truth,
                              const Expression& expression);

/// One worker's vote under the symmetric 3-choice error model: `truth`
/// with probability `accuracy`, else one of the two wrong answers
/// uniformly. Draws NextBool(accuracy), then NextBelow(2) only when
/// the worker errs.
Ordering NoisyVote(Ordering truth, double accuracy, Rng& rng);

/// Plain majority over triple-choice votes; ties broken toward the
/// first-listed tied option (deterministic).
Ordering MajorityVote(const std::vector<Ordering>& votes);

/// Log-odds weight of one worker under the same error model: correct
/// with probability p, each wrong option with (1-p)/2. Accuracies are
/// clamped to [0.34, 0.999].
double LogOddsWeight(double accuracy);

/// Accuracy-weighted vote: each worker contributes LogOddsWeight of
/// their accuracy; weights and votes must align.
Result<Ordering> WeightedVote(const std::vector<Ordering>& votes,
                              const std::vector<double>& accuracies);

/// Fleiss' kappa over one round's vote sets (generalized to unequal
/// vote counts per task; tasks with fewer than two votes are skipped).
/// 1.0 = perfect agreement, 0 = chance-level, negative = systematic
/// disagreement. Degenerate inputs (no multi-vote task, or all votes in
/// one category so chance agreement is total) return 1.0. The round loop
/// uses a per-round drop as a crowd-collapse detector: a spam storm
/// drags agreement toward chance even when each task still "resolves".
double FleissKappa(const std::vector<std::vector<Ordering>>& task_votes);

/// Gates of the marketplace spam defense. The work-time filter mirrors
/// the qualification predicates real marketplaces attach to HITs
/// (implausibly fast submit times); the accuracy floor is the joint
/// Dawid-Skene estimate, a worker's smoothed agreement with the final
/// consensus (the marketplace analogue of a lifetime approval rate). A
/// worker needs kMinObservations votes before any gate may flag them,
/// so new arrivals are never quarantined on a first impression; mean
/// work time outside [kMinWorkSeconds, kMaxWorkSeconds] flags
/// click-through spam and abandoned HITs.
inline constexpr double kMinAccuracy = 0.5;
inline constexpr double kMinWorkSeconds = 5.0;
inline constexpr double kMaxWorkSeconds = 3600.0;
inline constexpr std::size_t kMinObservations = 8;

/// Joint worker-quality inference over *all* accumulated votes (not
/// just gold tasks): each Refresh() re-runs the Dawid-Skene consensus
/// estimator, recomputes per-worker accuracies and mean work times,
/// and latches quarantine flags for workers failing the defense gates.
/// Quarantine is sticky — once flagged, a worker stays flagged for the
/// session (mirroring the serve layer's poison-session registry) — and
/// the whole model rides the platform checkpoint chunk so resumed runs
/// keep their learned reputations.
class JointQualityModel {
 public:
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
  struct Vote {
    std::size_t worker = 0;
    Ordering answer = Ordering::kEqual;
  };

  /// Per worker, (agree + 1) / (total + 2) over the votes on tasks whose
  /// `reference` answer is set (>= 0); `unseen` for a worker with none.
  std::vector<double> SmoothedAgreement(
      const std::vector<std::int8_t>& reference, double unseen) const;

  std::vector<std::vector<Vote>> task_votes_;
  // Parallel to task_votes_: -1 = unlabeled, else the known true
  // Ordering that pins the task's consensus during EM.
  std::vector<std::int8_t> gold_;
  std::vector<double> work_sum_;
  std::vector<double> vote_counts_;
  std::vector<double> accuracies_;
  std::vector<std::uint8_t> quarantined_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_QUALITY_H_

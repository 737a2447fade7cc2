// A seeded, deterministic crowd marketplace: the adversarial upgrade of
// SimulatedCrowdPlatform's flat accuracy mixture.
//
// Workers are individuals, not an anonymous accuracy pool: each carries
// a hidden skill, a work-time profile, a pricing tier, and a behavior
// profile — honest, sloppy, uniform-spammer, or colluding-adversary
// (colluders coordinate on the same wrong answer, so plain majority
// voting is maximally vulnerable to them). The pool evolves on the
// simulated clock with Poisson-style arrivals and per-worker churn, all
// driven by the one seeded Rng, so a run is bit-identical for a given
// seed at any thread count.
//
// Defense (on by default) closes the loop with crowd/quality.h:
//  - every vote feeds the JointQualityModel, which re-runs Dawid-Skene
//    joint inference each round and latches quarantine for workers
//    failing the accuracy / work-time gates (quarantined
//    workers are never assigned again — mirroring the serve layer's
//    poison-session registry);
//  - aggregation is accuracy-weighted by the learned estimates instead
//    of plain majority;
//  - per-round Fleiss-kappa agreement acts as a collapse detector: a
//    low-kappa round widens the vote fan-out to max_votes for every
//    task, and two consecutive low-kappa rounds let still-unconfident
//    tasks abstain (the framework refunds them) rather than ingest a
//    poisoned answer.
//
// Adaptive vote allocation: each task starts with base_votes and buys
// additional votes (premium-tier workers first) only while the
// posterior confidence of the leading answer is below the threshold,
// up to max_votes. The per-vote provenance (worker id, raw answer,
// work time) is emitted on every TaskAnswer, flows into answer-log v3,
// and is restored on replay, so the framework's extra-vote budget
// charging reproduces exactly.
//
// With defend=false and max_votes == base_votes the marketplace is the
// flat 3-vote majority baseline over the *same* adversarial worker
// stream — the bench's control arm.

#ifndef BAYESCROWD_CROWD_MARKETPLACE_H_
#define BAYESCROWD_CROWD_MARKETPLACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "common/result.h"
#include "crowd/platform.h"
#include "crowd/quality.h"
#include "crowd/task.h"
#include "data/table.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace bayescrowd {

/// Hidden behavior class of one marketplace worker.
enum class WorkerProfile : std::uint8_t {
  kHonest = 0,    // High skill, plausible work times.
  kSloppy = 1,    // Mediocre skill, hasty but not malicious.
  kSpammer = 2,   // Uniform random answers, implausibly fast.
  kColluder = 3,  // Coordinated wrong answers, plausible work times.
};

const char* WorkerProfileToString(WorkerProfile profile);

struct MarketplaceOptions {
  /// Workers recruited before the first round.
  std::size_t pool_size = 12;

  /// Probability that an arriving worker is adversarial (spammer or
  /// colluder) rather than honest/sloppy.
  double spam_rate = 0.0;

  /// Votes bought per task before the confidence check.
  int base_votes = 3;

  /// Ceiling for adaptive allocation. Equal to base_votes = fixed
  /// fan-out (no adaptive spending).
  int max_votes = 3;

  /// Joint inference + gating + quarantine + weighted aggregation.
  /// Off = plain majority over the same worker stream (baseline).
  bool defend = true;

  std::uint64_t seed = 99;
};

/// Deterministic per-run totals (also exported as "crowd.market.*"
/// counters when a metrics registry is bound).
struct MarketplaceStats {
  std::uint64_t arrivals = 0;          // Workers recruited (incl. initial).
  std::uint64_t departures = 0;        // Churned out of the pool.
  std::uint64_t votes_cast = 0;        // Every individual vote bought.
  std::uint64_t extra_votes = 0;       // Votes beyond base_votes.
  std::uint64_t premium_votes = 0;     // Votes from premium-tier workers.
  std::uint64_t abstained_tasks = 0;   // Degraded to unanswered.
  std::uint64_t gold_tasks = 0;        // Operator-audited (anchor) tasks.
  std::uint64_t wide_rounds = 0;       // Rounds forced to max fan-out.
  std::uint64_t low_kappa_rounds = 0;  // Rounds below the threshold.
  double last_kappa = 1.0;             // Most recent round's agreement.
};

/// The marketplace platform. Answers from a hidden complete
/// ground-truth table like SimulatedCrowdPlatform, but through the
/// evolving worker pool above.
class MarketplaceCrowdPlatform : public CrowdPlatform {
 public:
  /// `ground_truth` must be complete (held by value, like the simulated
  /// platform).
  MarketplaceCrowdPlatform(Table ground_truth, MarketplaceOptions options);

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  std::size_t total_tasks() const override { return total_tasks_; }
  std::size_t total_rounds() const override { return total_rounds_; }

  /// Chunk tag 'M': RNG, totals, the worker roster, the quality model,
  /// and the collapse-detector state — learned reputations survive
  /// --resume and serve-layer recovery.
  void SaveState(std::string* out) const override;
  Status LoadState(BinReader* reader) override;

  /// Replay sync = post and discard, like the simulated platform: the
  /// marketplace re-makes every draw (arrivals, churn, assignment,
  /// votes) so its streams stay aligned with the recorded session.
  void SyncReplayed(const std::vector<Task>& tasks,
                    bool delivered) override {
    if (!delivered || tasks.empty()) return;
    (void)PostBatch(tasks);
  }

  /// Mirrors stats into "crowd.market.*" counters (nullptr detaches).
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Receives kappa-collapse and worker-quarantine events (nullptr
  /// detaches). Non-owning.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  const MarketplaceStats& stats() const { return stats_; }
  const JointQualityModel& quality() const { return quality_; }

  /// Hidden behavior profile of worker `id` — the simulation's ground
  /// truth, for tests and the bench (kHonest for unknown ids).
  WorkerProfile worker_profile(std::uint32_t id) const;

  /// Live roster inspection (tests).
  std::size_t active_workers() const;
  std::size_t quarantined_workers() const {
    return quality_.quarantined_count();
  }

 private:
  struct Worker {
    std::uint32_t id = 0;
    WorkerProfile profile = WorkerProfile::kHonest;
    double skill = 0.9;              // P(correct) for honest/sloppy.
    double base_work_seconds = 30.0; // Mean per-task work time.
    std::uint8_t premium = 0;        // Pricing tier.
    std::uint8_t active = 1;         // Still in the pool.
  };

  /// Recruits one worker from the seeded arrival distribution.
  void Recruit();

  /// One round of Poisson arrivals + per-worker churn, keeping at least
  /// base_votes assignable workers.
  void AdvanceClock();

  /// Indices (into workers_) eligible for assignment.
  std::vector<std::size_t> EligibleWorkers() const;

  /// One vote from `worker` on a task whose true relation is `truth`.
  VoteRecord CastVote(const Worker& worker, Ordering truth);

  /// Posterior confidence of the weighted leader of `votes`.
  double LeaderConfidence(const std::vector<VoteRecord>& votes) const;

  /// Weighted (defend) or majority (baseline) aggregate of `votes`.
  Ordering Aggregate(const std::vector<VoteRecord>& votes) const;

  const Table ground_truth_;
  MarketplaceOptions options_;
  Rng rng_;
  std::vector<Worker> workers_;
  JointQualityModel quality_;
  std::uint32_t next_worker_id_ = 0;
  std::size_t total_tasks_ = 0;
  std::size_t total_rounds_ = 0;
  double sim_seconds_ = 0.0;
  int low_kappa_streak_ = 0;
  MarketplaceStats stats_;

  obs::FlightRecorder* flight_ = nullptr;
  struct Instruments {
    obs::Counter* arrivals = nullptr;
    obs::Counter* departures = nullptr;
    obs::Counter* votes_cast = nullptr;
    obs::Counter* extra_votes = nullptr;
    obs::Counter* premium_votes = nullptr;
    obs::Counter* abstained_tasks = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* kappa_collapses = nullptr;
  } ins_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_MARKETPLACE_H_

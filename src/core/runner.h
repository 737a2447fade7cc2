// QueryRunner: the framework's round loop opened up into a stepping
// API so a resident server can multiplex many live queries.
//
// BayesCrowd::Run() executes the whole pipeline in one call; a serving
// process instead needs to run *one crowd round* of one session, then
// hand the worker threads to another session. QueryRunner is that
// seam: Init() runs validation, the modeling phase and the optional
// checkpoint resume; each Step() executes exactly one crowdsourcing
// round (select → post/retry → fold → re-simplify → one round end:
// log, totals, barren accounting, export); Finish()
// runs answer inference and seals the result. BayesCrowd::Run() is now
// the trivial driver `Init; while (!Done) Step; Finish`, so the
// one-shot path executes the same statements in the same order it
// always did — the stepping seam changes no observable behavior, and
// the bit-identity contracts of PRs 1–6 (thread count, obs on/off,
// kill/resume, faults) carry over unchanged.
//
// Pool ownership: by default the runner spawns a private ThreadPool
// (exactly what Run() always did). A server hosting many sessions
// passes a shared pool via BayesCrowdOptions::pool instead; the runner
// then skips the per-lane pool gauges and leaves
// BayesCrowdResult::lane_usage empty, because a shared pool's lane
// tallies mix sessions and would leak scheduling order into a
// session's otherwise deterministic result.

#ifndef BAYESCROWD_CORE_RUNNER_H_
#define BAYESCROWD_CORE_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/framework.h"
#include "core/update.h"
#include "ctable/knowledge.h"
#include "obs/trace.h"

namespace bayescrowd {

class QueryRunner {
 public:
  explicit QueryRunner(BayesCrowdOptions options)
      : options_(std::move(options)) {}

  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;

  /// Validation + modeling phase + resume. The referenced table,
  /// posterior provider and platform must outlive the runner (the
  /// table only through Init; posteriors/platform through Finish).
  Status Init(const Table& incomplete, PosteriorProvider& posteriors,
              CrowdPlatform& platform);

  /// True once the crowdsourcing phase cannot run another round: the
  /// budget is spent, a stop condition fired, or Finish() ran.
  bool Done() const { return done_ || !(budget_left_ > 1e-9); }

  /// Executes one crowdsourcing round (a no-op when Done()). Abandoned
  /// rounds count as a step. FailedPrecondition before Init / after
  /// Finish.
  Status Step();

  /// Answer inference + final stats. Callable as soon as Init()
  /// succeeded — finishing early (before the budget is spent) is
  /// well-defined and answers from the current probabilistic state.
  Status Finish();

  bool initialized() const { return initialized_; }
  bool finished() const { return finished_; }

  /// Rounds attempted so far (live during stepping).
  std::size_t rounds() const { return out_.rounds; }
  double budget_left() const { return budget_left_; }

  /// The result under construction; fully populated once Finish() ran.
  const BayesCrowdResult& result() const { return out_; }
  BayesCrowdResult TakeResult() { return std::move(out_); }

  const BayesCrowdOptions& options() const { return options_; }

  /// Snapshots the session to the configured checkpoint sink now,
  /// regardless of the checkpoint_every cadence (the serving layer's
  /// explicit `checkpoint` verb). FailedPrecondition without a sink or
  /// before Init.
  Status WriteCheckpointNow();

  /// Replaces the solver governor for all subsequent rounds — the
  /// serving layer's QoS degradation hook. Sound at any round boundary;
  /// deterministic as long as the caller tightens at deterministic
  /// points. FailedPrecondition before Init / after Finish.
  Status ApplyGovernor(const GovernorOptions& governor);

 private:
  Status StepImpl();

  /// The update phase of a delivered round: charges and refunds the
  /// batch, then folds its answered tasks (Fold). Fills the delivery
  /// fields of `log`.
  Status FoldAnswers(const std::vector<Task>& batch,
                     const std::vector<TaskAnswer>& answers, RoundLog* log);

  /// The update half of a delivered round, run by a live round and by a
  /// resume's replay alike: applies `answers` in order to the knowledge
  /// base, re-conditions their variables, and re-simplifies every
  /// undecided condition on the pool. Any ApplyAnswer error fails the
  /// fold: a live round cannot meet a contradictory var-var answer (a
  /// recorded order decides every expression on its pair, and
  /// SelectTasks never batches two tasks that share a variable), so
  /// only an edited checkpoint carries one.
  Status Fold(std::span<const FoldedAnswer> answers);

  /// Adds a finished round to the result: its log and the totals summed
  /// over the logs. A resume adds the restored logs through it.
  void AddRound(const RoundLog& log);

  /// Cadence-gated checkpoint, then flight round summary, then the
  /// round sink — the round-tail export bucket, timed as export I/O.
  Status RoundExports();

  Status WriteCheckpoint();
  void FlightRoundSummary();

  BayesCrowdOptions options_;

  bool initialized_ = false;
  bool done_ = false;
  bool finished_ = false;

  BayesCrowdResult out_;
  std::optional<obs::TraceSpan> run_span_;

  // Per-run registry unless the caller injected one (see
  // BayesCrowdOptions::metrics).
  obs::MetricsRegistry local_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;

  CTable ctable_;
  std::optional<ProbabilityEvaluator> evaluator_;
  std::map<CellRef, std::vector<double>> raw_posteriors_;
  std::optional<KnowledgeBase> knowledge_;
  /// Every answered task so far, in fold order (what checkpoints store).
  std::vector<FoldedAnswer> answers_;
  CrowdPlatform* platform_ = nullptr;

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;

  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* tasks_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* transient_counter_ = nullptr;
  obs::Counter* abandoned_counter_ = nullptr;
  obs::Counter* unanswered_counter_ = nullptr;
  obs::Counter* breaker_trips_counter_ = nullptr;
  obs::Counter* breaker_skips_counter_ = nullptr;
  obs::Counter* cost_crowd_tasks_ = nullptr;
  obs::Counter* cost_retry_refunds_ = nullptr;
  obs::Counter* cost_extra_votes_ = nullptr;

  obs::FlightRecorder* flight_ = nullptr;
  GovernorTally solver_before_;

  UniformCostModel unit_cost_;
  const TaskCostModel* cost_model_ = nullptr;
  std::size_t mu_ = 0;
  double budget_left_ = 0.0;
  std::size_t consecutive_barren_ = 0;

  bool breakers_enabled_ = false;
  // std::map: checkpoint serialization wants ascending object ids.
  std::map<std::size_t, SolverBreakerRecord> breakers_;

  CheckpointSink* checkpoint_sink_ = nullptr;
  std::size_t checkpoint_every_ = 0;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_RUNNER_H_

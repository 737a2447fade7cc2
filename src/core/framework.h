// BayesCrowd: the full crowd skyline query framework (Algorithms 1 & 4).
//
// Modeling phase: build the c-table (Get-CTable) and attach per-variable
// value distributions (Bayesian-network posteriors, or any
// PosteriorProvider). Crowdsourcing phase: iteratively select
// conflict-free task batches under budget B and latency L, post them to
// a CrowdPlatform, fold answers into the knowledge base, re-simplify
// conditions and re-condition distributions, and finally return the
// objects whose condition is true or whose probability exceeds 0.5.

#ifndef BAYESCROWD_CORE_FRAMEWORK_H_
#define BAYESCROWD_CORE_FRAMEWORK_H_

#include <cstdint>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/result.h"
#include "core/strategy.h"
#include "crowd/cost.h"
#include "crowd/platform.h"
#include "ctable/builder.h"
#include "ctable/condition.h"
#include "ctable/ctable.h"
#include "ctable/knowledge.h"
#include "data/table.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "probability/evaluator.h"
#include "probability/governor.h"
#include "probability/interval.h"

namespace bayescrowd {

struct SessionState;   // core/checkpoint.h
class CheckpointSink;  // core/checkpoint.h

/// How the round loop survives a flaky platform. A PostBatch returning
/// Status::Unavailable (transient failure, timeout) is retried with
/// deterministic exponential backoff on a *simulated* clock; when the
/// attempts or the per-round deadline run out, the round is abandoned
/// and its tasks fall back into the candidate pool. Unanswered tasks
/// (`TaskAnswer::answered == false`) are refunded, so the budget only
/// pays for answers actually bought. All of it is driven from the
/// single-threaded round loop, so recovery is bit-identical at any
/// thread count.
struct RetryPolicy {
  /// PostBatch attempts per round (first try + retries). Transient
  /// failures beyond this abandon the round.
  std::size_t max_attempts = 3;

  /// Simulated seconds charged per PostBatch attempt.
  double attempt_seconds = 1.0;

  /// First retry waits this many simulated seconds; each further retry
  /// multiplies by `backoff_multiplier`.
  double backoff_initial_seconds = 1.0;
  double backoff_multiplier = 2.0;

  /// Per-round deadline on the simulated clock (attempts + backoff).
  /// An attempt that cannot finish before the deadline is not made and
  /// the round is abandoned. 0 disables the deadline.
  double round_deadline_seconds = 0.0;

  /// Give up on the crowdsourcing phase after this many consecutive
  /// rounds that applied zero answers (all attempts failed, or every
  /// task came back unanswered): the platform is presumed down and the
  /// query degrades to the current probabilistic state. Guarantees
  /// termination even at fault rate 1.0.
  std::size_t max_barren_rounds = 3;
};

/// Budget accounting for adaptive vote allocation (the marketplace
/// platform buys extra votes on low-confidence tasks). The platform
/// decides *where* to spend votes; this policy tells the round loop how
/// to charge them: each vote beyond `base_votes` on an answered task
/// costs `extra_vote_cost` × the task's cost, drawn from the same
/// budget with the same refund semantics as tasks themselves.
/// Disabled (the default) keeps budget math bit-identical to the fixed
/// 3-vote world even when a vote-reporting platform is attached.
struct AdaptiveVotePolicy {
  bool enabled = false;

  /// Votes included in a task's base price.
  std::size_t base_votes = 3;

  /// The platform's fan-out ceiling, used to reserve budget
  /// pessimistically when deciding how many tasks fit in a round.
  std::size_t max_votes = 3;

  /// Cost of one extra vote, as a fraction of the task's cost (one
  /// vote of a 3-vote task = 1/3).
  double extra_vote_cost = 1.0 / 3.0;
};

struct BayesCrowdOptions {
  /// Modeling-phase options (α pruning).
  CTableOptions ctable;

  /// Probability computation (ADPLL by default).
  ProbabilityOptions probability;

  /// Task selection strategy and its HHS parameter m.
  StrategyOptions strategy;

  /// Budget B, in cost units. With the default (uniform, cost-1) model
  /// this is the number of affordable tasks, the paper's reading.
  std::size_t budget = 50;

  /// Optional variable-task-difficulty pricing (Section 6.1's
  /// extension). Non-owning; must outlive the framework. nullptr means
  /// every task costs 1.
  const TaskCostModel* cost_model = nullptr;

  /// Latency constraint L: the number of task-selection rounds. The
  /// per-round batch size is ceil(B / L).
  std::size_t latency = 5;

  /// Result threshold: an undecided object is returned when
  /// Pr(φ(o)) > answer_threshold (paper: 0.5).
  double answer_threshold = 0.5;

  /// Per-object solver circuit breaker (active only with a governed
  /// evaluator, `probability.governor`): after this many consecutive
  /// degraded (non-exact) Pr(φ) solves of one object, the round loop
  /// stops re-solving it — while its condition is unchanged, its last
  /// interval is reused for ranking instead of burning solver budget on
  /// another non-answer. A condition change (new crowd evidence
  /// simplified it) triggers one probe solve; an exact result closes
  /// the breaker. The final answer phase always solves fresh, so
  /// reported probabilities are never stale. 0 disables the breaker.
  std::size_t breaker_threshold = 3;

  /// Early stop: end the crowdsourcing phase (possibly under budget)
  /// once every undecided object's entropy falls below this threshold —
  /// i.e. every remaining probability is within
  /// BinaryEntropy^-1(threshold) of 0 or 1 and further tasks buy little
  /// information. 0 disables (the paper always spends the budget).
  double confidence_stop_entropy = 0.0;

  /// Fault tolerance for the crowdsourcing rounds. The defaults are
  /// inert on a healthy platform: one attempt per round, nothing
  /// refunded, behavior bit-identical to the pre-retry framework.
  RetryPolicy retry;

  /// Adaptive vote-allocation charging (inert by default).
  AdaptiveVotePolicy adaptive;

  /// Worker lanes for the c-table build and probability evaluation
  /// (entropy ranking and UBS/HHS counterfactual scoring). 0 = hardware
  /// concurrency; 1 runs everything on the calling thread. Results are
  /// bit-identical for any value (see DESIGN.md, "Concurrency model").
  /// Ignored when `pool` is set.
  std::size_t threads = 0;

  /// Shared worker pool for a serving process hosting many sessions
  /// (see src/serve/). Non-owning; must outlive the run. nullptr (the
  /// default) spawns a private pool of `threads` lanes — the one-shot
  /// behavior. With a shared pool the per-lane pool gauges and
  /// BayesCrowdResult::lane_usage are skipped: shared-lane tallies mix
  /// sessions and would leak scheduling order into a session's
  /// otherwise deterministic result.
  ThreadPool* pool = nullptr;

  /// Metrics sink for the run ("adpll.*", "solver.*",
  /// "framework.*"). Non-owning; must outlive Run(). nullptr means Run
  /// uses a private registry (its final state still lands in
  /// BayesCrowdResult::metrics), so repeated runs never see each
  /// other's counts. Inject a registry to aggregate across runs.
  obs::MetricsRegistry* metrics = nullptr;

  /// Session label for cost attribution: every deterministic cost unit
  /// ("cost.*" series) is charged to {session, phase, solver_tier}. A
  /// serving process sets it per session.
  std::string session = "s0";

  /// Flight recorder for structured runtime events (degradations,
  /// breaker trips, retries, checkpoint writes, budget exhaustion).
  /// Non-owning; nullptr disables. Purely observational — recording
  /// never feeds back into the query.
  obs::FlightRecorder* flight = nullptr;

  /// Live export: receives the full metrics snapshot after every round
  /// (abandoned rounds included) from the single-threaded round loop.
  /// Non-owning; nullptr disables. A sink failure fails the run.
  obs::RoundSnapshotSink* round_sink = nullptr;

  /// Crash safety: snapshot the session into `checkpoint_sink` every
  /// this many finished rounds (abandoned rounds included). 0 disables
  /// checkpointing; a sink failure fails the run.
  std::size_t checkpoint_every = 0;
  CheckpointSink* checkpoint_sink = nullptr;  // Non-owning.

  /// Resume a checkpointed session: after the modeling phase the
  /// snapshot's answers are folded again onto the rebuilt c-table, the
  /// rest of the round loop's state is restored from the snapshot, and
  /// the loop continues from the checkpointed round. The caller is
  /// responsible for platform alignment (replaying the answer-log tail
  /// past the snapshot, LoadState on the platform stack). Non-owning;
  /// must outlive Run().
  const SessionState* resume = nullptr;
};

/// One crowd round's bookkeeping.
struct RoundLog {
  std::size_t round = 0;
  std::size_t tasks = 0;        // Tasks posted (answered + unanswered).
  double seconds = 0.0;         // select_seconds + update_seconds.
  double select_seconds = 0.0;  // Entropy ranking + task selection.
  double update_seconds = 0.0;  // Answer folding + re-simplification.

  /// Recovery bookkeeping (all zero / false on a healthy platform).
  std::size_t attempts = 1;       // PostBatch attempts this round.
  std::size_t answered = 0;       // Tasks whose answer was applied.
  std::size_t unanswered = 0;     // Abstained/dropped tasks (refunded).
  double cost_refunded = 0.0;     // Budget returned for unanswered tasks.
  double backoff_seconds = 0.0;   // Simulated backoff spent this round.
  double simulated_seconds = 0.0; // Attempts + backoff, simulated clock.
  bool abandoned = false;         // Every attempt failed; nothing posted.
};

/// One object's solver circuit-breaker state at a round boundary (see
/// BayesCrowdOptions::breaker_threshold). Snapshotted into checkpoints
/// so a resumed session skips exactly the solves the uninterrupted run
/// would have skipped.
struct SolverBreakerRecord {
  std::size_t object = 0;
  /// Condition fingerprint the breaker state refers to; a mismatch at
  /// lookup time forces a probe solve.
  ConditionFingerprint fingerprint{0, 0};
  /// Consecutive degraded solves (survives condition changes — the
  /// breaker tracks the *object*, not one condition text).
  std::size_t consecutive = 0;
  bool open = false;
  /// Last solved interval, reused while open on an unchanged condition.
  ProbInterval last = ProbInterval::Unknown();
};

/// Everything a Run() produces.
struct BayesCrowdResult {
  /// Object ids answered as skyline members.
  std::vector<std::size_t> result_objects;

  /// Cost/latency actually spent.
  std::size_t tasks_posted = 0;
  std::size_t rounds = 0;   // All rounds attempted, abandoned included.
  double cost_spent = 0.0;  // Answered tasks only; refunds excluded.

  /// Fault-recovery totals (all zero on a healthy platform). Finish()
  /// reads the counts (these five) back from the run's `metrics`
  /// counters ("framework.*", "cost.extra_votes"),
  /// their one tally; the last three are sums over `round_logs`.
  std::size_t tasks_unanswered = 0;   // Abstained/dropped, refunded.
  /// Extra votes charged under the adaptive policy (0 when disabled).
  std::size_t extra_votes = 0;
  std::size_t retries = 0;            // Re-posts after transient failures.
  std::size_t transient_failures = 0; // Unavailable PostBatch attempts.
  std::size_t rounds_abandoned = 0;   // Rounds where no attempt landed.
  double cost_refunded = 0.0;         // Budget refunded for unanswered.
  double backoff_seconds = 0.0;       // Total simulated backoff.
  double simulated_seconds = 0.0;     // Total simulated platform time.

  /// True when the barren-round stop ended the phase early (the
  /// platform stopped delivering answers before the budget ran out).
  /// The result set is still well-defined — undecided objects answer by
  /// their current probability — just computed from less evidence than
  /// budgeted, so the probabilistic skyline may be wider.
  bool degraded = false;

  /// Machine-side wall-clock (excludes simulated worker time).
  double modeling_seconds = 0.0;
  double crowdsourcing_seconds = 0.0;
  double total_seconds = 0.0;

  /// Per-phase totals across rounds (machine side). Platform wall is
  /// the machine-side cost of talking to the crowd platform (post,
  /// retry bookkeeping) — distinct from the *simulated* worker clock.
  double select_seconds = 0.0;
  double update_seconds = 0.0;
  double platform_wall_seconds = 0.0;
  /// Round-boundary I/O: checkpoint writes plus the export sinks
  /// (Prometheus scrape file, JSONL round stream, flight summaries).
  /// Dominated by file I/O when live export is enabled, ~zero otherwise.
  double export_seconds = 0.0;

  /// Final answer-inference phase (machine side). Together with
  /// modeling/select/update this covers the run's attributable
  /// wall-clock; `inspect` reports the coverage ratio.
  double answer_seconds = 0.0;

  /// ADPLL search totals for the whole run: a copy of the `metrics`
  /// "adpll.*" counters that the end-to-end benchmark still reads.
  /// Every other counter ("solver.*") is read from `metrics` alone; this
  /// goes once the benchmark does the same (ROADMAP item 1).
  AdpllStats adpll;

  /// Always zero: the evaluator keeps no Pr(φ) memo, but the end-to-end
  /// benchmark still reads these two fields. Removed with ROADMAP item
  /// 1, together with `compile` below.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Per-lane thread-pool utilization (lane 0 is the calling thread).
  std::vector<ThreadPool::LaneStats> lane_usage;

  /// Final state of every instrument in the run's metrics registry.
  obs::MetricsSnapshot metrics;

  /// Final per-object probabilities (1/0 for decided conditions).
  /// Midpoints of `probability_intervals`; exactly the interval value
  /// when the governor is inert.
  std::vector<double> probabilities;

  /// Interval-valued final probabilities, aligned with `probabilities`.
  /// All kExact (lo == hi) when the solver governor is inert.
  std::vector<ProbInterval> probability_intervals;

  /// Objects whose final probability carries a degraded (non-exact)
  /// ProbQuality grade — the solver budget did not suffice for them.
  std::vector<std::size_t> degraded_objects;

  /// Always zero: knowledge compilation is gone, but the end-to-end
  /// benchmark still reads these three fields. Removed with ROADMAP
  /// items 1 and 5, once the benchmark reads counters from `metrics`.
  struct {
    std::uint64_t builds = 0;
    std::uint64_t reuses = 0;
    std::uint64_t evictions = 0;
  } compile;

  /// Circuit-breaker activity: breakers opened, and round-loop solves
  /// skipped by an open breaker.
  std::size_t breaker_trips = 0;
  std::size_t breaker_skips = 0;

  /// State of the c-table after all updates.
  CTable final_ctable;

  std::vector<RoundLog> round_logs;

  /// True when the confidence stop ended the run before the budget.
  bool stopped_confident = false;

  /// True when this run continued from a checkpoint snapshot.
  bool resumed = false;

  /// Modeling-phase statistics.
  std::size_t initial_true = 0;
  std::size_t initial_false = 0;
  std::size_t initial_undecided = 0;
};

/// The framework. Construct once per query; Run() drives both phases.
class BayesCrowd {
 public:
  explicit BayesCrowd(BayesCrowdOptions options = {})
      : options_(std::move(options)) {}

  const BayesCrowdOptions& options() const { return options_; }

  /// Executes the full pipeline on `incomplete`. `posteriors` supplies
  /// missing-value distributions (preprocessing output); `platform`
  /// answers tasks.
  Result<BayesCrowdResult> Run(const Table& incomplete,
                               PosteriorProvider& posteriors,
                               CrowdPlatform& platform);

 private:
  BayesCrowdOptions options_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_FRAMEWORK_H_

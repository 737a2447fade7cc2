// ProbabilityEvaluator: a method-dispatching facade over the exact and
// approximate Pr(φ) algorithms, holding the variable distributions.
//
// Beyond dispatch, the evaluator owns the two passes that carry the
// crowdsourcing loop (see DESIGN.md, "Concurrency model"):
//
//  * one evaluation path, EvaluateBatchIntervals, that fans the
//    independent model-counting calls of one round across an optional
//    ThreadPool, with per-lane AdpllStats merged after the barrier.
//    Every undecided condition is solved; nothing is memoized. Results
//    are written into per-index slots and sampling draws use
//    per-condition seeds, so outputs are bit-identical for any thread
//    count. Every other Pr(φ) entry point (Probability,
//    ProbabilityInterval, EvaluateAllIntervals) delegates to it;
//  * the counterfactual star pass, EvaluateCounterfactuals: task
//    scoring's Pr(φ[e:=true]) and Pr(φ[e:=false]) for every atom e of
//    many conditions, one hub enumeration per condition, fanned over
//    the same pool. It serves exact ungoverned ADPLL on star-shaped
//    conditions.
//
// The evaluator holds no state a checkpoint needs: its distributions
// follow from the posteriors and the knowledge base.

#ifndef BAYESCROWD_PROBABILITY_EVALUATOR_H_
#define BAYESCROWD_PROBABILITY_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "ctable/condition.h"
#include "ctable/ctable.h"
#include "obs/metrics.h"
#include "probability/adpll.h"
#include "probability/distributions.h"
#include "probability/governor.h"
#include "probability/interval.h"
#include "probability/naive.h"
#include "probability/sampling.h"

namespace bayescrowd {

enum class ProbabilityMethod : std::uint8_t {
  kAdpll,
  kNaive,
  kSampled,
  kSampledRaoBlackwell,
};

const char* ProbabilityMethodToString(ProbabilityMethod method);

struct ProbabilityOptions {
  ProbabilityMethod method = ProbabilityMethod::kAdpll;
  AdpllOptions adpll;
  NaiveOptions naive;
  SamplingOptions sampling;
  std::uint64_t sampling_seed = 1234;

  /// Resource budgets + degradation ladder for every evaluation (see
  /// governor.h). Inert by default: all solver paths then behave
  /// byte-identically to a build without the governor, and an exact
  /// method that exhausts its own limits fails with ResourceExhausted.
  /// The ladder's partial-bound and sampling tiers are the only way an
  /// exhausted solve survives, each with an explicit grade.
  GovernorOptions governor;

};

/// One condition and the atoms to score in it
/// (ProbabilityEvaluator::EvaluateCounterfactuals).
struct CounterfactualRequest {
  const Condition* condition = nullptr;
  const std::vector<Expression>* atoms = nullptr;
};

/// Pr(φ[a:=true]) and Pr(φ[a:=false]) for every requested atom, aligned
/// with the request's atoms; empty unless `served`.
struct Counterfactuals {
  bool served = false;
  std::vector<double> if_true;
  std::vector<double> if_false;
};

/// Owns the distributions and dispatches Pr(φ) to the selected method.
class ProbabilityEvaluator {
 public:
  explicit ProbabilityEvaluator(ProbabilityOptions options = {})
      : options_(std::move(options)) {
    BindMetrics(nullptr);
  }

  /// Mutable access for bulk setup.
  DistributionMap& distributions() { return dists_; }
  const DistributionMap& distributions() const { return dists_; }

  /// Registers or replaces one variable's distribution.
  Status SetDistribution(const CellRef& var, std::vector<double> dist) {
    return dists_.Set(var, std::move(dist));
  }

  const ProbabilityOptions& options() const { return options_; }
  ProbabilityOptions& options() { return options_; }

  /// Optional worker pool for the batch APIs (non-owning; nullptr means
  /// evaluate sequentially on the calling thread).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Pr(φ) by the configured method. With a governor
  /// enabled this is the midpoint of ProbabilityInterval().
  Result<double> Probability(const Condition& condition);

  /// Governed Pr(φ): exact when the budget suffices (lo == hi), a
  /// graded interval otherwise. With the governor inert the result is
  /// always kExact and numerically identical to Probability(). A
  /// one-element EvaluateBatchIntervals call.
  Result<ProbInterval> ProbabilityInterval(const Condition& condition);

  /// Pr(φ) for a batch of conditions, fanned across the thread pool:
  /// the one Pr(φ) path every other API delegates to. results[i]
  /// corresponds to conditions[i]; decided conditions cost nothing, and
  /// every undecided one is solved (a condition repeated in the batch
  /// is solved once per occurrence). After the barrier this thread
  /// charges the ADPLL and governor tallies and the labeled node costs
  /// in index order. Deterministic for any pool size: per-index result
  /// slots, per-lane stat tallies, per-condition sampling streams.
  Result<std::vector<ProbInterval>> EvaluateBatchIntervals(
      const std::vector<const Condition*>& conditions);

  /// The counterfactual star pass (star.h, EvalStarCounterfactuals)
  /// for many conditions in one ParallelFor with per-lane scratch:
  /// out[i] holds both counterfactuals of every atom of requests[i],
  /// read off one enumeration of its hub. The pass serves exact,
  /// ungoverned ADPLL with star_fast_path. A request it cannot serve
  /// (any other configuration, a decided condition, a hub of more than
  /// 16 variables or adpll.max_hub_space values, a missing
  /// distribution, atoms that are not distinct expressions of the
  /// condition) comes back with served == false, and the caller
  /// solves FixExpression copies through EvaluateBatchIntervals
  /// instead. Counterfactuals charge no ADPLL counters. Deterministic
  /// for any pool size.
  Result<std::vector<Counterfactuals>> EvaluateCounterfactuals(
      const std::vector<CounterfactualRequest>& requests);

  /// Pr(φ(o)) for every object id in `ids` (batch over a c-table).
  Result<std::vector<ProbInterval>> EvaluateAllIntervals(
      const CTable& ctable, const std::vector<std::size_t>& ids);

  /// Pr(e) of one expression.
  Result<double> Probability(const Expression& expression) const {
    return ExpressionProbability(expression, dists_);
  }

  /// ADPLL counters, read back from the bound metrics registry (by
  /// value: the registry is the single source of truth).
  AdpllStats adpll_stats() const;

  /// Governor counters ("solver.*"), read back the same way. All zero
  /// while the governor is inert.
  GovernorTally solver_stats() const;

  /// Points the evaluator's instruments ("adpll.*", "solver.*",
  /// "evaluator.batch.size") at `registry`. nullptr (the
  /// constructor default) binds a private registry, so fresh evaluators
  /// always start from zeroed counters; the framework rebinds to its
  /// per-run registry. Not thread-safe against concurrent evaluation.
  void BindMetrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Cost-attribution context. Every deterministic cost unit the
  /// evaluator produces (cost.adpll_nodes) is charged to a labeled
  /// series {session, phase, solver_tier}; the framework switches the
  /// phase at each round-loop boundary ("select", "update", "answer").
  /// Handles re-resolve only when the context actually changes — a few
  /// mutexed map lookups per phase switch, and the per-evaluation
  /// charges stay lock-free relaxed adds. Charging happens at the
  /// deterministic fold point (the index-order fold after the solve
  /// barrier), so labeled totals are byte-identical at any thread
  /// count. Call after BindMetrics; not thread-safe against concurrent
  /// evaluation.
  void SetCostContext(const std::string& session, const std::string& phase);
  const std::string& cost_session() const { return cost_session_; }
  const std::string& cost_phase() const { return cost_phase_; }

  /// Replaces the solver governor for every subsequent evaluation — the
  /// serving layer's QoS hook (a heavy tenant's sessions get walked
  /// down to tighter budgets at round boundaries). Deterministic as
  /// long as callers tighten only at deterministic points; not
  /// thread-safe against concurrent evaluation.
  void SetGovernor(const GovernorOptions& governor) {
    options_.governor = governor;
  }
  const GovernorOptions& governor() const { return options_.governor; }

 private:
  /// One evaluation. `rng` supplies sampling draws (a
  /// per-condition generator, so parallel order cannot leak into
  /// results); `stats` receives ADPLL counters; `scratch` holds the
  /// solver's reusable per-lane buffers (nullptr: per-call buffers).
  Result<double> Compute(const Condition& condition, Rng& rng,
                         AdpllStats* stats, AdpllScratch* scratch);

  /// One *governed* evaluation: dispatches to Compute when the
  /// governor is inert (grading the result kExact), otherwise walks the
  /// degradation ladder. `tally` receives the governor counters.
  Result<ProbInterval> ComputeInterval(const Condition& condition, Rng& rng,
                                       AdpllStats* stats,
                                       GovernorTally* tally,
                                       AdpllScratch* scratch);

  /// Ensures the per-lane solver scratch covers `lanes` lanes.
  void ReserveScratch(std::size_t lanes);

  /// fn(lane, index) for every index in [0, count): on the pool when
  /// there is one and more than one index, else inline as lane 0.
  Status FanOut(std::size_t count,
                const std::function<void(std::size_t lane,
                                         std::size_t index)>& fn);

  /// Deterministic per-condition sampling stream, seeded from the
  /// condition's fingerprint when a draw can happen (a sampled method or
  /// the governor's ladder); otherwise a fixed, never-read stream.
  Rng ConditionRng(const Condition& condition) const;

  /// Folds one (per-call or per-lane) ADPLL tally into the counters.
  void AddAdpllStats(const AdpllStats& stats);

  /// Same for the governor counters.
  void AddSolverTally(const GovernorTally& tally);

  ProbabilityOptions options_;
  DistributionMap dists_;

  ThreadPool* pool_ = nullptr;

  /// Per-lane solver scratch (element 0 serves a sequential pass);
  /// grown to the pool width before each batch pass.
  std::vector<AdpllScratch> adpll_scratch_;

  /// Metrics sink (never null after construction) and resolved
  /// instrument handles — lock-free increments on the hot paths.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    obs::Counter* adpll_calls = nullptr;
    obs::Counter* adpll_branches = nullptr;
    obs::Counter* adpll_direct_evals = nullptr;
    obs::Counter* adpll_component_splits = nullptr;
    obs::Counter* adpll_star_evals = nullptr;
    obs::Counter* solver_budget_exhausted = nullptr;
    obs::Counter* solver_deadline_hits = nullptr;
    obs::Counter* solver_tier_exact = nullptr;
    obs::Counter* solver_tier_partial = nullptr;
    obs::Counter* solver_tier_sampled = nullptr;
    obs::Counter* solver_tier_unknown = nullptr;
    obs::Histogram* batch_size = nullptr;
  } ins_;

  /// Labeled cost-unit handles, one per solver tier (ProbQuality's four
  /// grades), re-resolved by SetCostContext / BindMetrics.
  static constexpr std::size_t kTierCount = 4;
  void ResolveCostInstruments();
  std::size_t TierIndex(ProbQuality quality) const {
    return static_cast<std::size_t>(quality) < kTierCount
               ? static_cast<std::size_t>(quality)
               : kTierCount - 1;
  }
  std::string cost_session_ = "s0";
  std::string cost_phase_ = "adhoc";
  struct CostInstruments {
    obs::Counter* adpll_nodes[kTierCount] = {};
  } cost_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_EVALUATOR_H_

// ProbabilityEvaluator: a method-dispatching facade over the exact and
// approximate Pr(φ) algorithms, holding the variable distributions.
//
// Beyond dispatch, the evaluator owns the optimizations that carry the
// crowdsourcing loop (see DESIGN.md, "Concurrency & caching model"):
//
//  * a memo cache keyed by condition fingerprint, stamped with the
//    distribution epochs of the variables the condition mentions.
//    Folding a crowd answer only re-conditions the answered variable's
//    distribution, so SetDistribution() evicts exactly the cached
//    conditions that mention it (variable-indexed invalidation) and
//    every other entry keeps serving hits across rounds;
//  * one evaluation path, EvaluateBatchIntervals, that fans both the
//    memo lookups and the independent model-counting calls of one
//    round across an optional ThreadPool, with per-lane AdpllStats
//    merged after the barrier. Results are written into per-index
//    slots and sampling draws use per-condition seeds, so outputs are
//    bit-identical for any thread count. Every other Pr(φ) entry point
//    (Probability, ProbabilityInterval, EvaluateAllIntervals)
//    delegates to it;
//  * the counterfactual star pass, EvaluateCounterfactuals: task
//    scoring's Pr(φ[e:=true]) and Pr(φ[e:=false]) for every atom e of
//    many conditions, one hub enumeration per condition, fanned over
//    the same pool. It serves exact ungoverned ADPLL on star-shaped
//    conditions and bypasses the memo, which therefore holds ranking
//    conditions and the per-candidate fallback's counterfactuals only.
//
// The memo state (entries, the live variable index, epochs) rides
// session checkpoints, so a resumed session replays the uninterrupted
// run's hit/miss sequence.

#ifndef BAYESCROWD_PROBABILITY_EVALUATOR_H_
#define BAYESCROWD_PROBABILITY_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/binio.h"
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

  /// Memoize Pr(φ) per condition fingerprint (exact methods only;
  /// sampled estimates are never cached). Disable for ablations.
  bool memoize = true;

  /// Resource budgets + degradation ladder for every evaluation (see
  /// governor.h). Inert by default: all solver paths then behave
  /// byte-identically to a build without the governor, and an exact
  /// method that exhausts its own limits fails with ResourceExhausted.
  /// The ladder's partial-bound and sampling tiers are the only way an
  /// exhausted solve survives, each with an explicit grade.
  GovernorOptions governor;

  /// Tenant-safe cache scope. Folded into every memo stamp (alongside
  /// BudgetTag), so two sessions over *different* datasets or tenants
  /// can exchange memo blobs through a shared cache without aliasing:
  /// DistStamp digests distribution *epochs*, not values, and two fresh
  /// sessions start at identical epochs — without a scope key, dataset
  /// A's cached Pr(φ) could validate against dataset B's
  /// equal-fingerprint condition. A serving layer derives this from the
  /// tenant id plus the dataset/options fingerprint (see
  /// serve/cache.h). 0 (the default) contributes nothing.
  std::uint64_t cache_scope = 0;
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

/// Cumulative memo-cache counters (never reset by the evaluator; take
/// before/after snapshots for per-phase rates).
struct EvaluatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    // Lookups that had to compute.
  std::uint64_t evictions = 0; // Entries dropped by invalidation.
};

/// Owns the distributions and dispatches Pr(φ) to the selected method.
class ProbabilityEvaluator {
 public:
  explicit ProbabilityEvaluator(ProbabilityOptions options = {})
      : options_(std::move(options)) {
    BindMetrics(nullptr);
  }

  /// Mutable access for bulk setup. Mutating distributions through this
  /// handle bypasses variable-indexed invalidation, so it conservatively
  /// drops the whole memo cache; use SetDistribution() on hot paths.
  DistributionMap& distributions() {
    ClearCache();
    return dists_;
  }
  const DistributionMap& distributions() const { return dists_; }

  /// Registers or replaces one variable's distribution and evicts
  /// exactly the cached conditions that mention it.
  Status SetDistribution(const CellRef& var, std::vector<double> dist);

  const ProbabilityOptions& options() const { return options_; }
  ProbabilityOptions& options() { return options_; }

  /// Optional worker pool for the batch APIs (non-owning; nullptr means
  /// evaluate sequentially on the calling thread).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Pr(φ) by the configured method (memoized). With a governor
  /// enabled this is the midpoint of ProbabilityInterval().
  Result<double> Probability(const Condition& condition);

  /// Governed Pr(φ): exact when the budget suffices (lo == hi), a
  /// graded interval otherwise. With the governor inert the result is
  /// always kExact and numerically identical to Probability(). A
  /// one-element EvaluateBatchIntervals call.
  Result<ProbInterval> ProbabilityInterval(const Condition& condition);

  /// Pr(φ) for a batch of conditions, fanned across the thread pool:
  /// the one Pr(φ) path every other API delegates to. results[i]
  /// corresponds to conditions[i]; decided conditions cost nothing.
  /// Two passes run on the pool: a lookup pass (fingerprint, stamp and
  /// memo probe per condition; lanes only read the memo and the
  /// epochs), then the misses' solves, each of which also takes its
  /// condition's variable list. Only this thread writes the memo:
  /// after each barrier it charges hits and misses in index order and
  /// inserts the misses under their lookup stamps. Deterministic for
  /// any pool size: per-index result slots, per-lane stat tallies,
  /// per-condition sampling streams.
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
  /// instead. Counterfactuals bypass the memo (they are read once) and
  /// charge no ADPLL or cache counters. Deterministic for any pool size.
  Result<std::vector<Counterfactuals>> EvaluateCounterfactuals(
      const std::vector<CounterfactualRequest>& requests);

  /// Pr(φ(o)) for every object id in `ids` (batch over a c-table).
  Result<std::vector<ProbInterval>> EvaluateAllIntervals(
      const CTable& ctable, const std::vector<std::size_t>& ids);

  /// Pr(e) of one expression.
  Result<double> Probability(const Expression& expression) const {
    return ExpressionProbability(expression, dists_);
  }

  /// Evicts every cached condition mentioning `var` and bumps its
  /// distribution epoch (also done by SetDistribution).
  void InvalidateVariable(const CellRef& var);

  /// Drops the entire memo cache.
  void ClearCache();

  /// True when Pr(condition) would be served from the memo cache.
  bool IsCached(const Condition& condition) const;

  std::size_t CacheSize() const { return cache_.size(); }

  /// Cache and ADPLL counters, read back from the bound metrics
  /// registry (by value: the registry is the single source of truth).
  EvaluatorCacheStats cache_stats() const;
  AdpllStats adpll_stats() const;

  /// Governor counters ("solver.*"), read back the same way. All zero
  /// while the governor is inert.
  GovernorTally solver_stats() const;

  /// Points the evaluator's instruments ("evaluator.cache.*",
  /// "adpll.*", "evaluator.batch.*") at `registry`. nullptr (the
  /// constructor default) binds a private registry, so fresh evaluators
  /// always start from zeroed counters; the framework rebinds to its
  /// per-run registry. Not thread-safe against concurrent evaluation.
  void BindMetrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Cost-attribution context. Every deterministic cost unit the
  /// evaluator produces (cost.adpll_nodes, cost.cache_hits /
  /// cost.cache_misses) is charged to a labeled series {session, phase,
  /// solver_tier}; the framework switches the phase at each round-loop
  /// boundary ("select", "update", "answer"). Handles re-resolve only when the context
  /// actually changes — a few mutexed map lookups per phase switch, and
  /// the per-evaluation charges stay lock-free relaxed adds. Charging
  /// happens at the deterministic fold points (the index-order folds
  /// after the lookup and solve barriers), so labeled totals are
  /// byte-identical at any thread count. Call after BindMetrics; not
  /// thread-safe against concurrent evaluation.
  void SetCostContext(const std::string& session, const std::string& phase);
  const std::string& cost_session() const { return cost_session_; }
  const std::string& cost_phase() const { return cost_phase_; }

  /// Replaces the solver governor for every subsequent evaluation — the
  /// serving layer's QoS hook (a heavy tenant's sessions get walked
  /// down to tighter budgets at round boundaries). BudgetTag() follows
  /// the new configuration, so memo entries written under the old
  /// budgets simply stop matching (sound, never wrong). Deterministic
  /// as long as callers tighten only at deterministic points; not
  /// thread-safe against concurrent evaluation.
  void SetGovernor(const GovernorOptions& governor) {
    options_.governor = governor;
  }
  const GovernorOptions& governor() const { return options_.governor; }

  /// Appends the memo state (cache entries with their stamps, the live
  /// part of the variable index, distribution epochs) to `out` in a
  /// canonical binary form, so a resumed session replays the exact
  /// hit/miss sequence of the uninterrupted run. Distributions are NOT
  /// included — the caller re-derives them from checkpointed knowledge.
  /// There is one layout; the checkpoint envelope version pins it.
  void SerializeMemoState(std::string* out) const;

  /// Restores state written by SerializeMemoState, replacing the
  /// current memo state. Call after the post-resume SetDistribution
  /// pass: the imported epochs overwrite the setup-time ones, keeping
  /// the saved stamps valid.
  Status RestoreMemoState(BinReader* reader);

  /// Warm-start merge for a shared cross-session cache: imports the
  /// memo entries and variable index of a SerializeMemoState blob
  /// WITHOUT touching this evaluator's distribution epochs or existing
  /// entries (existing entries win on fingerprint collisions;
  /// RestoreMemoState, by contrast, clears everything and adopts the
  /// blob's epochs). An imported entry only
  /// ever serves a hit when its stamp validates against the *local*
  /// epochs and scope/budget tags — the standard lookup check — so
  /// merging a foreign blob is always sound; mismatched entries are
  /// dead weight, never wrong answers. Returns the number of memo
  /// entries imported.
  Result<std::size_t> MergeMemoState(BinReader* reader);

 private:
  struct CacheEntry {
    ProbInterval interval;    // Exact entries have lo == hi.
    std::uint64_t stamp = 0;  // Distribution-epoch stamp at insertion.
  };

  /// A SerializeMemoState blob, decoded (defined in evaluator.cc).
  struct MemoBlob;

  /// The one memo-blob decoder behind RestoreMemoState and
  /// MergeMemoState. Validates every count and enum before applying
  /// anything, so a corrupt blob leaves the evaluator untouched.
  static Status DecodeMemoState(BinReader* reader, MemoBlob* out);

  /// Unions a decoded blob into the memo state (MergeMemoState's
  /// semantics; RestoreMemoState clears first and adopts the epochs).
  /// Returns the entries imported.
  std::size_t MergeMemoBlob(const MemoBlob& blob);

  /// Order-insensitive digest of the distribution epochs of every
  /// variable occurrence in `condition`; changes whenever any mentioned
  /// variable's distribution is replaced.
  std::uint64_t DistStamp(const Condition& condition) const;

  /// Budget-tier component of cache stamps: entries computed under one
  /// governor configuration never satisfy lookups under another (a
  /// low-budget interval must not be served where a higher-budget
  /// exact value was asked for). 0 — the v1 stamp — when inert.
  std::uint64_t BudgetTag() const { return options_.governor.Fingerprint(); }

  /// Tenant-scope component of cache stamps (see
  /// ProbabilityOptions::cache_scope). 0 — the legacy stamp — for the
  /// default scope.
  std::uint64_t ScopeTag() const;

  bool Memoizable() const {
    return options_.memoize &&
           (options_.method == ProbabilityMethod::kAdpll ||
            options_.method == ProbabilityMethod::kNaive);
  }

  /// One uncached evaluation. `rng` supplies sampling draws (a
  /// per-condition generator, so parallel order cannot leak into
  /// results); `stats` receives ADPLL counters; `scratch` holds the
  /// solver's reusable per-lane buffers (nullptr: per-call buffers).
  Result<double> Compute(const Condition& condition, Rng& rng,
                         AdpllStats* stats, AdpllScratch* scratch);

  /// One uncached *governed* evaluation: dispatches to Compute when the
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

  /// Deterministic per-condition sampling stream.
  Rng ConditionRng(const ConditionFingerprint& fingerprint) const;

  /// Caches `interval` under the stamp and variables the batch's lanes
  /// computed for the condition, and lists it under each variable.
  void Insert(const ConditionFingerprint& fingerprint, std::uint64_t stamp,
              const std::vector<CellRef>& variables,
              const ProbInterval& interval);

  /// Folds one (per-call or per-lane) ADPLL tally into the counters.
  void AddAdpllStats(const AdpllStats& stats);

  /// Same for the governor counters.
  void AddSolverTally(const GovernorTally& tally);

  ProbabilityOptions options_;
  DistributionMap dists_;

  ThreadPool* pool_ = nullptr;

  std::unordered_map<ConditionFingerprint, CacheEntry,
                     ConditionFingerprintHash>
      cache_;

  /// Per-lane solver scratch (element 0 serves a sequential pass);
  /// grown to the pool width before each batch pass.
  std::vector<AdpllScratch> adpll_scratch_;
  /// Fingerprints of cached conditions per mentioned variable. May hold
  /// stale and repeated fingerprints: eviction counts only what it
  /// actually erases, so checkpoints keep just the live ones.
  std::unordered_map<PackedVar, std::vector<ConditionFingerprint>>
      var_index_;
  /// Times each variable's distribution has been replaced.
  std::unordered_map<PackedVar, std::uint64_t> var_epoch_;

  /// Metrics sink (never null after construction) and resolved
  /// instrument handles — lock-free increments on the hot paths.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
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
    obs::Histogram* batch_misses = nullptr;
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
    obs::Counter* cache_hits[kTierCount] = {};
    obs::Counter* cache_misses[kTierCount] = {};
  } cost_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_EVALUATOR_H_

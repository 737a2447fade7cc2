// SolverGovernor: deterministic resource budgets and the graceful
// degradation ladder for Pr(φ) evaluation (DESIGN.md §10).
//
// Pr(φ) is #SAT-hard (paper, Theorem 1): one adversarial c-table
// condition can stall a whole query session inside the solver, where
// crowd-side retries and checkpoints cannot help. The governor gives
// every evaluation a budget and, when it runs out, walks a ladder of
// weaker-but-sound answers instead of hanging:
//
//   tier 1  exact ADPLL within the node budget            → kExact
//   tier 2  the same search with the anytime stopping
//           rule: unexplored subtrees close into a sound
//           [lo, hi] interval                             → kPartialBound
//   tier 3  generalized-ApproxCount sampling with a
//           normal-approximation confidence interval      → kSampledCI
//   tier 4  the uninformative [0, 1]                      → kUnknown
//
// Evaluate (ADPLL) and EvaluateNaive (full enumeration, whose anytime
// tier is the bounded scan) walk this one ladder; a LadderMode drops
// tiers 2 and/or 3.
//
// Determinism contract: the node and component budgets are counted in
// solver decisions, so which tier answers — and the answer itself — is
// reproducible across runs, thread counts, and kill/resume. The
// optional wall-clock deadline only *degrades* (drops to a lower
// tier); it never changes the value any tier produces.

#ifndef BAYESCROWD_PROBABILITY_GOVERNOR_H_
#define BAYESCROWD_PROBABILITY_GOVERNOR_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "ctable/condition.h"
#include "probability/adpll.h"
#include "probability/distributions.h"
#include "probability/interval.h"
#include "probability/naive.h"
#include "probability/sampling.h"

namespace bayescrowd {

/// How far down the ladder a governed evaluation may degrade.
enum class LadderMode : std::uint8_t {
  kFull = 0,      // exact → partial interval → sampled CI → [0,1]
  kInterval = 1,  // exact → partial interval → [0,1] (no sampling)
  kSample = 2,    // exact → sampled CI → [0,1] (skip partial ADPLL)
  kStrict = 3,    // exact → [0,1] (degrade straight to unknown)
};

const char* LadderModeToString(LadderMode mode);

/// Parses a CLI ladder name ("full", "interval", "sample", "strict").
/// Returns false on unknown names, leaving `mode` untouched.
bool ParseLadderMode(const std::string& name, LadderMode* mode);

struct GovernorOptions {
  /// Decision/node budget per evaluation, counted in ADPLL recursive
  /// calls (and Naive assignments for the kNaive method). 0 = unlimited.
  std::uint64_t max_nodes = 0;

  /// Budget on component-decomposition splits per evaluation.
  /// 0 = unlimited.
  std::uint64_t max_components = 0;

  /// Optional wall-clock cap per evaluation, in milliseconds. Only ever
  /// triggers degradation to a lower tier — never changes the value an
  /// uninterrupted tier would produce — so it is excluded from the
  /// session config fingerprint.
  /// 0 = no deadline.
  std::int64_t deadline_ms = 0;

  /// Which degradation steps are allowed once a budget is exhausted.
  LadderMode ladder = LadderMode::kFull;

  /// Sample count for the ladder's sampling tier.
  std::size_t interval_samples = 4096;

  /// Normal quantile for the sampling tier's confidence interval
  /// (2.576 ≈ a two-sided 99% interval).
  double confidence_z = 2.5758293035489004;

  /// An inert governor (nothing to enforce) leaves every solver path
  /// byte-identical to the ungoverned build.
  bool enabled() const {
    return max_nodes > 0 || max_components > 0 || deadline_ms > 0;
  }
};

/// Counters for one governed evaluation, merged deterministically by
/// the evaluator (per lane, then across lanes after the batch barrier).
struct GovernorTally {
  std::uint64_t budget_exhausted = 0;  // Tier-1 exact solves that ran out.
  std::uint64_t deadline_hits = 0;     // Wall-clock cap fired.
  std::uint64_t tier_exact = 0;
  std::uint64_t tier_partial = 0;
  std::uint64_t tier_sampled = 0;
  std::uint64_t tier_unknown = 0;

  GovernorTally& operator+=(const GovernorTally& other) {
    budget_exhausted += other.budget_exhausted;
    deadline_hits += other.deadline_hits;
    tier_exact += other.tier_exact;
    tier_partial += other.tier_partial;
    tier_sampled += other.tier_sampled;
    tier_unknown += other.tier_unknown;
    return *this;
  }
};

/// Walks the degradation ladder for one Pr(φ) evaluation. Stateless
/// apart from its options: every call builds a fresh SolverControl, so
/// governed evaluations are independent and safe to fan across lanes.
class SolverGovernor {
 public:
  explicit SolverGovernor(GovernorOptions options)
      : options_(options) {}

  const GovernorOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled(); }

  /// Governed evaluation with ADPLL as the exact tier and partial ADPLL
  /// as the anytime tier. `base` carries the caller's solver
  /// configuration; the governor clamps its budgets and installs
  /// cancellation. `rng` feeds the sampling tier only; `scratch` holds
  /// the solver's reusable buffers (see AdpllScratch).
  Result<ProbInterval> Evaluate(const Condition& condition,
                                const DistributionMap& dists,
                                const AdpllOptions& base,
                                const SamplingOptions& sampling, Rng& rng,
                                AdpllStats* stats, GovernorTally* tally,
                                AdpllScratch* scratch = nullptr) const;

  /// The same ladder with full Naive enumeration as the exact tier and
  /// the bounded Naive scan as the anytime tier.
  Result<ProbInterval> EvaluateNaive(const Condition& condition,
                                     const DistributionMap& dists,
                                     const NaiveOptions& base,
                                     const SamplingOptions& sampling,
                                     Rng& rng, GovernorTally* tally) const;

 private:
  GovernorOptions options_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_GOVERNOR_H_

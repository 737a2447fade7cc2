#include "probability/governor.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"

namespace bayescrowd {
namespace {

// A budget where 0 means unlimited, capped at `cap`.
std::uint64_t CapBudget(std::uint64_t budget, std::uint64_t cap) {
  return budget > 0 ? std::min(budget, cap) : cap;
}

// The one tier walk behind Evaluate and EvaluateNaive (tiers 1-4 in
// governor.h). `exact` and `anytime` run the method's exact solver and
// its anytime solver under the clamped budgets, polling `control`.
template <typename ExactFn, typename AnytimeFn>
Result<ProbInterval> WalkLadder(const GovernorOptions& options,
                                const Condition& condition,
                                const DistributionMap& dists,
                                const SamplingOptions& sampling,
                                SolverControl& control, Rng& rng,
                                GovernorTally* tally, const ExactFn& exact,
                                const AnytimeFn& anytime) {
  if (options.deadline_ms > 0) {
    control.SetDeadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.deadline_ms));
  }

  // Tier 1: the exact solve within the budget.
  {
    BAYESCROWD_TRACE_SPAN("governor.tier.exact");
    Result<double> p = exact();
    if (p.ok()) {
      if (tally != nullptr) ++tally->tier_exact;
      return ProbInterval::Exact(p.value());
    }
    if (p.status().code() != StatusCode::kResourceExhausted) {
      return p.status();
    }
  }
  if (tally != nullptr) {
    ++tally->budget_exhausted;
    if (control.stopped()) ++tally->deadline_hits;
  }

  // Tier 2: the same search with the anytime stopping rule and the same
  // deterministic budget; closed subtrees widen the answer instead of
  // aborting it.
  const LadderMode mode = options.ladder;
  if (mode == LadderMode::kFull || mode == LadderMode::kInterval) {
    BAYESCROWD_TRACE_SPAN("governor.tier.partial");
    BAYESCROWD_ASSIGN_OR_RETURN(const ProbInterval partial, anytime());
    if (partial.width() < 1.0) {
      if (tally != nullptr) {
        if (partial.exact()) {
          ++tally->tier_exact;
        } else {
          ++tally->tier_partial;
        }
      }
      return partial;
    }
  }

  // Tier 3: sampled estimate with a confidence interval.
  if (mode == LadderMode::kFull || mode == LadderMode::kSample) {
    BAYESCROWD_TRACE_SPAN("governor.tier.sampled");
    SamplingOptions tier = sampling;
    tier.num_samples = options.interval_samples;
    tier.control = &control;
    Result<ProbInterval> ci = SampledProbabilityInterval(
        condition, dists, tier, options.confidence_z, rng);
    if (ci.ok()) {
      if (tally != nullptr) ++tally->tier_sampled;
      return ci;
    }
    if (ci.status().code() != StatusCode::kResourceExhausted) {
      return ci.status();
    }
  }

  // Tier 4: nothing learned in budget.
  if (tally != nullptr) ++tally->tier_unknown;
  return ProbInterval::Unknown();
}

}  // namespace

const char* ProbQualityToString(ProbQuality quality) {
  switch (quality) {
    case ProbQuality::kExact:
      return "exact";
    case ProbQuality::kPartialBound:
      return "partial";
    case ProbQuality::kSampledCI:
      return "sampled";
    case ProbQuality::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* LadderModeToString(LadderMode mode) {
  switch (mode) {
    case LadderMode::kFull:
      return "full";
    case LadderMode::kInterval:
      return "interval";
    case LadderMode::kSample:
      return "sample";
    case LadderMode::kStrict:
      return "strict";
  }
  return "?";
}

bool ParseLadderMode(const std::string& name, LadderMode* mode) {
  if (name == "full") {
    *mode = LadderMode::kFull;
  } else if (name == "interval") {
    *mode = LadderMode::kInterval;
  } else if (name == "sample") {
    *mode = LadderMode::kSample;
  } else if (name == "strict") {
    *mode = LadderMode::kStrict;
  } else {
    return false;
  }
  return true;
}

Result<ProbInterval> SolverGovernor::Evaluate(
    const Condition& condition, const DistributionMap& dists,
    const AdpllOptions& base, const SamplingOptions& sampling, Rng& rng,
    AdpllStats* stats, GovernorTally* tally, AdpllScratch* scratch) const {
  AdpllOptions governed = base;
  if (options_.max_nodes > 0) {
    governed.max_calls = std::min(base.max_calls, options_.max_nodes);
    governed.max_conjunct_assignments =
        CapBudget(base.max_conjunct_assignments, options_.max_nodes);
  }
  if (options_.max_components > 0) {
    governed.max_component_splits =
        CapBudget(base.max_component_splits, options_.max_components);
  }
  SolverControl control;
  governed.control = &control;
  return WalkLadder(
      options_, condition, dists, sampling, control, rng, tally,
      [&] {
        return AdpllProbability(condition, dists, governed, stats, scratch);
      },
      [&] {
        return AdpllPartialProbability(condition, dists, governed, stats,
                                       scratch);
      });
}

Result<ProbInterval> SolverGovernor::EvaluateNaive(
    const Condition& condition, const DistributionMap& dists,
    const NaiveOptions& base, const SamplingOptions& sampling, Rng& rng,
    GovernorTally* tally) const {
  NaiveOptions governed = base;
  if (options_.max_nodes > 0) {
    governed.max_assignments =
        std::min(base.max_assignments, options_.max_nodes);
  }
  SolverControl control;
  governed.control = &control;
  return WalkLadder(
      options_, condition, dists, sampling, control, rng, tally,
      [&] { return NaiveProbability(condition, dists, governed); },
      [&] { return NaiveBoundedProbability(condition, dists, governed); });
}

}  // namespace bayescrowd

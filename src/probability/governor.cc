#include "probability/governor.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/trace.h"

namespace bayescrowd {
namespace {

std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

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

std::uint64_t GovernorOptions::Fingerprint() const {
  // 0 is reserved for the inert governor so pre-governor cache blobs
  // keep their stamps. The deadline *value* is excluded (wall-clock
  // degrades, never changes results), but deadline-enabled runs still
  // get their own tag: they may cache degraded intervals that must not
  // be served to an ungoverned run.
  if (!enabled()) return 0;
  std::uint64_t h = SplitMix64(0xB0D6E7ULL);
  h = SplitMix64(h ^ max_nodes);
  h = SplitMix64(h ^ max_components);
  h = SplitMix64(h ^ static_cast<std::uint64_t>(ladder));
  h = SplitMix64(h ^ static_cast<std::uint64_t>(interval_samples));
  std::uint64_t z_bits = 0;
  static_assert(sizeof(z_bits) == sizeof(confidence_z));
  std::memcpy(&z_bits, &confidence_z, sizeof(z_bits));
  h = SplitMix64(h ^ z_bits);
  return h == 0 ? 1 : h;
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

#include "probability/evaluator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.h"

namespace bayescrowd {
namespace {

std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* ProbabilityMethodToString(ProbabilityMethod method) {
  switch (method) {
    case ProbabilityMethod::kAdpll:
      return "adpll";
    case ProbabilityMethod::kNaive:
      return "naive";
    case ProbabilityMethod::kSampled:
      return "sampled";
    case ProbabilityMethod::kSampledRaoBlackwell:
      return "sampled-rb";
  }
  return "?";
}

void ProbabilityEvaluator::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    if (owned_metrics_ == nullptr) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    }
    registry = owned_metrics_.get();
  }
  metrics_ = registry;
  ins_.adpll_calls = registry->GetCounter("adpll.calls");
  ins_.adpll_branches = registry->GetCounter("adpll.branches");
  ins_.adpll_direct_evals = registry->GetCounter("adpll.direct_evals");
  ins_.adpll_component_splits =
      registry->GetCounter("adpll.component_splits");
  ins_.adpll_star_evals = registry->GetCounter("adpll.star_evals");
  ins_.solver_budget_exhausted =
      registry->GetCounter("solver.budget_exhausted");
  ins_.solver_deadline_hits = registry->GetCounter("solver.deadline_hits");
  ins_.solver_tier_exact = registry->GetCounter("solver.ladder_tier.exact");
  ins_.solver_tier_partial =
      registry->GetCounter("solver.ladder_tier.partial");
  ins_.solver_tier_sampled =
      registry->GetCounter("solver.ladder_tier.sampled");
  ins_.solver_tier_unknown =
      registry->GetCounter("solver.ladder_tier.unknown");
  ins_.batch_size = registry->GetHistogram(
      "evaluator.batch.size", {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});
  ResolveCostInstruments();
}

void ProbabilityEvaluator::ResolveCostInstruments() {
  const auto labeled = [this](const char* name, std::size_t tier) {
    return metrics_->GetCounter(
        name, {{"session", cost_session_},
               {"phase", cost_phase_},
               {"solver_tier",
                ProbQualityToString(static_cast<ProbQuality>(tier))}});
  };
  for (std::size_t tier = 0; tier < kTierCount; ++tier) {
    cost_.adpll_nodes[tier] = labeled("cost.adpll_nodes", tier);
  }
}

void ProbabilityEvaluator::SetCostContext(const std::string& session,
                                          const std::string& phase) {
  if (session == cost_session_ && phase == cost_phase_) return;
  cost_session_ = session;
  cost_phase_ = phase;
  ResolveCostInstruments();
}

AdpllStats ProbabilityEvaluator::adpll_stats() const {
  AdpllStats out;
  out.calls = ins_.adpll_calls->value();
  out.branches = ins_.adpll_branches->value();
  out.direct_evals = ins_.adpll_direct_evals->value();
  out.component_splits = ins_.adpll_component_splits->value();
  out.star_evals = ins_.adpll_star_evals->value();
  return out;
}

void ProbabilityEvaluator::AddAdpllStats(const AdpllStats& stats) {
  ins_.adpll_calls->Increment(stats.calls);
  ins_.adpll_branches->Increment(stats.branches);
  ins_.adpll_direct_evals->Increment(stats.direct_evals);
  ins_.adpll_component_splits->Increment(stats.component_splits);
  ins_.adpll_star_evals->Increment(stats.star_evals);
}

GovernorTally ProbabilityEvaluator::solver_stats() const {
  GovernorTally out;
  out.budget_exhausted = ins_.solver_budget_exhausted->value();
  out.deadline_hits = ins_.solver_deadline_hits->value();
  out.tier_exact = ins_.solver_tier_exact->value();
  out.tier_partial = ins_.solver_tier_partial->value();
  out.tier_sampled = ins_.solver_tier_sampled->value();
  out.tier_unknown = ins_.solver_tier_unknown->value();
  return out;
}

void ProbabilityEvaluator::AddSolverTally(const GovernorTally& tally) {
  ins_.solver_budget_exhausted->Increment(tally.budget_exhausted);
  ins_.solver_deadline_hits->Increment(tally.deadline_hits);
  ins_.solver_tier_exact->Increment(tally.tier_exact);
  ins_.solver_tier_partial->Increment(tally.tier_partial);
  ins_.solver_tier_sampled->Increment(tally.tier_sampled);
  ins_.solver_tier_unknown->Increment(tally.tier_unknown);
}

Rng ProbabilityEvaluator::ConditionRng(const Condition& condition) const {
  const bool draws = options_.governor.enabled() ||
                     options_.method == ProbabilityMethod::kSampled ||
                     options_.method == ProbabilityMethod::kSampledRaoBlackwell;
  if (!draws) return Rng(options_.sampling_seed);
  const ConditionFingerprint fingerprint = condition.Fingerprint();
  return Rng(options_.sampling_seed ^ SplitMix64(fingerprint.first) ^
             SplitMix64(fingerprint.second ^ 0xC2B2AE3D27D4EB4FULL));
}

Result<double> ProbabilityEvaluator::Compute(const Condition& condition,
                                             Rng& rng, AdpllStats* stats,
                                             AdpllScratch* scratch) {
  switch (options_.method) {
    case ProbabilityMethod::kAdpll: {
      BAYESCROWD_TRACE_SPAN("adpll.solve");
      return AdpllProbability(condition, dists_, options_.adpll, stats,
                              scratch);
    }
    case ProbabilityMethod::kNaive:
      return NaiveProbability(condition, dists_, options_.naive);
    case ProbabilityMethod::kSampled:
      return SampledProbability(condition, dists_, options_.sampling, rng);
    case ProbabilityMethod::kSampledRaoBlackwell:
      return SampledProbabilityRaoBlackwell(condition, dists_,
                                            options_.sampling, rng);
  }
  return Status::Internal("unknown probability method");
}

Result<ProbInterval> ProbabilityEvaluator::ComputeInterval(
    const Condition& condition, Rng& rng, AdpllStats* stats,
    GovernorTally* tally, AdpllScratch* scratch) {
  if (!options_.governor.enabled()) {
    // Inert governor: the plain point-valued method, graded kExact.
    BAYESCROWD_ASSIGN_OR_RETURN(const double p,
                                Compute(condition, rng, stats, scratch));
    return ProbInterval::Exact(p);
  }
  const SolverGovernor governor(options_.governor);
  switch (options_.method) {
    case ProbabilityMethod::kAdpll: {
      BAYESCROWD_TRACE_SPAN("adpll.solve");
      return governor.Evaluate(condition, dists_, options_.adpll,
                               options_.sampling, rng, stats, tally,
                               scratch);
    }
    case ProbabilityMethod::kNaive:
      return governor.EvaluateNaive(condition, dists_, options_.naive,
                                    options_.sampling, rng, tally);
    case ProbabilityMethod::kSampled:
    case ProbabilityMethod::kSampledRaoBlackwell: {
      // Sampled methods have no exact tier; the governor only adds the
      // wall-clock cap, degrading a cancelled estimate to [0, 1].
      SolverControl control;
      if (options_.governor.deadline_ms > 0) {
        control.SetDeadline(
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.governor.deadline_ms));
      }
      SamplingOptions governed = options_.sampling;
      governed.control = &control;
      Result<double> p =
          options_.method == ProbabilityMethod::kSampled
              ? SampledProbability(condition, dists_, governed, rng)
              : SampledProbabilityRaoBlackwell(condition, dists_, governed,
                                               rng);
      if (p.ok()) {
        if (tally != nullptr) ++tally->tier_sampled;
        return ProbInterval{p.value(), p.value(), ProbQuality::kSampledCI};
      }
      if (p.status().code() != StatusCode::kResourceExhausted) {
        return p.status();
      }
      if (tally != nullptr) {
        ++tally->budget_exhausted;
        ++tally->deadline_hits;
        ++tally->tier_unknown;
      }
      return ProbInterval::Unknown();
    }
  }
  return Status::Internal("unknown probability method");
}

void ProbabilityEvaluator::ReserveScratch(std::size_t lanes) {
  if (adpll_scratch_.size() < lanes) adpll_scratch_.resize(lanes);
}

Status ProbabilityEvaluator::FanOut(
    std::size_t count,
    const std::function<void(std::size_t lane, std::size_t index)>& fn) {
  if (pool_ != nullptr && count > 1) return pool_->ParallelFor(count, fn);
  for (std::size_t i = 0; i < count; ++i) fn(0, i);
  return Status::OK();
}

Result<double> ProbabilityEvaluator::Probability(const Condition& condition) {
  BAYESCROWD_ASSIGN_OR_RETURN(const ProbInterval interval,
                              ProbabilityInterval(condition));
  return interval.midpoint();
}

Result<ProbInterval> ProbabilityEvaluator::ProbabilityInterval(
    const Condition& condition) {
  BAYESCROWD_ASSIGN_OR_RETURN(const std::vector<ProbInterval> intervals,
                              EvaluateBatchIntervals({&condition}));
  return intervals.front();
}

Result<std::vector<ProbInterval>>
ProbabilityEvaluator::EvaluateBatchIntervals(
    const std::vector<const Condition*>& conditions) {
  BAYESCROWD_TRACE_SPAN("evaluator.batch");
  const std::size_t n = conditions.size();
  std::vector<ProbInterval> intervals(n, ProbInterval::Exact(0.0));
  ins_.batch_size->Observe(static_cast<double>(n));

  // Decided conditions cost nothing; every other one is solved.
  std::vector<std::size_t> undecided;
  undecided.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!conditions[i]->IsDecided()) {
      undecided.push_back(i);
    } else if (conditions[i]->IsTrue()) {
      intervals[i] = ProbInterval::Exact(1.0);
    }
  }

  // Each solve is an independent model-counting call that only reads
  // dists_. Results land in per-index slots, ADPLL and governor counters
  // in per-lane accumulators, and sampling draws come from per-condition
  // generators — so any lane count computes the same numbers.
  const std::size_t lanes = pool_ == nullptr ? 1 : pool_->size();
  std::vector<AdpllStats> lane_stats(std::max<std::size_t>(lanes, 1));
  std::vector<GovernorTally> lane_tallies(lane_stats.size());
  ReserveScratch(lane_stats.size());
  std::vector<Status> errors(undecided.size(), Status::OK());
  // Per-solve ADPLL node counts, charged to the labeled cost series
  // after the barrier: the delta each solve adds to its lane's tally is
  // schedule-independent, so the per-tier totals are too.
  std::vector<std::uint64_t> solve_nodes(undecided.size(), 0);
  const auto evaluate_one = [this, &conditions, &undecided, &intervals,
                             &errors, &lane_stats, &lane_tallies,
                             &solve_nodes](std::size_t lane, std::size_t u) {
    const Condition& condition = *conditions[undecided[u]];
    Rng rng = ConditionRng(condition);
    const std::uint64_t calls_before = lane_stats[lane].calls;
    Result<ProbInterval> p =
        ComputeInterval(condition, rng, &lane_stats[lane],
                        &lane_tallies[lane], &adpll_scratch_[lane]);
    solve_nodes[u] = lane_stats[lane].calls - calls_before;
    if (!p.ok()) {
      errors[u] = p.status();
      return;
    }
    intervals[undecided[u]] = p.value();
  };
  const Status pool_status = FanOut(undecided.size(), evaluate_one);

  // Merge per-lane tallies after the barrier: deterministic totals, and
  // one counter increment per lane instead of one per condition.
  AdpllStats merged;
  for (const AdpllStats& stats : lane_stats) merged += stats;
  AddAdpllStats(merged);
  GovernorTally tally;
  for (const GovernorTally& t : lane_tallies) tally += t;
  AddSolverTally(tally);
  BAYESCROWD_RETURN_NOT_OK(pool_status);
  for (const Status& status : errors) {
    BAYESCROWD_RETURN_NOT_OK(status);
  }

  // Charge the labeled cost units in index order on this thread: the
  // resulting tier grades the charge.
  for (std::size_t u = 0; u < undecided.size(); ++u) {
    if (solve_nodes[u] == 0) continue;
    cost_.adpll_nodes[TierIndex(intervals[undecided[u]].quality)]->Increment(
        solve_nodes[u]);
  }
  return intervals;
}

Result<std::vector<Counterfactuals>>
ProbabilityEvaluator::EvaluateCounterfactuals(
    const std::vector<CounterfactualRequest>& requests) {
  std::vector<Counterfactuals> out(requests.size());
  if (options_.method != ProbabilityMethod::kAdpll ||
      !options_.adpll.star_fast_path || options_.governor.enabled()) {
    return out;
  }
  BAYESCROWD_TRACE_SPAN("evaluator.counterfactuals");
  const std::size_t lanes = pool_ == nullptr ? 1 : pool_->size();
  ReserveScratch(std::max<std::size_t>(lanes, 1));
  const auto pass_one = [this, &requests, &out](std::size_t lane,
                                                std::size_t i) {
    const Condition& condition = *requests[i].condition;
    if (condition.IsDecided()) return;
    AdpllScratch& scratch = adpll_scratch_[lane];
    Status status = Status::OK();
    if (!BuildStarPlan(condition, dists_, options_.adpll.max_hub_space,
                       &scratch.star_plan, &scratch.star, &status) ||
        !status.ok()) {
      return;
    }
    out[i].served =
        EvalStarCounterfactuals(condition, scratch.star_plan, dists_,
                                *requests[i].atoms, &scratch.star,
                                &out[i].if_true, &out[i].if_false)
            .ok();
    if (!out[i].served) {
      out[i].if_true.clear();
      out[i].if_false.clear();
    }
  };
  BAYESCROWD_RETURN_NOT_OK(FanOut(requests.size(), pass_one));
  return out;
}

Result<std::vector<ProbInterval>> ProbabilityEvaluator::EvaluateAllIntervals(
    const CTable& ctable, const std::vector<std::size_t>& ids) {
  std::vector<const Condition*> conditions;
  conditions.reserve(ids.size());
  for (const std::size_t id : ids) {
    conditions.push_back(&ctable.condition(id));
  }
  return EvaluateBatchIntervals(conditions);
}

}  // namespace bayescrowd

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
  ins_.cache_hits = registry->GetCounter("evaluator.cache.hits");
  ins_.cache_misses = registry->GetCounter("evaluator.cache.misses");
  ins_.cache_evictions = registry->GetCounter("evaluator.cache.evictions");
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
  ins_.batch_misses = registry->GetHistogram(
      "evaluator.batch.misses", {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});
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
    cost_.cache_hits[tier] = labeled("cost.cache_hits", tier);
    cost_.cache_misses[tier] = labeled("cost.cache_misses", tier);
  }
}

void ProbabilityEvaluator::SetCostContext(const std::string& session,
                                          const std::string& phase) {
  if (session == cost_session_ && phase == cost_phase_) return;
  cost_session_ = session;
  cost_phase_ = phase;
  ResolveCostInstruments();
}

EvaluatorCacheStats ProbabilityEvaluator::cache_stats() const {
  EvaluatorCacheStats out;
  out.hits = ins_.cache_hits->value();
  out.misses = ins_.cache_misses->value();
  out.evictions = ins_.cache_evictions->value();
  return out;
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

std::uint64_t ProbabilityEvaluator::ScopeTag() const {
  if (options_.cache_scope == 0) return 0;
  const std::uint64_t h = SplitMix64(options_.cache_scope ^ 0x5C09EULL);
  return h == 0 ? 1 : h;
}

std::uint64_t ProbabilityEvaluator::DistStamp(
    const Condition& condition) const {
  // Sum of per-occurrence digests: order-insensitive, and equal
  // conditions produce equal multisets of occurrences, so the stamp
  // matches iff no mentioned variable's epoch moved since insertion.
  std::uint64_t stamp = 0;
  const auto add = [this, &stamp](const CellRef& var) {
    const PackedVar packed = PackVar(var);
    const auto it = var_epoch_.find(packed);
    const std::uint64_t epoch = it == var_epoch_.end() ? 0 : it->second;
    stamp += SplitMix64(packed ^ (epoch * 0xD6E8FEB86659FD93ULL));
  };
  for (const Conjunct& conjunct : condition.conjuncts()) {
    for (const Expression& e : conjunct) {
      add(e.lhs);
      if (e.rhs_is_var) add(e.rhs_var);
    }
  }
  return stamp;
}

Status ProbabilityEvaluator::SetDistribution(const CellRef& var,
                                             std::vector<double> dist) {
  BAYESCROWD_RETURN_NOT_OK(dists_.Set(var, std::move(dist)));
  InvalidateVariable(var);
  return Status::OK();
}

void ProbabilityEvaluator::InvalidateVariable(const CellRef& var) {
  const PackedVar packed = PackVar(var);
  ++var_epoch_[packed];
  const auto it = var_index_.find(packed);
  if (it == var_index_.end()) return;
  for (const ConditionFingerprint& fingerprint : it->second) {
    ins_.cache_evictions->Increment(cache_.erase(fingerprint));
  }
  var_index_.erase(it);
}

void ProbabilityEvaluator::ClearCache() {
  ins_.cache_evictions->Increment(cache_.size());
  cache_.clear();
  var_index_.clear();
}

bool ProbabilityEvaluator::IsCached(const Condition& condition) const {
  if (condition.IsDecided()) return false;
  const auto it = cache_.find(condition.Fingerprint());
  return it != cache_.end() &&
         it->second.stamp == (DistStamp(condition) ^ BudgetTag() ^ ScopeTag());
}

Rng ProbabilityEvaluator::ConditionRng(
    const ConditionFingerprint& fingerprint) const {
  return Rng(options_.sampling_seed ^ SplitMix64(fingerprint.first) ^
             SplitMix64(fingerprint.second ^ 0xC2B2AE3D27D4EB4FULL));
}

void ProbabilityEvaluator::Insert(const ConditionFingerprint& fingerprint,
                                  const Condition& condition,
                                  const ProbInterval& interval) {
  cache_[fingerprint] =
      CacheEntry{interval, DistStamp(condition) ^ BudgetTag() ^ ScopeTag()};
  for (const CellRef& var : condition.Variables()) {
    var_index_[PackVar(var)].push_back(fingerprint);
  }
}

void ProbabilityEvaluator::SerializeMemoState(std::string* out) const {
  BinWriter w(out);
  // Sort every map before writing so the blob is canonical: two
  // processes that reached the same logical state emit identical bytes
  // regardless of hash-table iteration order.
  std::vector<std::pair<ConditionFingerprint, CacheEntry>> entries(
      cache_.begin(), cache_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.WriteU64(entries.size());
  for (const auto& [fingerprint, entry] : entries) {
    w.WriteU64(fingerprint.first);
    w.WriteU64(fingerprint.second);
    w.WriteDouble(entry.interval.lo);
    w.WriteDouble(entry.interval.hi);
    w.WriteU8(static_cast<std::uint8_t>(entry.interval.quality));
    w.WriteU64(entry.stamp);
  }

  // Only the live part of the variable index: InvalidateVariable counts
  // what it actually erases, so stale and repeated fingerprints change
  // nothing a resumed session observes. Every live entry is still
  // listed under all of its variables (Insert lists it under each, and
  // a variable's list is only dropped together with its entries).
  std::vector<std::pair<PackedVar, std::vector<ConditionFingerprint>>> index;
  for (const auto& [var, listed] : var_index_) {
    std::vector<ConditionFingerprint> live;
    for (const ConditionFingerprint& fingerprint : listed) {
      if (cache_.count(fingerprint) != 0) live.push_back(fingerprint);
    }
    if (live.empty()) continue;
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    index.emplace_back(var, std::move(live));
  }
  std::sort(index.begin(), index.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.WriteU64(index.size());
  for (const auto& [var, fingerprints] : index) {
    w.WriteU64(var);
    w.WriteU64(fingerprints.size());
    for (const ConditionFingerprint& fingerprint : fingerprints) {
      w.WriteU64(fingerprint.first);
      w.WriteU64(fingerprint.second);
    }
  }

  std::vector<std::pair<PackedVar, std::uint64_t>> epochs(var_epoch_.begin(),
                                                          var_epoch_.end());
  std::sort(epochs.begin(), epochs.end());
  w.WriteU64(epochs.size());
  for (const auto& [var, epoch] : epochs) {
    w.WriteU64(var);
    w.WriteU64(epoch);
  }
}

// Every section keeps the blob's (sorted) order.
struct ProbabilityEvaluator::MemoBlob {
  std::vector<std::pair<ConditionFingerprint, CacheEntry>> entries;
  std::vector<std::pair<PackedVar, std::vector<ConditionFingerprint>>> index;
  std::vector<std::pair<PackedVar, std::uint64_t>> epochs;
};

Status ProbabilityEvaluator::DecodeMemoState(BinReader* reader,
                                             MemoBlob* out) {
  const auto read_fingerprint = [reader](ConditionFingerprint* fingerprint) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&fingerprint->first));
    return reader->ReadU64(&fingerprint->second);
  };
  std::uint64_t n = 0;
  // Entry: fingerprint 16 + lo 8 + hi 8 + grade 1 + stamp 8 bytes.
  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&n, 41));
  out->entries.resize(n);
  for (auto& [fingerprint, entry] : out->entries) {
    std::uint8_t quality = 0;
    BAYESCROWD_RETURN_NOT_OK(read_fingerprint(&fingerprint));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&entry.interval.lo));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&entry.interval.hi));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&quality));
    if (quality > static_cast<std::uint8_t>(ProbQuality::kUnknown)) {
      return Status::InvalidArgument("memo state: bad ProbQuality");
    }
    entry.interval.quality = static_cast<ProbQuality>(quality);
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&entry.stamp));
  }

  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&n, 16));
  out->index.resize(n);
  for (auto& [var, fingerprints] : out->index) {
    std::uint64_t count = 0;
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&var));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&count, 16));
    fingerprints.resize(count);
    for (ConditionFingerprint& fingerprint : fingerprints) {
      BAYESCROWD_RETURN_NOT_OK(read_fingerprint(&fingerprint));
    }
  }

  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&n, 16));
  out->epochs.resize(n);
  for (auto& [var, epoch] : out->epochs) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&var));
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&epoch));
  }
  return Status::OK();
}

Status ProbabilityEvaluator::RestoreMemoState(BinReader* reader) {
  MemoBlob blob;
  BAYESCROWD_RETURN_NOT_OK(DecodeMemoState(reader, &blob));
  cache_.clear();
  var_index_.clear();
  var_epoch_.clear();
  var_epoch_.insert(blob.epochs.begin(), blob.epochs.end());
  MergeMemoBlob(blob);
  return Status::OK();
}

Result<std::size_t> ProbabilityEvaluator::MergeMemoState(BinReader* reader) {
  MemoBlob blob;
  BAYESCROWD_RETURN_NOT_OK(DecodeMemoState(reader, &blob));
  return MergeMemoBlob(blob);
}

std::size_t ProbabilityEvaluator::MergeMemoBlob(const MemoBlob& blob) {
  std::size_t imported = 0;
  for (const auto& [fingerprint, entry] : blob.entries) {
    if (cache_.emplace(fingerprint, entry).second) ++imported;
  }

  // Variable index: append the blob's fingerprints so imported entries
  // still evict when one of their variables re-conditions. Duplicates
  // are tolerated by eviction (and bounded — one merge per session
  // create).
  for (const auto& [var, fingerprints] : blob.index) {
    std::vector<ConditionFingerprint>& slot = var_index_[var];
    slot.insert(slot.end(), fingerprints.begin(), fingerprints.end());
  }
  return imported;
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

  // Sequential pass: constants and memo hits; collect the rest. The
  // cache maps are touched on this thread only.
  const bool memoizable = Memoizable();
  const std::uint64_t tag = BudgetTag() ^ ScopeTag();
  std::vector<std::size_t> misses;
  std::vector<ConditionFingerprint> fingerprints(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Condition& cond = *conditions[i];
    if (cond.IsTrue()) {
      intervals[i] = ProbInterval::Exact(1.0);
      continue;
    }
    if (cond.IsFalse()) continue;
    fingerprints[i] = cond.Fingerprint();
    if (memoizable) {
      const auto it = cache_.find(fingerprints[i]);
      if (it != cache_.end() &&
          it->second.stamp == (DistStamp(cond) ^ tag)) {
        ins_.cache_hits->Increment();
        cost_.cache_hits[TierIndex(it->second.interval.quality)]
            ->Increment();
        intervals[i] = it->second.interval;
        continue;
      }
      ins_.cache_misses->Increment();
    }
    misses.push_back(i);
  }
  ins_.batch_misses->Observe(static_cast<double>(misses.size()));

  // Parallel pass: each miss is an independent model-counting call that
  // only reads dists_. Results land in per-index slots, ADPLL and
  // governor counters in per-lane accumulators, and sampling draws come
  // from per-condition generators — so any lane count computes the same
  // numbers and the same cache state.
  const std::size_t lanes = pool_ == nullptr ? 1 : pool_->size();
  std::vector<AdpllStats> lane_stats(std::max<std::size_t>(lanes, 1));
  std::vector<GovernorTally> lane_tallies(lane_stats.size());
  ReserveScratch(lane_stats.size());
  std::vector<Status> errors(misses.size(), Status::OK());
  // Per-miss ADPLL node counts, charged to the labeled cost series
  // after the barrier: the delta each miss adds to its lane's tally is
  // schedule-independent, so the per-tier totals are too.
  std::vector<std::uint64_t> miss_nodes(misses.size(), 0);
  const auto evaluate_one = [this, &conditions, &fingerprints, &misses,
                             &intervals, &errors, &lane_stats,
                             &lane_tallies, &miss_nodes](std::size_t lane,
                                                         std::size_t m) {
    const std::size_t i = misses[m];
    Rng rng = ConditionRng(fingerprints[i]);
    const std::uint64_t calls_before = lane_stats[lane].calls;
    Result<ProbInterval> p = ComputeInterval(
        *conditions[i], rng, &lane_stats[lane], &lane_tallies[lane],
        &adpll_scratch_[lane]);
    miss_nodes[m] = lane_stats[lane].calls - calls_before;
    if (!p.ok()) {
      errors[m] = p.status();
      return;
    }
    intervals[i] = p.value();
  };
  Status pool_status = Status::OK();
  if (pool_ != nullptr && misses.size() > 1) {
    pool_status = pool_->ParallelFor(misses.size(), evaluate_one);
  } else {
    for (std::size_t m = 0; m < misses.size(); ++m) evaluate_one(0, m);
  }

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

  // Charge the labeled cost units in miss order on this thread: the
  // resulting tier grades the charge.
  for (std::size_t m = 0; m < misses.size(); ++m) {
    const std::size_t tier = TierIndex(intervals[misses[m]].quality);
    if (miss_nodes[m] > 0) cost_.adpll_nodes[tier]->Increment(miss_nodes[m]);
    if (memoizable) cost_.cache_misses[tier]->Increment();
  }

  if (memoizable) {
    for (const std::size_t i : misses) {
      Insert(fingerprints[i], *conditions[i], intervals[i]);
    }
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
  if (pool_ != nullptr && requests.size() > 1) {
    BAYESCROWD_RETURN_NOT_OK(pool_->ParallelFor(requests.size(), pass_one));
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) pass_one(0, i);
  }
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

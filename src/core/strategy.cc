#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/utility.h"
#include "obs/trace.h"

namespace bayescrowd {
namespace {

using FrequencyMap =
    std::unordered_map<PackedExpr, std::size_t, PackedExprHash>;

// On the per-candidate path HHS scores candidates in waves of this many
// (two counterfactuals each). A constant, not the pool width: the wave
// decides how far past the m-window stop point scoring runs, so sizing
// it to the pool would make ADPLL calls and cost units depend on the
// thread count.
constexpr std::size_t kHhsWave = 4;

// Distinct expressions of a condition, first-appearance order.
std::vector<Expression> DistinctExpressions(const Condition& condition) {
  std::vector<Expression> out;
  std::unordered_set<PackedExpr, PackedExprHash> keys;
  for (const Conjunct& conjunct : condition.conjuncts()) {
    for (const Expression& e : conjunct) {
      if (keys.insert(e.PackedKey()).second) out.push_back(e);
    }
  }
  return out;
}

// Expression frequencies across the chosen top-k objects' conditions
// (Section 6.2, FBS).
FrequencyMap ExpressionFrequencies(const CTable& ctable,
                                   const std::vector<ObjectEntropy>& ranked,
                                   std::size_t k) {
  FrequencyMap freq;
  for (std::size_t r = 0; r < std::min(k, ranked.size()); ++r) {
    const Condition& cond = ctable.condition(ranked[r].object);
    if (cond.IsDecided()) continue;
    for (const Conjunct& conjunct : cond.conjuncts()) {
      for (const Expression& e : conjunct) ++freq[e.PackedKey()];
    }
  }
  return freq;
}

// The variables of the tasks batched so far. A candidate conflicts with
// the batch (TasksConflict with some member, Section 6.1) exactly when
// it mentions one of them, so eligibility is one or two lookups.
class BatchVariables {
 public:
  bool Conflicts(const Expression& e) const {
    return vars_.count(PackVar(e.lhs)) != 0 ||
           (e.rhs_is_var && vars_.count(PackVar(e.rhs_var)) != 0);
  }
  void Add(const Expression& e) {
    vars_.insert(PackVar(e.lhs));
    if (e.rhs_is_var) vars_.insert(PackVar(e.rhs_var));
  }

 private:
  std::unordered_set<PackedVar> vars_;
};

// Positions of the candidates that would not share a variable with the
// batch selected so far, in their original (frequency) order.
std::vector<std::size_t> ConflictFreeCandidates(
    const std::vector<Expression>& candidates,
    const BatchVariables& batched) {
  std::vector<std::size_t> eligible;
  eligible.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!batched.Conflicts(candidates[i])) eligible.push_back(i);
  }
  return eligible;
}

// Sorts expressions by descending frequency (stable on ties).
void SortByFrequency(std::vector<Expression>* expressions,
                     const FrequencyMap& freq) {
  std::vector<std::pair<std::size_t, std::size_t>> keyed(
      expressions->size());
  for (std::size_t i = 0; i < expressions->size(); ++i) {
    const auto it = freq.find((*expressions)[i].PackedKey());
    keyed[i] = {it == freq.end() ? 0 : it->second, i};
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first != b.first ? a.first > b.first
                                               : a.second < b.second;
                   });
  std::vector<Expression> sorted;
  sorted.reserve(expressions->size());
  for (const auto& [count, index] : keyed) {
    sorted.push_back((*expressions)[index]);
  }
  *expressions = std::move(sorted);
}

// One ranked object's candidates in frequency order and, once the star
// pass has served it, their gains.
struct ScoredObject {
  std::vector<Expression> candidates;
  std::optional<std::vector<double>> gains;
};

// Candidates of every listed object, then (utility strategies) their
// gains from one batch of star passes. Gains do not depend on the task
// batch being built, only eligibility does, so they are computed
// before the walk.
Result<std::vector<ScoredObject>> ScoreObjects(
    const CTable& ctable, const std::vector<const ObjectEntropy*>& entries,
    const FrequencyMap& freq, ProbabilityEvaluator& evaluator,
    bool utility) {
  std::vector<ScoredObject> scored(entries.size());
  std::vector<UtilityQuery> queries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Condition& cond = ctable.condition(entries[i]->object);
    scored[i].candidates = DistinctExpressions(cond);
    SortByFrequency(&scored[i].candidates, freq);
    queries.push_back(
        {&cond, entries[i]->probability, &scored[i].candidates});
  }
  if (!utility) return scored;
  BAYESCROWD_ASSIGN_OR_RETURN(auto gains,
                              StarPassUtilities(queries, evaluator));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    scored[i].gains = std::move(gains[i]);
  }
  return scored;
}

// The per-candidate path: scores the eligible candidates through
// MarginalUtilities in waves of `wave`, feeding `scan` in order until
// its window closes (a wave may score a few candidates past the stop).
Status ScanPerCandidate(const Condition& cond, double p_o,
                        const std::vector<Expression>& candidates,
                        const std::vector<std::size_t>& eligible,
                        std::size_t wave, ProbabilityEvaluator& evaluator,
                        bool pessimistic, GainScan* scan) {
  bool open = true;
  for (std::size_t start = 0; open && start < eligible.size();
       start += wave) {
    const std::size_t end = std::min(start + wave, eligible.size());
    std::vector<Expression> chunk;
    chunk.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      chunk.push_back(candidates[eligible[i]]);
    }
    BAYESCROWD_ASSIGN_OR_RETURN(
        const std::vector<double> gains,
        MarginalUtilities(cond, p_o, chunk, evaluator, pessimistic));
    for (std::size_t i = 0; open && i < chunk.size(); ++i) {
      open = scan->Offer(start + i, gains[i]);
    }
  }
  return Status::OK();
}

}  // namespace

bool GainScan::Offer(std::size_t index, double gain) {
  const double margin =
      kGainTieTolerance * std::max(1.0, std::abs(best_gain_));
  if (gain > best_gain_ + margin) {
    best_gain_ = gain;
    best_index_ = index;
    selected_ = true;
    since_improvement_ = 0;
    return true;
  }
  return ++since_improvement_ < m_;
}

const char* StrategyKindToString(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFbs:
      return "FBS";
    case StrategyKind::kUbs:
      return "UBS";
    case StrategyKind::kHhs:
      return "HHS";
  }
  return "?";
}

Result<std::vector<Task>> SelectTasks(const CTable& ctable,
                                      const std::vector<ObjectEntropy>& ranked,
                                      std::size_t k,
                                      ProbabilityEvaluator& evaluator,
                                      const StrategyOptions& options) {
  BAYESCROWD_TRACE_SPAN("strategy.select_tasks");
  std::vector<Task> batch;
  if (k == 0) return batch;
  const auto freq = ExpressionFrequencies(ctable, ranked, k);
  const bool utility = options.kind != StrategyKind::kFbs;

  // The top-k undecided objects are scored up front, in one batch.
  std::vector<const ObjectEntropy*> top;
  for (std::size_t r = 0; r < std::min(k, ranked.size()); ++r) {
    if (!ctable.condition(ranked[r].object).IsDecided()) {
      top.push_back(&ranked[r]);
    }
  }
  BAYESCROWD_ASSIGN_OR_RETURN(
      std::vector<ScoredObject> scored,
      ScoreObjects(ctable, top, freq, evaluator, utility));

  // Walk the entropy ranking; objects beyond the top-k fill in (scored
  // on arrival) when a higher-ranked object cannot contribute a
  // conflict-free task.
  BatchVariables batched;
  std::size_t next_top = 0;
  for (const ObjectEntropy& entry : ranked) {
    if (batch.size() >= k) break;
    const Condition& cond = ctable.condition(entry.object);
    if (cond.IsDecided()) continue;

    ScoredObject object;
    if (next_top < top.size() && top[next_top] == &entry) {
      object = std::move(scored[next_top++]);
    } else {
      BAYESCROWD_ASSIGN_OR_RETURN(
          std::vector<ScoredObject> one,
          ScoreObjects(ctable, {&entry}, freq, evaluator, utility));
      object = std::move(one.front());
    }
    const std::vector<Expression>& candidates = object.candidates;

    bool selected = false;
    Task task;
    task.source_object = entry.object;

    if (!utility) {
      for (const Expression& e : candidates) {
        if (!batched.Conflicts(e)) {
          task.expression = e;
          selected = true;
          break;
        }
      }
    } else {
      // UBS: argmax over every conflict-free candidate. HHS (Algorithm 4,
      // lines 10-22): frequency order, stop after m consecutive
      // candidates without improvement. Both replay sequentially over
      // precomputed gains, so the selection is the same at any thread
      // count.
      const std::vector<std::size_t> eligible =
          ConflictFreeCandidates(candidates, batched);
      GainScan scan = options.kind == StrategyKind::kHhs
                          ? GainScan(options.m)
                          : GainScan();
      if (object.gains.has_value()) {
        for (std::size_t i = 0; i < eligible.size(); ++i) {
          if (!scan.Offer(i, (*object.gains)[eligible[i]])) break;
        }
      } else {
        BAYESCROWD_RETURN_NOT_OK(ScanPerCandidate(
            cond, entry.probability, candidates, eligible,
            options.kind == StrategyKind::kHhs ? kHhsWave : eligible.size(),
            evaluator, options.pessimistic, &scan));
      }
      if (scan.selected()) {
        task.expression = candidates[eligible[scan.best_index()]];
        selected = true;
      }
    }

    if (selected) {
      batched.Add(task.expression);
      batch.push_back(task);
    }
  }
  return batch;
}

}  // namespace bayescrowd

#include "core/strategy.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>

#include "core/utility.h"
#include "obs/trace.h"

namespace bayescrowd {
namespace {

using FrequencyMap =
    std::unordered_map<PackedExpr, std::size_t, PackedExprHash>;

// HHS scores candidates in waves of this many (two counterfactuals
// each). A constant, not the pool width: the wave decides how far past
// the m-window stop point scoring runs, so sizing it to the pool would
// make cache traffic, ADPLL calls and cost units depend on the thread
// count.
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

// Candidates that would not share a variable with the batch selected so
// far, in their original (frequency) order.
std::vector<Expression> ConflictFreeCandidates(
    const std::vector<Expression>& candidates,
    const std::vector<Task>& batch) {
  std::vector<Expression> eligible;
  eligible.reserve(candidates.size());
  for (const Expression& e : candidates) {
    Task probe;
    probe.expression = e;
    if (!ConflictsWithBatch(probe, batch)) eligible.push_back(e);
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

}  // namespace

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

  // Walk the entropy ranking; objects beyond the top-k fill in when a
  // higher-ranked object cannot contribute a conflict-free task.
  for (const ObjectEntropy& entry : ranked) {
    if (batch.size() >= k) break;
    const Condition& cond = ctable.condition(entry.object);
    if (cond.IsDecided()) continue;

    std::vector<Expression> candidates = DistinctExpressions(cond);
    SortByFrequency(&candidates, freq);

    bool selected = false;
    Task task;
    task.source_object = entry.object;

    switch (options.kind) {
      case StrategyKind::kFbs: {
        for (const Expression& e : candidates) {
          task.expression = e;
          if (!ConflictsWithBatch(task, batch)) {
            selected = true;
            break;
          }
        }
        break;
      }
      case StrategyKind::kUbs: {
        // Utility scoring is the hot loop: the counterfactual conditions
        // of all conflict-free candidates evaluate as one batch
        // (memoized + parallel), then the original sequential argmax is
        // replayed over the gains — the selected task is identical to
        // the one-call-at-a-time code for any thread count.
        const std::vector<Expression> eligible =
            ConflictFreeCandidates(candidates, batch);
        BAYESCROWD_ASSIGN_OR_RETURN(
            const std::vector<double> gains,
            MarginalUtilities(cond, entry.probability, eligible,
                              evaluator, options.pessimistic));
        double best_gain = -1.0;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
          if (gains[i] > best_gain) {
            best_gain = gains[i];
            task.expression = eligible[i];
            selected = true;
          }
        }
        break;
      }
      case StrategyKind::kHhs: {
        // Algorithm 4, lines 10-22: frequency order, stop after m
        // consecutive expressions without utility improvement. Gains are
        // computed in kHhsWave-sized waves; the stopping scan replays in
        // order, so the selection matches the sequential code exactly (a
        // wave may merely score a few candidates past the stop point).
        const std::vector<Expression> eligible =
            ConflictFreeCandidates(candidates, batch);
        double best_gain = -1.0;
        std::size_t since_improvement = 0;
        for (std::size_t start = 0; start < eligible.size();
             start += kHhsWave) {
          const std::size_t end =
              std::min(start + kHhsWave, eligible.size());
          const std::vector<Expression> chunk(
              eligible.begin() + static_cast<std::ptrdiff_t>(start),
              eligible.begin() + static_cast<std::ptrdiff_t>(end));
          BAYESCROWD_ASSIGN_OR_RETURN(
              const std::vector<double> gains,
              MarginalUtilities(cond, entry.probability, chunk,
                                evaluator, options.pessimistic));
          bool stopped = false;
          for (std::size_t i = 0; i < chunk.size(); ++i) {
            if (gains[i] > best_gain) {
              best_gain = gains[i];
              task.expression = chunk[i];
              selected = true;
              since_improvement = 0;
            } else {
              ++since_improvement;
              if (since_improvement >= options.m) {
                stopped = true;
                break;
              }
            }
          }
          if (stopped) break;
        }
        break;
      }
    }

    if (selected) batch.push_back(task);
  }
  return batch;
}

}  // namespace bayescrowd

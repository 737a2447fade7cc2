// Task-selection strategies (Section 6.2).
//
// Each round: (i) rank undecided objects by entropy and keep the top-k;
// (ii) from each chosen object's condition select one expression — by
// frequency (FBS), by marginal utility (UBS), or frequency-ordered
// utility search with an m-step stopping heuristic (HHS). Tasks within
// one round never share a variable (conflict avoidance, Section 6.1).

#ifndef BAYESCROWD_CORE_STRATEGY_H_
#define BAYESCROWD_CORE_STRATEGY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "crowd/task.h"
#include "ctable/ctable.h"
#include "probability/evaluator.h"

namespace bayescrowd {

enum class StrategyKind : std::uint8_t { kFbs, kUbs, kHhs };

const char* StrategyKindToString(StrategyKind kind);

/// Entropy ranking entry for one undecided object.
struct ObjectEntropy {
  std::size_t object = 0;
  double probability = 0.0;  // Pr(φ(o))
  double entropy = 0.0;      // H(o)
};

struct StrategyOptions {
  StrategyKind kind = StrategyKind::kHhs;

  /// HHS stopping parameter: stop scanning a condition's expressions
  /// after `m` consecutive candidates without utility improvement.
  std::size_t m = 15;

  /// Interval pessimism (governed runs): rank and score with the
  /// most-uncertain probability consistent with each interval (the
  /// point nearest 1/2) instead of the midpoint. Wide, low-quality
  /// intervals then look maximally uncertain, steering crowd tasks
  /// toward the objects the solver understands least. No effect on
  /// exact results, hence none while the governor is inert.
  bool pessimistic = false;
};

/// Relative width of the gain tie rule (see GainScan).
inline constexpr double kGainTieTolerance = 1e-12;

/// The sequential scan behind UBS's argmax and HHS's m-window
/// (Algorithm 4, lines 10-22), fed one gain at a time in candidate
/// (frequency) order. A gain improves on the best so far only when it
/// exceeds it by more than kGainTieTolerance·max(1, |best|); anything
/// closer is a tie and the earlier candidate keeps the slot, so
/// rounding noise neither picks the winner nor resets HHS's window.
class GainScan {
 public:
  /// `m`: stop after this many consecutive candidates without an
  /// improvement (HHS). The default never stops (UBS).
  explicit GainScan(
      std::size_t m = std::numeric_limits<std::size_t>::max())
      : m_(m) {}

  /// Offers candidate `index`'s gain. Returns false once the window
  /// has closed; later candidates would not be looked at.
  bool Offer(std::size_t index, double gain);

  bool selected() const { return selected_; }
  /// The winning candidate's index; meaningful when selected().
  std::size_t best_index() const { return best_index_; }

 private:
  std::size_t m_;
  double best_gain_ = -1.0;
  std::size_t best_index_ = 0;
  std::size_t since_improvement_ = 0;
  bool selected_ = false;
};

/// Selects up to `k` conflict-free tasks for one round. `ranked` must be
/// sorted by descending entropy; objects that cannot contribute a
/// conflict-free task are skipped (the next-ranked object takes their
/// place).
Result<std::vector<Task>> SelectTasks(const CTable& ctable,
                                      const std::vector<ObjectEntropy>& ranked,
                                      std::size_t k,
                                      ProbabilityEvaluator& evaluator,
                                      const StrategyOptions& options);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_STRATEGY_H_

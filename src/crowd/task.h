// Crowd tasks: triple-choice questions about one expression.
//
// "For an expression Var(o5,a2) < 2, the corresponding task is to ask:
// is the variable Var(o5,a2) larger than, or smaller than, or equal
// to 2?" The answer is therefore an Ordering of the expression's left
// operand relative to its right operand — strictly more informative
// than a boolean for the expression itself.

#ifndef BAYESCROWD_CROWD_TASK_H_
#define BAYESCROWD_CROWD_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ctable/expression.h"
#include "ctable/knowledge.h"
#include "data/table.h"

namespace bayescrowd {

/// One unit of crowd work.
struct Task {
  Expression expression;

  /// The object whose condition this task was selected from (for
  /// bookkeeping/diagnostics; not used by the platform).
  std::size_t source_object = 0;

  /// Human-readable question text.
  std::string QuestionText(const Table& table) const;
};

/// One worker's contribution to a task: who answered, what they said,
/// and how long they worked (simulated seconds, quantized to whole
/// milliseconds so answer logs round-trip byte-identically).
struct VoteRecord {
  std::uint32_t worker = 0;
  Ordering answer = Ordering::kEqual;
  double work_seconds = 0.0;

  friend bool operator==(const VoteRecord&, const VoteRecord&) = default;
};

/// The aggregated (majority-vote) answer to one task.
struct TaskAnswer {
  /// Relation of the expression's left operand to its right operand.
  Ordering relation = Ordering::kEqual;

  /// False when the task came back unanswered (worker timeout, abstain,
  /// dropped from a partial batch). `relation` is then meaningless; the
  /// framework refunds the task's cost and returns it to the candidate
  /// pool.
  bool answered = true;

  /// Per-vote provenance (worker id, raw answer, work time). Empty for
  /// platforms that only report the aggregate — the marketplace fills
  /// it, the recorder persists it (answer-log v3), and the replayer
  /// restores it so adaptive-vote budget charging replays identically.
  std::vector<VoteRecord> votes;
};

/// True when two tasks share a variable — such tasks may conflict and
/// must not be posted in the same round (Section 6.1).
bool TasksConflict(const Task& a, const Task& b);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_TASK_H_

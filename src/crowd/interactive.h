// InteractiveCrowdPlatform: a CrowdPlatform whose "worker" is a human at
// a terminal. Each task is printed as the paper's triple-choice question
// and the answer is read from an input stream. Used by the CLI's
// --interactive mode; also handy in tests with a scripted stream.

#ifndef BAYESCROWD_CROWD_INTERACTIVE_H_
#define BAYESCROWD_CROWD_INTERACTIVE_H_

#include <istream>
#include <ostream>

#include "crowd/platform.h"

namespace bayescrowd {

/// Prompts for each task on `out` and parses answers from `in`.
/// Accepted answers: "l"/"larger"/">", "s"/"smaller"/"<",
/// "e"/"equal"/"=". Unparseable lines are re-asked up to three times,
/// then the batch fails with InvalidArgument; EOF fails with IOError.
class InteractiveCrowdPlatform : public CrowdPlatform {
 public:
  /// `table` provides names for the question text. All references must
  /// outlive the platform.
  InteractiveCrowdPlatform(const Table& table, std::istream& in,
                           std::ostream& out)
      : table_(table), in_(in), out_(out) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  std::size_t total_tasks() const override { return total_tasks_; }
  std::size_t total_rounds() const override { return total_rounds_; }

  /// The totals ride the checkpoint ('I' chunk) and count replayed
  /// batches, so a resumed session keeps its round numbers. A replayed
  /// batch is never re-prompted.
  void SaveState(std::string* out) const override;
  Status LoadState(BinReader* reader) override;
  void SyncReplayed(const std::vector<Task>& tasks,
                    bool delivered) override {
    if (!delivered || tasks.empty()) return;
    total_tasks_ += tasks.size();
    ++total_rounds_;
  }

 private:
  const Table& table_;
  std::istream& in_;
  std::ostream& out_;
  std::size_t total_tasks_ = 0;
  std::size_t total_rounds_ = 0;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_INTERACTIVE_H_

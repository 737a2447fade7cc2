// Recording and replaying crowd answers: the answer log that makes a
// crowd query resumable.
//
// BayesCrowd is deterministic given its options, so re-running a query
// over a replay of the already-bought answers reconstructs the session
// state exactly, after which a live platform takes over. The session
// layer (core/session.h) builds checkpointed runs on these two
// decorators; they also work on their own, in memory:
//
//   RecordingPlatform rec(live);                  // First session.
//   framework.Run(data, posteriors, rec);
//
//   ReplayingPlatform replay(rec.log(), &live);   // Later session.
//   framework.Run(data, posteriors, replay);      // Replays, then live.
//
// On disk the answer log is a journal (common/journal.h) with magic
// "BCAL" and one record per entry:
//
//   u8 kind | u64 round
//   answers and abstains add: expression (ctable/expression.h) |
//     u8 relation | u32 vote count | votes (u32 worker | u8 answer |
//     f64 work seconds)

#ifndef BAYESCROWD_CROWD_RECORD_REPLAY_H_
#define BAYESCROWD_CROWD_RECORD_REPLAY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/fileio.h"
#include "common/journal.h"
#include "common/result.h"
#include "crowd/platform.h"

namespace bayescrowd {

/// One crowd event: a bought answer, an abstained (unanswered) task, or
/// a whole-batch transient failure. Abstains and failures are recorded
/// so a replayed faulted run walks the exact recovery path of the
/// original — retries, refunds, degradation and all.
struct AnswerLogEntry {
  enum class Kind : std::uint8_t {
    kAnswer,   // expression + relation are meaningful.
    kAbstain,  // expression is meaningful; the task came back unanswered.
    kFailure,  // whole-batch transient failure; only `round` is set.
  };

  Kind kind = Kind::kAnswer;
  Expression expression;
  Ordering relation = Ordering::kEqual;
  std::size_t round = 0;  // 1-based round the event arrived in.

  /// Per-vote provenance: worker id, raw answer, and work time for
  /// every vote bought on the task. Empty for platforms that only
  /// report aggregates.
  std::vector<VoteRecord> votes;

  friend bool operator==(const AnswerLogEntry&,
                         const AnswerLogEntry&) = default;
};

/// The transcript of a crowdsourcing phase.
struct AnswerLog {
  std::vector<AnswerLogEntry> entries;

  friend bool operator==(const AnswerLog&, const AnswerLog&) = default;
};

/// The answer log's journal identity.
inline constexpr JournalFormat kAnswerLogFormat = {"BCAL", 1, "answer log"};

/// One entry's journal payload. Work times round-trip exactly.
std::string EncodeAnswerLogEntry(const AnswerLogEntry& entry);

/// Decodes one payload. Refuses an out-of-domain kind, operator,
/// relation or vote answer byte, a vote count larger than the payload,
/// and trailing bytes.
Status DecodeAnswerLogEntry(std::string_view payload, AnswerLogEntry* entry);

/// Loads the answer log at `path` under the journal load rule: a
/// missing file loads empty; a torn tail (a kill mid-append) is dropped
/// and reported through `torn` (never null); a foreign or other-version
/// file is refused. An intact record that does not decode is an error.
Result<AnswerLog> LoadAnswerLog(const std::string& path, bool* torn,
                                FileIo* io = nullptr);

/// Wraps a live platform and transcribes everything it answers.
class RecordingPlatform : public CrowdPlatform {
 public:
  /// `journal` (optional, non-owning) durably appends every entry as
  /// it is recorded, one write + sync per batch; a failed append fails
  /// the PostBatch. The first `already_durable` entries are not
  /// appended: on resume the recorder re-records the replayed tail,
  /// which the journal already holds.
  explicit RecordingPlatform(CrowdPlatform& inner,
                             JournalWriter* journal = nullptr,
                             std::size_t already_durable = 0)
      : inner_(inner), journal_(journal), skip_(already_durable) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  std::size_t total_tasks() const override { return inner_.total_tasks(); }
  std::size_t total_rounds() const override {
    return inner_.total_rounds();
  }

  void SaveState(std::string* out) const override {
    inner_.SaveState(out);
  }
  Status LoadState(BinReader* reader) override {
    return inner_.LoadState(reader);
  }
  void SyncReplayed(const std::vector<Task>& tasks,
                    bool delivered) override {
    inner_.SyncReplayed(tasks, delivered);
  }

  const AnswerLog& log() const { return log_; }

 private:
  /// Appends log entries [first, end) to the journal, if any.
  Status Persist(std::size_t first);

  CrowdPlatform& inner_;
  JournalWriter* journal_;
  std::size_t skip_;
  AnswerLog log_;
};

/// Serves answers from a log as long as the asked tasks match the
/// transcript in order; once the log is exhausted, delegates to
/// `fallback` (if null, live tasks fail with FailedPrecondition). A
/// batch may straddle the boundary — matching prefix from the log, the
/// rest live. A task that diverges from the transcript mid-log is an
/// error: the query being resumed differs from the recorded one.
class ReplayingPlatform : public CrowdPlatform {
 public:
  ReplayingPlatform(AnswerLog log, CrowdPlatform* fallback)
      : log_(std::move(log)), fallback_(fallback) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override;

  std::size_t total_tasks() const override { return total_tasks_; }
  std::size_t total_rounds() const override { return total_rounds_; }

  void SaveState(std::string* out) const override {
    if (fallback_ != nullptr) fallback_->SaveState(out);
  }
  Status LoadState(BinReader* reader) override {
    return fallback_ != nullptr ? fallback_->LoadState(reader)
                                : Status::OK();
  }

  /// Seeds the totals with the checkpointed session's counts, so
  /// replayed and live rounds continue the recorded numbering (the
  /// recorder stamps entries with these rounds).
  void SetBaseTotals(std::size_t tasks, std::size_t rounds) {
    total_tasks_ = tasks;
    total_rounds_ = rounds;
  }

  /// Entries served from the log so far.
  std::size_t replayed() const { return cursor_; }

 private:
  AnswerLog log_;
  CrowdPlatform* fallback_;
  std::size_t cursor_ = 0;
  std::size_t total_tasks_ = 0;
  std::size_t total_rounds_ = 0;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CROWD_RECORD_REPLAY_H_

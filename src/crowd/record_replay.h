// Recording and replaying crowd answers: pause/resume for crowd
// queries.
//
// BayesCrowd is deterministic given its options, so re-running a query
// over a replay of the already-bought answers reconstructs the session
// state exactly, after which a live platform takes over. This gives
// resumable (even across-process) crowdsourcing without any framework
// state serialization — particularly useful with the interactive
// platform, where a human may walk away mid-query.
//
//   RecordingPlatform rec(live);            // First session.
//   framework.Run(data, posteriors, rec);
//   SaveAnswerLog(rec.log(), "answers.log");
//
//   auto log = LoadAnswerLog("answers.log");  // Later session.
//   ReplayingPlatform replay(log.value(), &live);
//   framework.Run(data, posteriors, replay);  // Replays, then continues.

#ifndef BAYESCROWD_CROWD_RECORD_REPLAY_H_
#define BAYESCROWD_CROWD_RECORD_REPLAY_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fileio.h"
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
};

/// The transcript of a crowdsourcing phase.
struct AnswerLog {
  std::vector<AnswerLogEntry> entries;
};

/// Text (de)serialization. Format, one entry per line:
///   vc <obj> <attr> <op: < or >> <const> <relation: l|e|g|a> <round> [vote...]
///   vv <obj> <attr> <op> <obj2> <attr2> <relation> <round> [vote...]
///   fail <round>
/// Relation `a` marks an abstained (unanswered) task; a `fail` line
/// marks a transient whole-batch failure. Each optional vote token is
/// `<worker>:<relation: l|e|g>:<work_ms>` — the raw per-worker vote and
/// its integer-millisecond work time, in the order the votes were
/// bought. The file starts with a `# bayescrowd answer log v3` comment
/// line; `#` lines are skipped on read.
std::string SerializeAnswerLogEntry(const AnswerLogEntry& entry);
std::string SerializeAnswerLog(const AnswerLog& log);
Result<AnswerLog> ParseAnswerLog(const std::string& text);
Status SaveAnswerLog(const AnswerLog& log, const std::string& path);
Result<AnswerLog> LoadAnswerLog(const std::string& path);

/// Like LoadAnswerLog, but tolerates the one corruption an interrupted
/// append can produce: a torn final line. The torn line is dropped and
/// reported through `dropped_torn_tail` (never null); malformed lines
/// anywhere else remain hard errors.
Result<AnswerLog> LoadAnswerLogTolerant(const std::string& path,
                                        bool* dropped_torn_tail);

/// Receives every recorded entry for durable storage as it is bought,
/// so the answer log on disk is always current up to the last delivered
/// batch — the checkpoint subsystem's replay source.
class AnswerLogSink {
 public:
  virtual ~AnswerLogSink() = default;

  /// Appends one batch's entries durably (flushed before returning).
  virtual Status Append(const std::vector<AnswerLogEntry>& entries) = 0;
};

/// Appends entries to an answer-log file, fflush+fsync per batch. The
/// first `already_durable` entries offered are skipped — on resume the
/// recorder re-records the replayed transcript, which is already in the
/// file.
class FileAnswerLogSink : public AnswerLogSink {
 public:
  /// Opens `path` for appending (`truncate` starts a fresh log). The
  /// header line is written if the file is new or truncated. All writes
  /// flow through `io` (null = the real filesystem), so an injected
  /// ENOSPC/fsync failure surfaces as an IOError carrying the log path
  /// instead of a silent truncation.
  static Result<std::unique_ptr<FileAnswerLogSink>> Open(
      const std::string& path, std::size_t already_durable, bool truncate,
      FileIo* io = nullptr);

  ~FileAnswerLogSink() override = default;
  FileAnswerLogSink(const FileAnswerLogSink&) = delete;
  FileAnswerLogSink& operator=(const FileAnswerLogSink&) = delete;

  Status Append(const std::vector<AnswerLogEntry>& entries) override;

 private:
  FileAnswerLogSink(std::unique_ptr<AppendFile> file,
                    std::size_t skip_remaining)
      : file_(std::move(file)), skip_remaining_(skip_remaining) {}

  std::unique_ptr<AppendFile> file_;
  std::size_t skip_remaining_;
};

/// Wraps a live platform and transcribes everything it answers.
class RecordingPlatform : public CrowdPlatform {
 public:
  /// `sink` (optional, non-owning) durably persists every entry as it
  /// is recorded; a sink failure fails the PostBatch.
  explicit RecordingPlatform(CrowdPlatform& inner,
                             AnswerLogSink* sink = nullptr)
      : inner_(inner), sink_(sink) {}

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
  CrowdPlatform& inner_;
  AnswerLogSink* sink_;
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

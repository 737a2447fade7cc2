// Session layer over the checkpoint store: ties checkpoints to the
// durable answer log and to the run configuration, and drives recovery
// after a kill.
//
// The division of labor: core/checkpoint.* knows how to persist and
// reload a SessionState; this layer knows *which* state is safe to
// resume from. A snapshot is only usable when the durable answer log
// still holds every entry the snapshot references — recovery loads the
// log (a torn tail is dropped and the log atomically rewritten without
// it), walks checkpoint generations newest first, and replays the log
// tail past the chosen snapshot to rebuild the rounds that ran after
// it. DurableSession is the one entry point that wires a checkpointed
// run; the CLI and the kill-point tests both go through it.

#ifndef BAYESCROWD_CORE_SESSION_H_
#define BAYESCROWD_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/checkpoint.h"
#include "crowd/record_replay.h"

namespace bayescrowd {

/// FNV-1a (64-bit) over `bytes`, chainable through `seed`.
std::uint64_t HashBytes(std::string_view bytes,
                        std::uint64_t seed = 14695981039346656037ULL);

/// Fingerprint of everything that must match between the run that
/// wrote a checkpoint and the run resuming it: the behavior-relevant
/// options, the dataset bytes, and a caller-provided platform config
/// string (seeds, fault profile). `threads` is deliberately excluded —
/// results are bit-identical at any thread count, so a resume may
/// change it.
std::uint64_t ConfigFingerprint(const BayesCrowdOptions& options,
                                std::string_view dataset_bytes,
                                std::string_view platform_config);

/// What RecoverSession hands back: the snapshot to resume from plus the
/// answer-log tail to replay on top of it.
struct RecoveredSession {
  SessionState state;

  /// Entries past state.answer_log_offset, in recorded order. Feed to a
  /// ReplayingPlatform (with SetBaseTotals from the state) to rebuild
  /// the rounds that ran after the snapshot.
  AnswerLog replay_tail;

  /// Valid entries in the durable log after torn-tail handling.
  std::size_t durable_entries = 0;

  /// Checkpoint generations skipped as corrupt/truncated/ahead of the
  /// log before one loaded ("recovery.fallback").
  std::size_t fallbacks = 0;

  /// True when the log ended in a torn record (killed mid-append); the
  /// tail was dropped and the log atomically rewritten without it.
  bool dropped_torn_tail = false;

  /// True when no usable snapshot existed but the answer log did (a
  /// kill before the first checkpoint write): `state` is
  /// default-constructed and the whole log is the replay tail. Callers
  /// must NOT pass `state` to BayesCrowdOptions::resume — run fresh and
  /// let the replaying platform rebuild the rounds.
  bool from_scratch = false;
};

/// Recovers the newest usable session from `checkpoint_dir` +
/// `answer_log_path`. A missing answer log reads as empty (only
/// offset-0 snapshots are then usable); a foreign or other-version log
/// is refused and left as it is. When no snapshot is usable but durable
/// answers exist, degrades to a from-scratch recovery (see
/// RecoveredSession::from_scratch). NotFound when nothing durable
/// exists at all; FailedPrecondition when the best snapshot was written
/// under a different configuration than `expected_fingerprint` (pass 0
/// to skip the check). All IO flows through `io` (null = the real
/// filesystem); a failed repair leaves the log as it was.
Result<RecoveredSession> RecoverSession(const std::string& checkpoint_dir,
                                        const std::string& answer_log_path,
                                        std::uint64_t expected_fingerprint,
                                        FileIo* io = nullptr);

/// A checkpointed run's durable state in one directory: the checkpoint
/// generations plus `answers.log`, the answer-log journal. Open() is the
/// one way to start or resume such a run. It recovers the newest usable
/// session (resume) or checks that the directory holds none (fresh),
/// stacks the replay of the durable log tail and a recorder that
/// appends every bought answer on top of the caller's live platform, and
/// points the run's options at a sink that stamps each snapshot with its
/// answer-log offset and config fingerprint.
class DurableSession : private CheckpointSink {
 public:
  struct Options {
    std::string dir;
    bool resume = false;
    /// ConfigFingerprint of the run; a resume refuses a checkpoint
    /// written under another one.
    std::uint64_t fingerprint = 0;
    std::size_t keep = 3;  // Generations retained (CheckpointStore).
    /// Where stamped snapshots go; null = this session's own
    /// CheckpointStore on `dir`. Tests pass a store wrapper that kills
    /// the run at a chosen boundary.
    CheckpointSink* sink = nullptr;
  };

  /// Opens the session over `live` and sets `run`'s resume state and
  /// checkpoint sink; the cadence stays `run->checkpoint_every` (0 = no
  /// snapshots, so a resume replays the whole log). recovery.* counters
  /// go to `run->metrics`. A fresh open refuses a directory that already
  /// holds a generation or an answer and changes nothing in it. `live`,
  /// `run` and the session must outlive the run.
  static Result<std::unique_ptr<DurableSession>> Open(
      const Options& options, CrowdPlatform& live, BayesCrowdOptions* run);

  // The run and the recorder hold pointers into the session.
  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  /// The top of the platform stack: pass it to BayesCrowd::Run.
  CrowdPlatform& platform() { return *recorder_; }

  /// What recovery found; null for a fresh session.
  const RecoveredSession* recovered() const { return recovered_.get(); }

 private:
  explicit DurableSession(const Options& options);

  /// Stamps and forwards one snapshot.
  Status Write(const SessionState& state) override;

  Options options_;
  CheckpointStore store_;
  JournalWriter journal_;
  std::unique_ptr<RecoveredSession> recovered_;
  std::unique_ptr<ReplayingPlatform> replayer_;
  std::unique_ptr<RecordingPlatform> recorder_;
  std::size_t base_log_offset_ = 0;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_SESSION_H_

// Session layer over the checkpoint store: ties checkpoints to the
// durable answer log and to the run configuration, and drives recovery
// after a kill.
//
// The division of labor: core/checkpoint.* knows how to persist and
// reload a SessionState; this layer knows *which* state is safe to
// resume from. A snapshot is only usable when the durable answer log
// still holds every entry the snapshot references — recovery loads the
// log tolerantly (a torn final line is dropped and the log rewritten),
// walks checkpoint generations newest first, and replays the log tail
// past the chosen snapshot to rebuild the rounds that ran after it.

#ifndef BAYESCROWD_CORE_SESSION_H_
#define BAYESCROWD_CORE_SESSION_H_

#include <cstdint>
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

/// The CheckpointSink Run() writes to: stamps each snapshot with the
/// session-layer fields (answer-log offset, config fingerprint) before
/// handing it to the store. The recorder is where the durable-entry
/// count comes from: every entry it has recorded this process is
/// durable by the time a round boundary is reached (the file sink
/// flushes per batch), and `base_log_offset` adds the entries a
/// previous process already persisted (0 for a fresh session).
class SessionCheckpointSink : public CheckpointSink {
 public:
  SessionCheckpointSink(CheckpointSink* store,
                        const RecordingPlatform* recorder,
                        std::size_t base_log_offset,
                        std::uint64_t config_fingerprint)
      : store_(store),
        recorder_(recorder),
        base_log_offset_(base_log_offset),
        config_fingerprint_(config_fingerprint) {}

  Status Write(const SessionState& state) override;

 private:
  CheckpointSink* store_;               // Non-owning.
  const RecordingPlatform* recorder_;   // Non-owning; may be null.
  std::size_t base_log_offset_;
  std::uint64_t config_fingerprint_;
};

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

  /// True when the log ended in a torn line (killed mid-append); the
  /// line was dropped and the log rewritten without it.
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
/// offset-0 snapshots are then usable). When no snapshot is usable but
/// durable answers exist, degrades to a from-scratch recovery (see
/// RecoveredSession::from_scratch). NotFound when nothing durable
/// exists at all; FailedPrecondition when the best snapshot was written
/// under a different configuration than `expected_fingerprint` (pass 0
/// to skip the check). `session_id` selects a namespaced generation
/// set within the directory (see CheckpointStore::Options::session_id);
/// empty reads the legacy single-session layout.
Result<RecoveredSession> RecoverSession(const std::string& checkpoint_dir,
                                        const std::string& answer_log_path,
                                        std::uint64_t expected_fingerprint,
                                        const std::string& session_id = "");

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_SESSION_H_

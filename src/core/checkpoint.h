// Crash-safe query sessions: checksummed checkpoints of the round
// loop's state, written atomically at round boundaries and recovered
// after a kill.
//
// A checkpoint stores what a session's inputs do not determine: every
// crowd answer it folded, in fold order, the budget, the per-round
// logs, the circuit breakers, the metrics snapshot, and the crowd
// platform's own serialized state (simulator RNG, fault injector,
// marketplace reputations). Each fact is stored once. The conditions
// and the knowledge base's facts follow from the pristine c-table,
// which a resume's modeling phase rebuilds, and the answers, which
// QueryRunner::Init folds again round by round. The rounds finished
// and the barren streak are read off the round logs, and so are the
// task, refund and simulated-clock totals (their sums). The
// retry/failure counts live in the metrics snapshot. The answer-log
// offset ties each snapshot to the durable answer log: recovery
// replays the log tail past the snapshot to rebuild any rounds that
// ran after the last checkpoint.
//
// File format (one generation per file, `ckpt-NNNNNNNN.bin` — or
// `ckpt-<session_id>-NNNNNNNN.bin` for a namespaced store hosting one
// of several resident sessions — numbered by round count): a one-record
// journal (common/journal.h) with magic "BCKP" and version
// kCheckpointVersion, whose record is the SerializeSessionState payload.
//
// Writes are atomic: tmp file + fsync + rename + directory fsync. A
// kill mid-write leaves either the previous generation set intact or a
// tmp file the loader never looks at. Recovery walks generations newest
// first and falls back past any snapshot that is torn, fails the CRC,
// holds other than exactly one record, carries another version, or
// references more answer-log entries than survived on disk.

#ifndef BAYESCROWD_CORE_CHECKPOINT_H_
#define BAYESCROWD_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/fileio.h"
#include "common/result.h"
#include "core/framework.h"
#include "core/update.h"
#include "obs/metrics.h"

namespace bayescrowd {

/// Checkpoint format version written by this build, and the only one
/// it reads: any other version fails with a clear "older"/"newer"
/// error instead of a misparse. Versions 1–11 were earlier layouts (10
/// also stored every condition, the knowledge base's facts, the round
/// count and the barren streak, which 11 derives; 11 also stored the
/// evaluator's memo blob and per-round cache counts, which 12 drops
/// with the memo); change the envelope, the payload or a platform chunk
/// only by bumping this.
inline constexpr std::uint32_t kCheckpointVersion = 12;

/// Everything Run() snapshots at a round boundary, taken after the
/// round's barren accounting. Field order here is the serialization
/// order; extend only by bumping kCheckpointVersion.
struct SessionState {
  // -- Round-loop state --------------------------------------------- //
  double budget_left = 0.0;
  double cost_spent = 0.0;
  /// One per finished round. The task, refund, backoff and simulated
  /// clock totals are their sums.
  std::vector<RoundLog> round_logs;

  /// Rounds finished (every round leaves one log); names the generation.
  std::size_t rounds() const { return round_logs.size(); }
  /// Trailing rounds that applied no answer. At or above
  /// RetryPolicy::max_barren_rounds, the resumed run is already degraded
  /// and done.
  std::size_t consecutive_barren() const;

  // -- Knowledge state ---------------------------------------------- //
  /// Every answered task, in fold order: the delivered rounds' answers,
  /// each round's `answered` of them. A resume folds them again onto the
  /// rebuilt c-table to restore the conditions and the knowledge base,
  /// and refuses an answer the fold fails on.
  std::vector<FoldedAnswer> answers;
  obs::MetricsSnapshot metrics;

  // -- Crowd platform ----------------------------------------------- //
  std::string platform_state;  // CrowdPlatform::SaveState chunk(s).
  std::size_t platform_tasks = 0;   // total_tasks() at the boundary.
  std::size_t platform_rounds = 0;  // total_rounds() at the boundary.

  // -- Session layer (filled by the sink, not by Run) --------------- //
  /// Durable answer-log entries at the boundary; recovery replays the
  /// log tail past this offset.
  std::size_t answer_log_offset = 0;
  /// Hash of options + dataset + platform config (threads excluded).
  /// Resume refuses a checkpoint whose fingerprint mismatches.
  std::uint64_t config_fingerprint = 0;

  /// Per-object solver circuit breakers, ascending object id (empty on
  /// ungoverned runs).
  std::vector<SolverBreakerRecord> solver_breakers;
};

/// Payload (de)serialization. Deserialize validates counts and enum
/// ranges, returning OutOfRange/InvalidArgument on anything truncated
/// or out of domain.
void SerializeSessionState(const SessionState& state, std::string* out);
Status DeserializeSessionState(BinReader* reader, SessionState* out);

/// Wraps a payload in the one-record journal / validates and strips
/// it. Wrap refuses a payload too long for the record's u32 length.
/// Unwrap fails with IOError on magic/CRC/truncation damage and
/// InvalidArgument on any version other than kCheckpointVersion.
Result<std::string> WrapCheckpoint(const std::string& payload);
Result<std::string> UnwrapCheckpoint(const std::string& file_bytes);

/// Where Run() hands finished round boundaries. Implementations
/// persist the state; a failed Write fails the run (the round itself is
/// already durable in the answer log, so nothing is lost).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual Status Write(const SessionState& state) = 0;
};

/// Generation-managed checkpoint directory: atomic writes, bounded
/// retention, corruption-tolerant loading.
class CheckpointStore : public CheckpointSink {
 public:
  struct Options {
    std::string dir;

    /// Namespaces this store's generations within `dir`. Empty (the
    /// legacy default) writes `ckpt-NNNNNNNN.bin`; non-empty writes
    /// `ckpt-<session_id>-NNNNNNNN.bin`, and listing/pruning/loading
    /// only ever touch the own session's files — so two resident
    /// sessions sharing one checkpoint directory cannot prune or load
    /// each other's snapshots. Each form is invisible to the other,
    /// keeping pre-existing single-session directories readable.
    std::string session_id;

    /// Generations retained on disk; older ones are pruned after each
    /// successful write. Minimum 1.
    std::size_t keep = 3;

    /// Test hook, invoked on the tmp file after its fsync and before
    /// the rename. Returning non-OK aborts the write (simulates a kill
    /// mid-checkpoint); the hook may also truncate/corrupt the file.
    std::function<Status(const std::string& tmp_path)> pre_rename_hook;

    /// IO seam every read/write/rename/fsync flows through; null means
    /// the real filesystem. Tests inject FaultInjectingFileIo here to
    /// exercise ENOSPC/short-write/fsync-failure handling — a failed
    /// write surfaces as an IOError with path context, never as a
    /// silently truncated generation.
    FileIo* io = nullptr;
  };

  explicit CheckpointStore(Options options);

  /// Writes `state` as generation `state.rounds()` (tmp + fsync + rename
  /// + dir fsync), then prunes to `keep` generations.
  Status Write(const SessionState& state) override;

  /// Loads the newest generation that (a) unwraps and deserializes
  /// cleanly and (b) references at most `max_valid_log_entries` durable
  /// answer-log entries. Every newer generation skipped on the way down
  /// increments `*fallbacks` (may be null). NotFound when no usable
  /// generation exists.
  Result<SessionState> LoadLatest(std::size_t max_valid_log_entries,
                                  std::size_t* fallbacks) const;

  /// Generation file names currently in the directory belonging to
  /// this store's session namespace, oldest first. Missing directory
  /// reads as empty.
  std::vector<std::string> ListGenerations() const;

  const std::string& dir() const { return options_.dir; }

 private:
  Options options_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_CHECKPOINT_H_

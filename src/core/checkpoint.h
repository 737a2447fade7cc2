// Crash-safe query sessions: checksummed checkpoints of the round
// loop's full state, written atomically at round boundaries and
// recovered after a kill.
//
// A checkpoint captures everything Run() needs to continue a session
// bit-identically: per-object conditions, the knowledge base's facts,
// the evaluator's memo cache and compiled circuits, budget/refund and
// retry accumulators, per-round logs, the metrics snapshot, and the crowd
// platform's own serialized state (simulator RNG, fault injector,
// worker-quality counters). The answer-log offset ties each snapshot to
// the durable answer log: recovery replays the log tail past the
// snapshot to rebuild any rounds that ran after the last checkpoint.
//
// File format (one generation per file, `ckpt-NNNNNNNN.bin` — or
// `ckpt-<session_id>-NNNNNNNN.bin` for a namespaced store hosting one
// of several resident sessions — numbered by round count):
//
//   "BCKP"  magic, 4 bytes
//   u32     format version (little-endian); currently 6 (kCheckpointVersion)
//   u64     payload size in bytes
//   payload SerializeSessionState bytes
//   u32     CRC-32 (IEEE 802.3) of the payload
//
// Writes are atomic: tmp file + fsync + rename + directory fsync. A
// kill mid-write leaves either the previous generation set intact or a
// tmp file the loader never looks at. Recovery walks generations newest
// first and falls back past any snapshot that is truncated, fails the
// CRC, carries an unknown version, or references more answer-log
// entries than survived on disk.

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
#include "ctable/condition.h"
#include "obs/metrics.h"

namespace bayescrowd {

/// Checkpoint format version written by this build, and the only one
/// it reads: any other version fails with a clear "older"/"newer"
/// error instead of a misparse. Versions 1–5 were earlier layouts;
/// change the payload, the memo blob or a platform chunk only by
/// bumping this.
inline constexpr std::uint32_t kCheckpointVersion = 6;

/// Everything Run() snapshots at a round boundary. Field order here is
/// the serialization order; extend only by bumping kCheckpointVersion.
struct SessionState {
  // -- Round-loop state --------------------------------------------- //
  double budget_left = 0.0;
  std::size_t consecutive_barren = 0;

  // -- Result accumulators (BayesCrowdResult mirror) ---------------- //
  std::size_t rounds = 0;
  std::size_t tasks_posted = 0;
  double cost_spent = 0.0;
  double cost_refunded = 0.0;
  std::size_t tasks_unanswered = 0;
  std::size_t retries = 0;
  std::size_t transient_failures = 0;
  std::size_t rounds_abandoned = 0;
  std::size_t order_conflicts = 0;
  double backoff_seconds = 0.0;
  double simulated_seconds = 0.0;
  std::size_t initial_true = 0;
  std::size_t initial_false = 0;
  std::size_t initial_undecided = 0;
  std::vector<RoundLog> round_logs;

  // -- Knowledge state ---------------------------------------------- //
  /// Per-object conditions, index = object id. Simplification is
  /// order-dependent, so conditions are snapshotted, not recomputed.
  std::vector<Condition> conditions;
  std::string knowledge_blob;  // KnowledgeBase::SerializeFacts.
  std::string evaluator_blob;  // ProbabilityEvaluator::SerializeMemoState.
  obs::MetricsSnapshot metrics;

  // -- Crowd platform ----------------------------------------------- //
  std::string platform_state;  // CrowdPlatform::SaveState chunk(s).
  std::size_t platform_tasks = 0;   // total_tasks() at the boundary.
  std::size_t platform_rounds = 0;  // total_rounds() at the boundary.

  // -- Session layer (filled by the sink, not by Run) --------------- //
  /// Durable answer-log entries at the boundary; recovery replays the
  /// log tail past this offset.
  std::size_t answer_log_offset = 0;
  /// Serialized Bayes net (or empty when posteriors come from
  /// elsewhere); informational for tooling, not consumed by Run.
  std::string network_blob;
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

/// Wraps a payload in the checksummed envelope / validates and strips
/// it. Unwrap fails with IOError on magic/CRC/truncation damage and
/// InvalidArgument on any version other than kCheckpointVersion.
std::string WrapCheckpoint(const std::string& payload);
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

  /// Writes `state` as generation `state.rounds` (tmp + fsync + rename
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

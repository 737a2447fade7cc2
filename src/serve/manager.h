// SessionManager: BayesCrowd as a resident service.
//
// One process, one shared worker pool, many live query sessions. The
// one-shot pipeline (BayesCrowd::Run) answers a single query and
// exits; a serving process instead keeps N sessions resident —
// possibly for N different tenants — and interleaves their crowd
// rounds. The manager is the multiplexing layer over core/runner.h:
//
//   Create    admission control (global + per-tenant residency caps),
//             then QueryRunner::Init on the shared pool — modeling
//             phase and optional checkpoint resume
//   Advance   up to K crowd rounds of one session; per-tenant QoS is
//             applied at round boundaries (a heavy tenant's governor
//             budgets tighten down the existing degradation ladder)
//   Checkpoint  explicit snapshot via the session's namespaced store
//   Finish    answer inference
//   Evict     drop a resident session (checkpointing first when a
//             store is configured and the session is unfinished)
//
// Determinism contract: each session's observable behavior (results,
// metrics, round logs) is a pure function of its spec — never of the
// interleaving. Sessions share no query state: everything
// cross-session is either partitioned (per-session metrics registries,
// per-session platform RNGs and evaluators, namespaced checkpoint
// generations) or order-insensitive by construction (QoS decisions read
// only the session's own round counter; the shared pool runs one
// session's ParallelFor at a time behind the work mutex, and lane-order
// effects are already excluded by the evaluator's deterministic folds).
// The serve_test harness pins this: N interleaved sessions byte-match N
// sequential runs of the same specs.
//
// Thread safety: every verb may be called from any client thread.
// Stepping work serializes on a single work mutex — sessions share one
// pool, so true intra-round parallelism comes from the pool's lanes,
// and round-granularity interleaving across sessions is the fairness
// quantum. The queue on the work mutex is bounded: past
// 1 + max_queued_requests in-flight stepping requests, new ones shed
// with Unavailable + a retry hint instead of queueing without bound.
//
// Crash-only serving (DESIGN.md §13): with a state_dir configured,
// create, finish, evict and quarantine journal a CRC-framed record to
// the serve manifest, and Recover() mass-resumes the resident set after
// a process death, each session from its own checkpoints. Sessions that
// fail repeatedly are quarantined out of the pool instead of wedging
// it.

#ifndef BAYESCROWD_SERVE_MANAGER_H_
#define BAYESCROWD_SERVE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/fileio.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/runner.h"
#include "crowd/marketplace.h"
#include "crowd/platform.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/manifest.h"

namespace bayescrowd::serve {

/// Per-tenant quality-of-service policy. Degradation is session-local
/// and round-based on purpose: a decision driven by the session's own
/// deterministic round counter cannot depend on how sessions happen to
/// interleave, which is what keeps serving deterministic.
struct TenantQos {
  /// After this many rounds of a single session, the session's solver
  /// governor steps down `ladder`. 0 = never degrade.
  std::size_t degrade_after_rounds = 0;

  /// Rounds between subsequent steps (0 = a single step only).
  std::size_t degrade_every_rounds = 0;

  /// Governor configurations applied at step 1, 2, ... (clamped to the
  /// last entry). Typically successively tighter max_nodes budgets:
  /// the per-evaluation SolverGovernor then walks its own degradation
  /// ladder, so heavy tenants get graded intervals instead of stalls.
  std::vector<GovernorOptions> ladder;
};

/// Always-zero counters of the retired shared cross-session cache: the
/// end-to-end benchmark still reads SessionManager::cache_stats().
/// Removed with ROADMAP item 1.
struct SharedQueryCache {
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
};

/// Everything needed to admit one session. Tables are held by value:
/// the manager owns the session's whole world so the client connection
/// can go away between verbs.
struct SessionSpec {
  // Both non-empty [A-Za-z0-9._-] (IsSafeName): they name checkpoint
  // files and label metrics.
  std::string id;      // Unique among resident sessions.
  std::string tenant;  // Selects the QoS policy + caps.

  Table incomplete;    // The queried table (with missing cells).
  Table ground_truth;  // Simulated crowd's answer source.
  SimulatedPlatformOptions platform;

  /// When true the session's crowd is the adversarial marketplace
  /// (crowd/marketplace.h) — individual workers with churn, spam
  /// defense, adaptive votes — instead of the flat simulated mixture;
  /// `platform` above is then ignored. The marketplace's learned
  /// reputations ride the session checkpoint, so recover/resume keeps
  /// quarantines.
  bool use_marketplace = false;
  MarketplaceOptions marketplace;

  /// Per-session query options. `pool`, `metrics` and `session` are
  /// overwritten by the manager (shared pool, per-session registry,
  /// id-labeled cost series); `checkpoint_sink` is overwritten when
  /// `checkpoint_dir` is set; everything else is the caller's.
  BayesCrowdOptions options;

  /// Posterior source; null = UniformPosteriorProvider over the
  /// incomplete table's schema (the zero-knowledge baseline).
  std::shared_ptr<PosteriorProvider> posteriors;

  /// Read by nothing: there is no shared cross-session cache, but the
  /// end-to-end benchmark still sets these two fields. Removed with
  /// ROADMAP item 1.
  std::string cache_key;
  bool warm_start = false;

  /// Enables the checkpoint verb: generations are written to this
  /// directory namespaced by session id (two resident sessions can
  /// share a directory without pruning each other). "" = no store.
  std::string checkpoint_dir;
  std::size_t checkpoint_keep = 3;

  /// Resume from the newest usable generation in `checkpoint_dir`
  /// (which must be set) instead of starting fresh.
  bool resume = false;

  /// Opaque spec payload journaled with the session's manifest events.
  /// The serve tool stores the original create-request JSON line here
  /// so Recover's resolver can rebuild the full spec after a crash.
  /// Part of the spec fingerprint.
  std::string manifest_blob;

  /// Per-session IO override for the checkpoint store (null = the
  /// manager's IO). Chaos tests poison one session's disk this way
  /// while co-resident tenants stay healthy.
  FileIo* io = nullptr;
};

/// A resident session's externally visible state.
struct SessionInfo {
  std::string id;
  std::string tenant;
  std::size_t rounds = 0;
  double budget_left = 0.0;
  std::size_t qos_level = 0;
  bool done = false;      // No further rounds possible.
  bool finished = false;  // Finish() ran; result was taken.
  bool resumed = false;
  bool quarantined = false;  // Isolated after repeated step failures.
};

struct AdvanceOutcome {
  std::size_t rounds_run = 0;
  std::size_t qos_level = 0;
  bool done = false;
};

/// What Recover() rebuilt from the manifest, for telemetry and the
/// `--recover` wire response.
struct RecoveryReport {
  std::size_t events_replayed = 0;
  std::size_t sessions_resumed = 0;   // Restored from a checkpoint.
  std::size_t sessions_fresh = 0;     // Re-admitted from round 0 (no
                                      // usable checkpoint; deterministic
                                      // re-run converges to the same
                                      // state).
  std::size_t sessions_failed = 0;    // Resolver/Init failure; skipped.
  std::size_t checkpoint_fallbacks = 0;  // Damaged generations skipped.
  std::size_t fingerprint_mismatches = 0;  // Resolver spec != manifest.
  std::size_t duplicate_events = 0;   // Create for an already-live id.
  std::size_t torn_tail_records = 0;
  std::size_t unknown_event_records = 0;
  std::vector<std::string> quarantined;  // Ids carried over as records.
};

class SessionManager {
 public:
  struct Options {
    /// Lanes of the worker pool (0 = hardware concurrency).
    std::size_t threads = 0;

    /// Global residency cap; Create past it is ResourceExhausted.
    std::size_t max_resident_sessions = 8;

    /// Per-tenant residency cap.
    std::size_t max_sessions_per_tenant = 4;

    std::map<std::string, TenantQos> qos;  // Keyed by tenant.

    /// Durable server state directory. Non-empty enables the serve
    /// manifest (<state_dir>/serve-manifest.bin): create, finish, evict
    /// and quarantine journal a CRC-framed record, and Recover() can
    /// mass-resume the whole resident set after a crash. "" = no
    /// manifest.
    std::string state_dir;

    /// IO seam for the manifest and session checkpoint stores (null =
    /// the real filesystem). The chaos harness injects faults here.
    FileIo* io = nullptr;

    /// Bounded admission queue for stepping verbs (Advance/AdvanceAll/
    /// Checkpoint/Finish): with more than 1 + max_queued_requests such
    /// requests in flight, new ones are shed with Unavailable +
    /// retry_after_ms instead of queueing without bound on the work
    /// mutex. Create is bounded by the residency caps instead.
    std::size_t max_queued_requests = 8;

    /// Retry hint carried in shed responses.
    std::int64_t retry_after_ms = 50;

    /// Test/chaos hook: shed every Nth stepping request through the
    /// real shed path regardless of load, so single-threaded drivers
    /// can pin the shed wire format deterministically. 0 = off.
    std::size_t debug_shed_every = 0;
  };

  /// Rebuilds a SessionSpec from a manifest event during Recover().
  /// Gets the journaled event (spec_blob carries what Create was given
  /// in SessionSpec::manifest_blob); returns the spec to re-admit.
  using SpecResolver =
      std::function<Result<SessionSpec>(const ManifestEvent&)>;

  explicit SessionManager(Options options);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admission + QueryRunner::Init (+ resume). On
  /// rejection the spec is not consumed destructively and nothing
  /// stays resident: Admit's refusals, or InvalidArgument for resume
  /// without a checkpoint dir.
  Status Create(SessionSpec spec);

  /// Whether a session `id` of `tenant` would be admitted now:
  /// InvalidArgument (an id or tenant that is not IsSafeName),
  /// AlreadyExists (a resident id), ResourceExhausted (a residency
  /// cap, counted and flight-recorded per tenant). Create runs it
  /// first; a frontend runs it before building a spec, so a refused
  /// create costs no modeling.
  Status Admit(const std::string& id, const std::string& tenant);

  /// Replays the serve manifest in `state_dir` and mass-resumes every
  /// session that was live at the crash: each is re-admitted via
  /// `resolver` and restored from its newest valid namespaced
  /// checkpoint (PR 4 fallback semantics), or re-run fresh when no
  /// usable generation survived — the deterministic simulated crowd
  /// re-buys the lost rounds bit-identically. Quarantined sessions are
  /// carried over as quarantine records, not resumed. Afterwards the
  /// manifest is compacted (atomic rotation) to one record per live
  /// session. Call before serving traffic: FailedPrecondition once any
  /// session is resident, or without a state_dir. A missing manifest
  /// recovers an empty server.
  Result<RecoveryReport> Recover(const SpecResolver& resolver);

  /// Runs up to `max_rounds` crowd rounds, applying the tenant's QoS
  /// policy at each round boundary. NotFound for unknown ids;
  /// FailedPrecondition after Finish or quarantine. A session whose
  /// step fails three times in a row is quarantined: checkpointed if
  /// possible, removed from the resident pool, reported as
  /// `quarantined` by list/info. `deadline_ms` > 0
  /// tightens the session's solver-governor deadline for this request
  /// only (degrade-only: results stay correct, sub-evaluations may
  /// grade; the base governor is restored afterwards).
  Result<AdvanceOutcome> Advance(const std::string& id,
                                 std::size_t max_rounds,
                                 std::int64_t deadline_ms = 0);

  /// One fair round-robin sweep: every unfinished resident session
  /// advances up to `quantum` rounds, in creation order. Returns the
  /// number of sessions that can still make progress. One session's
  /// step failure never aborts the sweep or latches the pool: the
  /// failure is counted against that session (quarantining it at the
  /// threshold) and the sweep continues with the others.
  Result<std::size_t> AdvanceAll(std::size_t quantum);

  /// Explicit snapshot (QueryRunner::WriteCheckpointNow).
  Status Checkpoint(const std::string& id);

  /// Answer inference; returns the sealed result. The session stays
  /// resident (info/evict still work) but cannot advance again.
  Result<BayesCrowdResult> Finish(const std::string& id);

  /// Drops a resident session. An unfinished session with a checkpoint
  /// store is snapshotted first so its progress survives eviction.
  Status Evict(const std::string& id);

  Result<SessionInfo> Info(const std::string& id);
  std::vector<SessionInfo> List();
  std::size_t resident() const;

  obs::MetricsSnapshot MetricsSnapshot() const;
  /// Always zero (see SharedQueryCache); removed with ROADMAP item 1.
  SharedQueryCache::Stats cache_stats() const { return {}; }
  obs::FlightRecorder* flight() { return &flight_; }

  /// The spec fingerprint journaled with every manifest event: chained
  /// hash of tenant and manifest_blob. Recover refuses to re-admit a
  /// resolved spec whose fingerprint mismatches the journal.
  static std::uint64_t SpecFingerprint(const SessionSpec& spec);

 private:
  struct Session {
    SessionSpec spec;
    std::size_t qos_level = 0;
    bool finished = false;
    bool resumed = false;
    std::size_t resume_fallbacks = 0;  // Generations skipped on resume.
    std::size_t consecutive_failures = 0;  // Step failures in a row.

    /// The governor currently in force absent any request deadline:
    /// the spec's base, replaced by ladder rungs as QoS steps down.
    GovernorOptions current_governor;
    std::int64_t request_deadline_ms = 0;  // This request only.

    obs::MetricsRegistry metrics;  // Per-session; partitions telemetry.
    std::shared_ptr<PosteriorProvider> posteriors;
    std::unique_ptr<CrowdPlatform> platform;
    std::unique_ptr<CheckpointStore> store;
    // Alive for the runner's lifetime: BayesCrowdOptions::resume holds
    // a pointer into it.
    std::unique_ptr<SessionState> resume_state;
    std::unique_ptr<QueryRunner> runner;
  };

  /// What list/info report for a quarantined ex-resident session.
  struct QuarantineRecord {
    std::string tenant;
    std::size_t rounds = 0;
    std::size_t qos_level = 0;
    std::string reason;
  };

  /// Decrements inflight_ when an admitted stepping request finishes.
  class InflightGuard;

  Session* FindLocked(const std::string& id);
  /// The session a stepping verb may work on; takes registry_mu_.
  /// FailedPrecondition for a quarantined or finished session, NotFound
  /// for an unknown id. Call with work_mu_ held.
  Result<Session*> SteppableLocked(const std::string& id);
  /// Drops `id` from the resident set, its creation order slot and its
  /// tenant's count. Call with registry_mu_ held.
  void UnlinkLocked(const std::string& id, const std::string& tenant);
  /// Best-effort snapshot of an unfinished session with a store, before
  /// it leaves the resident set; returns a note for the flight event
  /// ("" when nothing was attempted).
  static std::string SnapshotBeforeUnlink(Session* session);
  SessionInfo InfoOf(const Session& session) const;
  static SessionInfo InfoOfQuarantined(const std::string& id,
                                       const QuarantineRecord& record);
  const TenantQos* QosFor(const std::string& tenant) const;
  /// Applies the tenant ladder step the session's round count calls
  /// for; records the qos_degrade event + counter on a step.
  Status MaybeDegrade(Session* session);
  /// Re-applies current_governor, tightened by the in-flight request
  /// deadline when one is set.
  Status ApplyGovernorNow(Session* session);
  Status AdvanceLockedImpl(Session* session, std::size_t max_rounds,
                           std::int64_t deadline_ms, AdvanceOutcome* out);
  /// Create minus the work-mutex acquisition and journaling policy;
  /// shared by Create and Recover.
  Status CreateImpl(SessionSpec spec, bool journal);
  /// Bounded-queue admission for stepping verbs; Unavailable when shed.
  /// On OK the caller owns one inflight_ decrement (InflightGuard).
  Status AdmitStep(const char* verb);
  /// Records one step failure; quarantines at the threshold. Call with
  /// work_mu_ held.
  void NoteStepFailure(Session* session, const Status& error);
  /// Moves the session out of the pool into quarantined_ (best-effort
  /// checkpoint first). Call with work_mu_ held, registry_mu_ not held.
  void QuarantineLocked(Session* session, const std::string& reason);
  /// Builds the manifest event for a session's current state.
  ManifestEvent EventOf(const Session& session, ManifestEventKind kind,
                        const std::string& detail) const;
  /// Journals the event when the manifest is enabled. Append failures
  /// degrade (counter + flight note), never fail the verb — the journal
  /// is a recovery aid, not a commit log.
  void Journal(const ManifestEvent& event);
  std::string ManifestPath() const;
  FileIo* io() const;

  Options options_;
  ThreadPool pool_;
  /// Serve-level instruments and incident ring (admissions, evictions,
  /// QoS steps), labeled tenant=/session=; distinct from
  /// the per-session registries.
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder flight_;
  std::unique_ptr<ServeManifest> manifest_;  // Null without state_dir.

  /// Stepping requests currently admitted (holding or queued on
  /// work_mu_). Bounded by 1 + max_queued_requests; beyond that new
  /// stepping requests shed instead of queueing.
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> step_requests_{0};  // For debug_shed_every.

  /// Serializes all stepping work (Init/Step/Finish/checkpoint I/O):
  /// sessions share one pool, and round-granularity interleaving is
  /// the fairness quantum. Always acquired before registry_mu_.
  std::mutex work_mu_;
  /// Guards the session map + creation order + quarantine records.
  mutable std::mutex registry_mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::vector<std::string> creation_order_;
  std::map<std::string, std::size_t> tenant_resident_;
  std::map<std::string, QuarantineRecord> quarantined_;
};

}  // namespace bayescrowd::serve

#endif  // BAYESCROWD_SERVE_MANAGER_H_

// FlightRecorder: a fixed-capacity ring buffer of structured runtime
// events (degradations, breaker trips, retries, checkpoint writes,
// budget exhaustion) that survives to a JSONL artifact when a run
// ends — cleanly, by budget exhaustion, or by crash. Unlike metrics (aggregates) and traces (timing), the flight
// recorder answers "what happened, in order, just before the end".
//
// Recording takes a mutex; every producer site is on the framework's
// single-threaded round loop and fires at most a handful of times per
// round, so the lock is uncontended. The ring keeps the newest
// `capacity` events plus a total count so readers can tell how many
// were dropped.

#ifndef BAYESCROWD_OBS_FLIGHT_H_
#define BAYESCROWD_OBS_FLIGHT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace bayescrowd::obs {

// Values are stable: 2 was a retired kind and stays unassigned.
enum class FlightEventKind : std::uint8_t {
  kDegradation = 0,     // Solver budget exhausted below exact tier.
  kBreakerTrip = 1,     // Per-object circuit breaker opened.
  kRetry = 3,           // Crowd batch retried after a transient failure.
  kRoundAbandoned = 4,  // Retries exhausted; round degraded.
  kCheckpointWrite = 5, // Session snapshot persisted.
  kBudgetExhausted = 6, // Crowd budget fully spent; loop ends.
  kResume = 7,          // Session restored from a checkpoint.
  kNote = 8,            // Free-form marker (tests, tooling).
  // Serving-layer events (src/serve/): per-tenant lifecycle + QoS.
  kAdmission = 9,       // Session admitted to (or rejected by) the server.
  kEviction = 10,       // Resident session evicted (explicit or LRU).
  kQosDegrade = 11,     // Tenant over its QoS allowance; governor tightened.
  // Crash-only serving events: fault containment + mass recovery.
  kQuarantine = 12,     // Poison session isolated after repeated failures.
  kOverload = 13,       // Request shed at the bounded admission queue.
  kRecovery = 14,       // Session mass-resumed from the serve manifest.
  // Crowd-marketplace defense events (src/crowd/marketplace.h).
  kKappaCollapse = 15,    // Round agreement fell below the kappa floor.
  kWorkerQuarantine = 16, // Worker(s) quarantined by joint inference.
};

const char* FlightEventKindToString(FlightEventKind kind);
bool ParseFlightEventKind(const std::string& name, FlightEventKind* out);

struct FlightEvent {
  std::uint64_t seq = 0;  // Monotone per-recorder sequence number.
  FlightEventKind kind = FlightEventKind::kNote;
  std::uint64_t round = 0;
  std::int64_t object = -1;     // Object id, or -1 when not applicable.
  double sim_seconds = 0.0;     // Simulated clock (deterministic).
  double value = 0.0;           // Kind-specific magnitude (count, delta).
  std::string detail;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void Record(FlightEventKind kind, std::uint64_t round, std::int64_t object,
              double sim_seconds, double value, std::string detail);

  /// Oldest-first copy of the retained window.
  std::vector<FlightEvent> Events() const;
  std::uint64_t total_recorded() const;
  /// Events that fell off the ring (total_recorded - retained).
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }
  void Clear();

  /// One compact JSON object per line, oldest first, preceded by a
  /// header line carrying totals.
  Status WriteJsonl(const std::string& path) const;

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // Wraps at capacity_.
  std::uint64_t total_ = 0;
};

struct FlightLoad {
  std::vector<FlightEvent> events;
  std::uint64_t total_recorded = 0;  // From the header, if present.
  std::size_t corrupt_lines = 0;     // Unparseable lines skipped.
};

/// Startup check for a flight-log destination, so an unwritable path
/// fails before any work instead of at exit: an empty path is
/// InvalidArgument, one that cannot be opened for append IOError.
Status CheckFlightLogPath(const std::string& path);

/// Tolerant JSONL load: unparseable lines (a torn tail after a crash,
/// stray garbage) are counted and skipped, never fatal. Only a missing
/// file is an error.
Result<FlightLoad> LoadFlightJsonl(const std::string& path);

// Free-function mutators so call sites can hold a nullable recorder.
inline void RecordFlight(FlightRecorder* recorder, FlightEventKind kind,
                         std::uint64_t round, std::int64_t object,
                         double sim_seconds, double value,
                         std::string detail) {
  if (recorder != nullptr) {
    recorder->Record(kind, round, object, sim_seconds, value,
                     std::move(detail));
  }
}

}  // namespace bayescrowd::obs

#endif  // BAYESCROWD_OBS_FLIGHT_H_

// Interval-valued probabilities and cooperative solver cancellation —
// the shared vocabulary of the resource-governed solving layer (see
// DESIGN.md §10).
//
// Pr(φ) is #SAT-hard, so a budgeted solve may not finish. Instead of
// hanging or failing, a governed evaluation returns a *sound* interval
// [lo, hi] that is guaranteed to contain the exact probability, graded
// by how it was obtained (ProbQuality). Exact results are the special
// case lo == hi.

#ifndef BAYESCROWD_PROBABILITY_INTERVAL_H_
#define BAYESCROWD_PROBABILITY_INTERVAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace bayescrowd {

/// How a probability (interval) was obtained, ordered best-first. The
/// grade travels with the value through the evaluator, the strategy
/// layer, the solver breakers' checkpoint records, and telemetry.
enum class ProbQuality : std::uint8_t {
  kExact = 0,        // Full solve; lo == hi.
  kPartialBound = 1, // Truncated exact search; sound [lo, hi].
  kSampledCI = 2,    // Monte-Carlo estimate with a confidence interval.
  kUnknown = 3,      // Nothing learned: [0, 1].
};

const char* ProbQualityToString(ProbQuality quality);

/// A closed probability interval with its provenance grade. Invariant:
/// 0 <= lo <= hi <= 1, and quality == kExact implies lo == hi.
struct ProbInterval {
  double lo = 0.0;
  double hi = 1.0;
  ProbQuality quality = ProbQuality::kUnknown;

  static ProbInterval Exact(double p) {
    return ProbInterval{p, p, ProbQuality::kExact};
  }
  static ProbInterval Unknown() {
    return ProbInterval{0.0, 1.0, ProbQuality::kUnknown};
  }

  double midpoint() const { return 0.5 * (lo + hi); }
  double width() const { return hi - lo; }
  bool exact() const { return quality == ProbQuality::kExact; }
  bool Contains(double p) const { return lo <= p && p <= hi; }

  bool operator==(const ProbInterval& other) const {
    return lo == other.lo && hi == other.hi && quality == other.quality;
  }
  bool operator!=(const ProbInterval& other) const {
    return !(*this == other);
  }
};

/// The most-uncertain probability consistent with `interval`: the point
/// closest to 1/2 (1/2 itself when contained). Equals the exact value
/// for exact intervals. The strategy layer's pessimistic ranking uses
/// this instead of the midpoint.
inline double PessimisticPoint(const ProbInterval& interval) {
  if (interval.lo > 0.5) return interval.lo;
  if (interval.hi < 0.5) return interval.hi;
  return 0.5;
}

/// Cooperative cancellation handle threaded into the ADPLL recursion,
/// the Naive odometer, and the samplers. Two triggers: an explicit
/// cross-thread Cancel(), and an optional wall-clock deadline. The
/// deadline is polled only every kDeadlinePollPeriod ticks so the
/// common path costs one pointer compare plus one relaxed atomic load.
///
/// Determinism contract: cancellation *degrades* a solve (the governor
/// drops to a lower ladder tier); it never changes the value an
/// uncancelled solve would produce. Wall-clock caps are therefore safe
/// to use even where results must be reproducible — only *whether* a
/// tier completes is timing-dependent, never its output.
class SolverControl {
 public:
  SolverControl() = default;

  SolverControl(const SolverControl&) = delete;
  SolverControl& operator=(const SolverControl&) = delete;

  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Thread-safe; the solve observes it at its next ShouldStop poll.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Polled by solver inner loops. Sticky: once true, stays true.
  bool ShouldStop() {
    if (stopped_) return true;
    if (cancelled_.load(std::memory_order_relaxed)) {
      stopped_ = true;
      return true;
    }
    if (has_deadline_ && ++ticks_ % kDeadlinePollPeriod == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      stopped_ = true;
    }
    return stopped_;
  }

  /// True when a previous ShouldStop() fired (no fresh poll).
  bool stopped() const { return stopped_; }

 private:
  static constexpr std::uint64_t kDeadlinePollPeriod = 256;

  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::uint64_t ticks_ = 0;
  bool stopped_ = false;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_INTERVAL_H_

// Run inspection: turns the machine-readable artifacts a run leaves
// behind (telemetry JSON, flight-recorder JSONL) into cost breakdowns
// a person can act on, and diffs two runs' telemetry to flag metric
// regressions. Backs the `bayescrowd_cli inspect` subcommand; see
// tools/README.md for worked examples.

#ifndef BAYESCROWD_CORE_INSPECT_H_
#define BAYESCROWD_CORE_INSPECT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/flight.h"
#include "obs/json.h"

namespace bayescrowd {

/// A rendered inspection of one run's telemetry document plus the
/// coverage ratios the report is graded on.
struct InspectionReport {
  std::string text;
  /// Fraction of the run's wall-clock attributed to a named phase
  /// (modeling / select / platform / update / export / answer). The
  /// remainder is loop bookkeeping and report assembly.
  double wall_coverage = 0.0;
  /// Fraction of deterministic cost units carrying a full
  /// (session, phase, solver_tier) label triple. Anything below 1.0
  /// means an instrumentation site lost its labels.
  double unit_coverage = 0.0;
  std::uint64_t total_units = 0;
};

/// Renders per-phase / per-tier / per-round cost breakdowns from a
/// telemetry document (obs envelope, kind "run"). `flight` is optional;
/// when present its events are appended as an incident timeline.
Result<InspectionReport> RenderRunInspection(const obs::JsonValue& telemetry,
                                             const obs::FlightLoad* flight);

/// One flagged metric drift between two runs.
struct TelemetryRegression {
  std::string path;      // Dotted path into the payload.
  double baseline = 0.0;
  double candidate = 0.0;
  double relative = 0.0;  // |candidate - baseline| / max(|baseline|, 1).
};

/// Diff result: every numeric leaf whose relative drift exceeded the
/// threshold. Both payloads are compared after NormalizeTelemetry with
/// lane usage stripped (obs/normalize.h: wall-clock fields and deadline
/// hits zeroed, lane tallies and the pool size dropped), so
/// identical-seed runs diff clean.
struct TelemetryDiff {
  std::string text;
  std::vector<TelemetryRegression> regressions;
};

Result<TelemetryDiff> DiffRunTelemetry(const obs::JsonValue& baseline,
                                       const obs::JsonValue& candidate,
                                       double threshold);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_INSPECT_H_

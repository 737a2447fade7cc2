// Run telemetry: serializes everything a BayesCrowd::Run produced —
// result counts, per-round logs, ADPLL search and solver-tier totals,
// per-lane pool utilization, and the full metrics snapshot —
// into one machine-readable JSON document (obs telemetry envelope,
// kind "run"). EXPERIMENTS.md shows how to mine the output.

#ifndef BAYESCROWD_CORE_TELEMETRY_H_
#define BAYESCROWD_CORE_TELEMETRY_H_

#include <string>

#include "common/result.h"
#include "core/framework.h"
#include "obs/json.h"

namespace bayescrowd {

/// The full telemetry document for one run. `name` labels the run
/// (dataset, experiment id, ...).
obs::JsonValue RunTelemetryJson(const std::string& name,
                                const BayesCrowdOptions& options,
                                const BayesCrowdResult& result);

/// Writes RunTelemetryJson(...) to `path` (pretty-printed).
Status WriteRunTelemetry(const std::string& name,
                         const BayesCrowdOptions& options,
                         const BayesCrowdResult& result,
                         const std::string& path);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_TELEMETRY_H_

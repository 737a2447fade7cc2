// Telemetry normalization for differential tests: strips the fields
// that legitimately differ between two runs of the same query so
// everything else can be compared byte-for-byte.
//
// Thread-pool lane tallies (the "lanes" array and "pool.lane*" metric
// keys) are always dropped: which lane ran which task depends on the
// scheduler, so two runs of one query on a multi-core host disagree
// there even at the same thread count, and a resumed process only
// worked the post-resume rounds. Three more classes of noise each sit
// behind their own switch:
//   - wall-clock durations (machine-dependent),
//   - the pool size ("threads"), for diffing runs of different widths,
//   - resume markers (a recovered run says so; the reference doesn't).
// Simulated clocks ("*_sim_seconds") are deterministic and always
// survive untouched.

#ifndef BAYESCROWD_OBS_NORMALIZE_H_
#define BAYESCROWD_OBS_NORMALIZE_H_

#include "obs/json.h"

namespace bayescrowd::obs {

struct NormalizeOptions {
  /// Zero numeric members whose key ends in "seconds" and does not
  /// mention "sim" (modeling_seconds, busy_seconds, ...), plus the
  /// solver's "deadline_hits" counters (whether the optional wall-clock
  /// cap fired is machine-dependent; what it degraded *to* is not).
  bool zero_wall_clock = true;

  /// Drop the "threads" option, so a 1-thread run diffs byte-for-byte
  /// against an 8-thread run of the same query.
  bool strip_lane_usage = false;

  /// Zero the "resumed" flag and drop "recovery."-prefixed metric keys
  /// (recovery.fallback, recovery.resumed, ...), so a recovered run
  /// diffs clean against its uninterrupted reference.
  bool strip_resume_markers = false;
};

/// Recursively copies `v` with the configured noise removed.
JsonValue NormalizeTelemetry(const JsonValue& v,
                             const NormalizeOptions& options = {});

}  // namespace bayescrowd::obs

#endif  // BAYESCROWD_OBS_NORMALIZE_H_

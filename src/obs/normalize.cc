#include "obs/normalize.h"

#include <string>
#include <utility>

namespace bayescrowd::obs {
namespace {

bool IsWallClockKey(const std::string& key) {
  // Deadline-hit counts are wall-clock noise too: whether the solver's
  // optional deadline fired depends on machine speed, never on the
  // query (the node-budget counters stay untouched).
  if (key == "deadline_hits" || key == "solver.deadline_hits") return true;
  const std::string suffix = "seconds";
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         key.find("sim") == std::string::npos;
}

bool StartsWith(const std::string& key, const char* prefix) {
  return key.rfind(prefix, 0) == 0;
}

JsonValue Normalize(const JsonValue& v, const std::string& key,
                    const NormalizeOptions& options) {
  switch (v.kind()) {
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::Object();
      for (const auto& [k, member] : v.members()) {
        if (k == "lanes" || StartsWith(k, "pool.lane")) continue;
        if (options.strip_lane_usage && k == "threads") continue;
        // "recovery." only matches dotted metric names; the payload's
        // "recovery" object (deterministic totals) is kept.
        if (options.strip_resume_markers && StartsWith(k, "recovery.")) {
          continue;
        }
        if (options.strip_resume_markers && k == "resumed") {
          out[k] = JsonValue(false);
          continue;
        }
        out[k] = Normalize(member, k, options);
      }
      return out;
    }
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::Array();
      for (std::size_t i = 0; i < v.size(); ++i) {
        out.Append(Normalize(v.at(i), key, options));
      }
      return out;
    }
    default:
      if (v.is_number() && IsWallClockKey(key)) {
        return JsonValue(0.0);
      }
      return v;
  }
}

}  // namespace

JsonValue NormalizeTelemetry(const JsonValue& v,
                             const NormalizeOptions& options) {
  return Normalize(v, "", options);
}

}  // namespace bayescrowd::obs

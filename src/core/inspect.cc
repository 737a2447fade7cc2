#include "core/inspect.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace bayescrowd {
namespace {

double NumberOr(const obs::JsonValue* value, double fallback) {
  if (value == nullptr || !value->is_number()) return fallback;
  return value->AsDouble();
}

std::string StringOr(const obs::JsonValue* value,
                     const std::string& fallback) {
  if (value == nullptr) return fallback;
  return value->AsString();
}

/// The run payload inside the telemetry envelope, or an error when the
/// document is not a kind-"run" envelope.
Result<const obs::JsonValue*> RunPayload(const obs::JsonValue& telemetry) {
  const obs::JsonValue* kind = telemetry.Find("kind");
  if (kind == nullptr || kind->AsString() != "run") {
    return Status::InvalidArgument(
        "not a run telemetry document (expected envelope kind \"run\"; "
        "pass the --telemetry-out file of a run)");
  }
  const obs::JsonValue* payload = telemetry.Find("payload");
  if (payload == nullptr) {
    return Status::InvalidArgument("telemetry envelope has no payload");
  }
  return payload;
}

struct AttributionRow {
  std::string unit;
  std::string session;
  std::string phase;
  std::string solver_tier;
  std::string compile_state;
  std::uint64_t units = 0;
};

std::vector<AttributionRow> AttributionRows(const obs::JsonValue& payload) {
  std::vector<AttributionRow> rows;
  const obs::JsonValue* attribution = payload.Find("attribution");
  if (attribution == nullptr) return rows;
  const obs::JsonValue* raw = attribution->Find("rows");
  if (raw == nullptr) return rows;
  for (std::size_t i = 0; i < raw->size(); ++i) {
    const obs::JsonValue& entry = raw->at(i);
    AttributionRow row;
    row.unit = StringOr(entry.Find("unit"), "");
    row.session = StringOr(entry.Find("session"), "");
    row.phase = StringOr(entry.Find("phase"), "");
    row.solver_tier = StringOr(entry.Find("solver_tier"), "");
    row.compile_state = StringOr(entry.Find("compile_state"), "");
    row.units =
        static_cast<std::uint64_t>(NumberOr(entry.Find("units"), 0.0));
    rows.push_back(std::move(row));
  }
  return rows;
}

void AppendGroupTable(const std::string& title,
                      const std::map<std::string, std::uint64_t>& groups,
                      std::uint64_t total, std::string* out) {
  out->append(title);
  out->append("\n");
  for (const auto& [key, units] : groups) {
    const double share =
        total > 0 ? 100.0 * static_cast<double>(units) /
                        static_cast<double>(total)
                  : 0.0;
    out->append(StrFormat("  %-28s %12llu  %5.1f%%\n", key.c_str(),
                          static_cast<unsigned long long>(units), share));
  }
}

// ----------------------------------------------------------------- //
// Diff
// ----------------------------------------------------------------- //

bool SkipKey(const std::string& key) {
  // Wall-clock fields and the one wall-clock-dependent solver count are
  // machine-dependent; simulated clocks (deterministic) stay in. Lane
  // usage is scheduling-dependent even on identical seeds, so it is
  // skipped the same way `normalize` drops it (and the pool size the way
  // `normalize --strip-lanes` does).
  const bool is_seconds =
      key.size() >= 7 && key.compare(key.size() - 7, 7, "seconds") == 0;
  if (is_seconds && key.find("sim") == std::string::npos) return true;
  if (key == "lanes" || key == "threads" ||
      key.rfind("pool.lane", 0) == 0) {
    return true;
  }
  return key == "deadline_hits" || key == "wall_ms";
}

void CollectNumericLeaves(const obs::JsonValue& value,
                          const std::string& path,
                          std::map<std::string, double>* out) {
  if (value.is_number()) {
    (*out)[path] = value.AsDouble();
    return;
  }
  if (value.kind() == obs::JsonValue::Kind::kObject) {
    for (const auto& [key, member] : value.members()) {
      if (SkipKey(key)) continue;
      CollectNumericLeaves(member, path.empty() ? key : path + "." + key,
                           out);
    }
    return;
  }
  if (value.kind() == obs::JsonValue::Kind::kArray) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      CollectNumericLeaves(value.at(i), StrFormat("%s[%zu]", path.c_str(), i),
                           out);
    }
  }
}

}  // namespace

Result<InspectionReport> RenderRunInspection(
    const obs::JsonValue& telemetry, const obs::FlightLoad* flight) {
  BAYESCROWD_ASSIGN_OR_RETURN(const obs::JsonValue* payload,
                              RunPayload(telemetry));
  InspectionReport report;
  std::string& out = report.text;

  const obs::JsonValue* options = payload->Find("options");
  const obs::JsonValue* result = payload->Find("result");
  if (result == nullptr) {
    return Status::InvalidArgument("run telemetry has no result section");
  }
  out.append(StrFormat(
      "run: %s\n",
      StringOr(telemetry.Find("name"), "(unnamed)").c_str()));
  if (options != nullptr) {
    out.append(StrFormat(
        "config: strategy=%s budget=%.0f latency=%.0f threads=%.0f\n",
        StringOr(options->Find("strategy"), "?").c_str(),
        NumberOr(options->Find("budget"), 0),
        NumberOr(options->Find("latency"), 0),
        NumberOr(options->Find("threads"), 0)));
  }
  out.append(StrFormat(
      "outcome: rounds=%.0f tasks=%.0f cost_spent=%.1f degraded=%s\n\n",
      NumberOr(result->Find("rounds"), 0),
      NumberOr(result->Find("tasks_posted"), 0),
      NumberOr(result->Find("cost_spent"), 0),
      result->Find("degraded") != nullptr &&
              result->Find("degraded")->AsBool()
          ? "yes"
          : "no"));

  // -- Wall-clock attribution ------------------------------------- //
  const double modeling = NumberOr(result->Find("modeling_seconds"), 0.0);
  const double select = NumberOr(result->Find("select_seconds"), 0.0);
  const double update = NumberOr(result->Find("update_seconds"), 0.0);
  const double answer = NumberOr(result->Find("answer_seconds"), 0.0);
  const double platform =
      NumberOr(result->Find("platform_wall_seconds"), 0.0);
  const double exported = NumberOr(result->Find("export_seconds"), 0.0);
  const double crowd = NumberOr(result->Find("crowdsourcing_seconds"), 0.0);
  const double total = NumberOr(result->Find("total_seconds"), 0.0);
  // Coverage is graded over the phase-covered windows (modeling +
  // crowdsourcing + answer): the round loop's wall-clock must be
  // explained by its select/platform/update/export timers.
  // total_seconds additionally holds fixed setup and report assembly,
  // shown for context only.
  const double attributed =
      modeling + select + platform + update + exported + answer;
  const double windows = modeling + crowd + answer;
  report.wall_coverage =
      windows > 0.0 ? std::min(1.0, attributed / windows) : 1.0;
  out.append("wall-clock attribution\n");
  out.append(StrFormat("  %-28s %12.6fs\n", "modeling", modeling));
  out.append(StrFormat("  %-28s %12.6fs\n", "select", select));
  out.append(StrFormat("  %-28s %12.6fs\n", "crowd (platform wall)",
                       platform));
  out.append(StrFormat("  %-28s %12.6fs\n", "update", update));
  out.append(StrFormat("  %-28s %12.6fs\n", "export (sinks + checkpoint)",
                       exported));
  out.append(StrFormat("  %-28s %12.6fs\n", "answer", answer));
  out.append(StrFormat("  %-28s %12.6fs\n", "rounds (crowdsourcing)",
                       crowd));
  out.append(StrFormat("  %-28s %12.6fs\n", "total (incl. setup)", total));
  out.append(StrFormat("  wall_coverage: %.1f%% of phase wall-clock "
                       "attributed\n\n",
                       100.0 * report.wall_coverage));

  // -- Deterministic cost units ----------------------------------- //
  const std::vector<AttributionRow> rows = AttributionRows(*payload);
  std::uint64_t total_units = 0;
  std::uint64_t labeled_units = 0;
  std::map<std::string, std::uint64_t> by_phase;
  std::map<std::string, std::uint64_t> by_tier;
  std::map<std::string, std::uint64_t> by_unit;
  for (const AttributionRow& row : rows) {
    total_units += row.units;
    if (!row.session.empty() && !row.phase.empty() &&
        !row.solver_tier.empty()) {
      labeled_units += row.units;
    }
    by_phase[row.phase.empty() ? "(unlabeled)" : row.phase] += row.units;
    by_tier[row.solver_tier.empty() ? "(unlabeled)" : row.solver_tier] +=
        row.units;
    by_unit[row.unit] += row.units;
  }
  report.total_units = total_units;
  report.unit_coverage =
      total_units > 0
          ? static_cast<double>(labeled_units) /
                static_cast<double>(total_units)
          : 1.0;
  out.append(StrFormat("deterministic cost units (total %llu)\n",
                       static_cast<unsigned long long>(total_units)));
  out.append(StrFormat("  unit_coverage: %.1f%% carry a full (session, "
                       "phase, solver_tier) triple\n",
                       100.0 * report.unit_coverage));
  AppendGroupTable("by unit", by_unit, total_units, &out);
  AppendGroupTable("by phase", by_phase, total_units, &out);
  AppendGroupTable("by solver tier", by_tier, total_units, &out);
  out.append("\n");

  // -- Per-round breakdown ---------------------------------------- //
  const obs::JsonValue* rounds = payload->Find("rounds");
  if (rounds != nullptr && rounds->size() > 0) {
    out.append("per-round\n");
    out.append(
        "  round  tasks  answered  select_s   update_s   cache_hit%  "
        "flags\n");
    for (std::size_t i = 0; i < rounds->size(); ++i) {
      const obs::JsonValue& r = rounds->at(i);
      const double hits = NumberOr(r.Find("cache_hits"), 0.0);
      const double misses = NumberOr(r.Find("cache_misses"), 0.0);
      const double rate =
          hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
      const bool abandoned = r.Find("abandoned") != nullptr &&
                             r.Find("abandoned")->AsBool();
      out.append(StrFormat(
          "  %5.0f  %5.0f  %8.0f  %9.6f  %9.6f  %9.1f  %s\n",
          NumberOr(r.Find("round"), 0), NumberOr(r.Find("tasks"), 0),
          NumberOr(r.Find("answered"), 0),
          NumberOr(r.Find("select_seconds"), 0),
          NumberOr(r.Find("update_seconds"), 0), rate,
          abandoned ? "abandoned" : "-"));
    }
    out.append("\n");
  }

  // -- Per-object solver quality ---------------------------------- //
  const obs::JsonValue* solver = payload->Find("solver");
  if (solver != nullptr) {
    const obs::JsonValue* intervals = solver->Find("intervals");
    std::map<std::string, std::uint64_t> by_quality;
    if (intervals != nullptr) {
      for (std::size_t i = 0; i < intervals->size(); ++i) {
        by_quality[StringOr(intervals->at(i).Find("quality"), "?")] += 1;
      }
    }
    out.append("per-object final quality\n");
    for (const auto& [quality, count] : by_quality) {
      out.append(StrFormat("  %-28s %12llu\n", quality.c_str(),
                           static_cast<unsigned long long>(count)));
    }
    const obs::JsonValue* degraded = solver->Find("degraded_objects");
    if (degraded != nullptr && degraded->size() > 0) {
      out.append("  degraded objects:");
      for (std::size_t i = 0; i < degraded->size(); ++i) {
        out.append(StrFormat(" %lld",
                             static_cast<long long>(degraded->at(i).AsInt())));
      }
      out.append("\n");
    }
    out.append("\n");
  }

  // -- Flight timeline -------------------------------------------- //
  if (flight != nullptr) {
    out.append(StrFormat(
        "flight recorder: %llu event(s) recorded, %zu retained, %zu "
        "corrupt line(s) skipped\n",
        static_cast<unsigned long long>(flight->total_recorded),
        flight->events.size(), flight->corrupt_lines));
    for (const obs::FlightEvent& event : flight->events) {
      out.append(StrFormat(
          "  #%llu r%llu %-18s obj=%lld sim=%.3fs value=%.3f  %s\n",
          static_cast<unsigned long long>(event.seq),
          static_cast<unsigned long long>(event.round),
          obs::FlightEventKindToString(event.kind),
          static_cast<long long>(event.object), event.sim_seconds,
          event.value, event.detail.c_str()));
    }
  }
  return report;
}

Result<TelemetryDiff> DiffRunTelemetry(const obs::JsonValue& baseline,
                                       const obs::JsonValue& candidate,
                                       double threshold) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("diff threshold must be >= 0");
  }
  BAYESCROWD_ASSIGN_OR_RETURN(const obs::JsonValue* base_payload,
                              RunPayload(baseline));
  BAYESCROWD_ASSIGN_OR_RETURN(const obs::JsonValue* cand_payload,
                              RunPayload(candidate));
  std::map<std::string, double> base_leaves;
  std::map<std::string, double> cand_leaves;
  CollectNumericLeaves(*base_payload, "", &base_leaves);
  CollectNumericLeaves(*cand_payload, "", &cand_leaves);

  TelemetryDiff diff;
  std::set<std::string> paths;
  for (const auto& [path, value] : base_leaves) paths.insert(path);
  for (const auto& [path, value] : cand_leaves) paths.insert(path);
  for (const std::string& path : paths) {
    const auto b = base_leaves.find(path);
    const auto c = cand_leaves.find(path);
    TelemetryRegression reg;
    reg.path = path;
    // A leaf missing on one side counts as 0 there: an optional metric
    // that is absent vs present-but-zero is the same measurement, while
    // a new nonzero metric still trips the relative rule below.
    reg.baseline = b == base_leaves.end() ? 0.0 : b->second;
    reg.candidate = c == cand_leaves.end() ? 0.0 : c->second;
    const double denom = std::max(std::abs(reg.baseline), 1.0);
    reg.relative = std::abs(reg.candidate - reg.baseline) / denom;
    if (reg.relative > threshold) {
      diff.regressions.push_back(std::move(reg));
    }
  }
  if (diff.regressions.empty()) {
    diff.text = StrFormat(
        "no regressions: %zu comparable metric(s) within threshold "
        "%.3f\n",
        paths.size(), threshold);
  } else {
    diff.text = StrFormat("%zu metric(s) drifted beyond threshold %.3f\n",
                          diff.regressions.size(), threshold);
    for (const TelemetryRegression& reg : diff.regressions) {
      diff.text.append(StrFormat("  %-48s %14.4f -> %14.4f  (%+.1f%%)\n",
                                 reg.path.c_str(), reg.baseline,
                                 reg.candidate, 100.0 * reg.relative));
    }
  }
  return diff;
}

}  // namespace bayescrowd

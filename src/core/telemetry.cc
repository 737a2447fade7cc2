#include "core/telemetry.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace bayescrowd {
namespace {

// Deterministic cost-unit attribution: every `cost.*` labeled counter
// in the snapshot, grouped as one row per (session, phase, solver_tier)
// label set. Unit counts are thread-count independent (charged at
// sequential fold points), so this section participates in the
// byte-identity contracts like every other normalized count.
obs::JsonValue AttributionJson(const obs::MetricsSnapshot& snapshot,
                               double answer_seconds) {
  obs::JsonValue rows = obs::JsonValue::Array();
  std::uint64_t total_units = 0;
  for (const auto& [series, value] : snapshot.counters) {
    std::string base;
    std::vector<obs::Label> labels;
    obs::ParseSeriesName(series, &base, &labels);
    if (base.rfind("cost.", 0) != 0) continue;
    obs::JsonValue row = obs::JsonValue::Object();
    row["unit"] = base;
    for (const obs::Label& label : labels) row[label.key] = label.value;
    row["units"] = value;
    rows.Append(std::move(row));
    total_units += value;
  }
  obs::JsonValue out = obs::JsonValue::Object();
  out["total_units"] = total_units;
  out["answer_seconds"] = answer_seconds;
  out["rows"] = std::move(rows);
  return out;
}

obs::JsonValue OptionsJson(const BayesCrowdOptions& options) {
  obs::JsonValue out = obs::JsonValue::Object();
  out["budget"] = options.budget;
  out["latency"] = options.latency;
  out["strategy"] = StrategyKindToString(options.strategy.kind);
  out["method"] = ProbabilityMethodToString(options.probability.method);
  out["threads"] = options.threads;
  out["answer_threshold"] = options.answer_threshold;
  out["confidence_stop_entropy"] = options.confidence_stop_entropy;
  obs::JsonValue retry = obs::JsonValue::Object();
  retry["max_attempts"] = options.retry.max_attempts;
  retry["attempt_seconds"] = options.retry.attempt_seconds;
  retry["backoff_initial_seconds"] = options.retry.backoff_initial_seconds;
  retry["backoff_multiplier"] = options.retry.backoff_multiplier;
  retry["round_deadline_seconds"] = options.retry.round_deadline_seconds;
  retry["max_barren_rounds"] = options.retry.max_barren_rounds;
  out["retry"] = std::move(retry);
  const GovernorOptions& g = options.probability.governor;
  obs::JsonValue governor = obs::JsonValue::Object();
  governor["enabled"] = g.enabled();
  governor["node_budget"] = g.max_nodes;
  governor["component_budget"] = g.max_components;
  governor["deadline_ms"] = static_cast<std::size_t>(
      g.deadline_ms < 0 ? 0 : g.deadline_ms);
  governor["ladder"] = LadderModeToString(g.ladder);
  governor["interval_samples"] = g.interval_samples;
  governor["confidence_z"] = g.confidence_z;
  governor["breaker_threshold"] = options.breaker_threshold;
  governor["pessimistic"] = options.strategy.pessimistic;
  out["governor"] = std::move(governor);
  return out;
}

obs::JsonValue AdpllJson(const AdpllStats& stats) {
  obs::JsonValue out = obs::JsonValue::Object();
  out["calls"] = stats.calls;
  out["branches"] = stats.branches;
  out["direct_evals"] = stats.direct_evals;
  out["component_splits"] = stats.component_splits;
  out["star_evals"] = stats.star_evals;
  return out;
}

obs::JsonValue RoundJson(const RoundLog& log) {
  obs::JsonValue out = obs::JsonValue::Object();
  out["round"] = log.round;
  out["tasks"] = log.tasks;
  out["seconds"] = log.seconds;
  out["select_seconds"] = log.select_seconds;
  out["update_seconds"] = log.update_seconds;
  out["attempts"] = log.attempts;
  out["answered"] = log.answered;
  out["unanswered"] = log.unanswered;
  out["cost_refunded"] = log.cost_refunded;
  out["backoff_sim_seconds"] = log.backoff_seconds;
  out["round_sim_seconds"] = log.simulated_seconds;
  out["abandoned"] = log.abandoned;
  return out;
}

}  // namespace

obs::JsonValue RunTelemetryJson(const std::string& name,
                                const BayesCrowdOptions& options,
                                const BayesCrowdResult& result) {
  obs::JsonValue payload = obs::JsonValue::Object();
  payload["options"] = OptionsJson(options);

  obs::JsonValue res = obs::JsonValue::Object();
  obs::JsonValue objects = obs::JsonValue::Array();
  for (const std::size_t id : result.result_objects) objects.Append(id);
  res["result_objects"] = std::move(objects);
  obs::JsonValue probabilities = obs::JsonValue::Array();
  for (const double p : result.probabilities) probabilities.Append(p);
  res["probabilities"] = std::move(probabilities);
  res["tasks_posted"] = result.tasks_posted;
  res["rounds"] = result.rounds;
  res["cost_spent"] = result.cost_spent;
  res["extra_votes"] = result.extra_votes;
  res["stopped_confident"] = result.stopped_confident;
  res["degraded"] = result.degraded;
  res["resumed"] = result.resumed;
  res["initial_true"] = result.initial_true;
  res["initial_false"] = result.initial_false;
  res["initial_undecided"] = result.initial_undecided;
  res["modeling_seconds"] = result.modeling_seconds;
  res["crowdsourcing_seconds"] = result.crowdsourcing_seconds;
  res["select_seconds"] = result.select_seconds;
  res["update_seconds"] = result.update_seconds;
  res["platform_wall_seconds"] = result.platform_wall_seconds;
  res["export_seconds"] = result.export_seconds;
  res["answer_seconds"] = result.answer_seconds;
  res["total_seconds"] = result.total_seconds;
  payload["result"] = std::move(res);

  payload["attribution"] =
      AttributionJson(result.metrics, result.answer_seconds);

  const obs::MetricsSnapshot& m = result.metrics;
  payload["adpll"] = AdpllJson(result.adpll);

  // Governed-solver outcome. Tier counts and intervals are
  // deterministic under node/component budgets; `deadline_hits` is the
  // one wall-clock-dependent count (always 0 without a deadline) and is
  // normalized away with the other timing fields.
  obs::JsonValue solver = obs::JsonValue::Object();
  solver["budget_exhausted"] = m.CounterValue("solver.budget_exhausted");
  solver["deadline_hits"] = m.CounterValue("solver.deadline_hits");
  solver["tier_exact"] = m.CounterValue("solver.ladder_tier.exact");
  solver["tier_partial"] = m.CounterValue("solver.ladder_tier.partial");
  solver["tier_sampled"] = m.CounterValue("solver.ladder_tier.sampled");
  solver["tier_unknown"] = m.CounterValue("solver.ladder_tier.unknown");
  solver["breaker_trips"] = result.breaker_trips;
  solver["breaker_skips"] = result.breaker_skips;
  obs::JsonValue degraded = obs::JsonValue::Array();
  for (const std::size_t id : result.degraded_objects) degraded.Append(id);
  solver["degraded_objects"] = std::move(degraded);
  obs::JsonValue intervals = obs::JsonValue::Array();
  for (const ProbInterval& interval : result.probability_intervals) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry["lo"] = interval.lo;
    entry["hi"] = interval.hi;
    entry["quality"] = ProbQualityToString(interval.quality);
    intervals.Append(std::move(entry));
  }
  solver["intervals"] = std::move(intervals);
  payload["solver"] = std::move(solver);

  // Recovery totals. Simulated clocks (backoff/platform time) are
  // deterministic given the fault seed, unlike the wall-clock fields.
  obs::JsonValue recovery = obs::JsonValue::Object();
  recovery["tasks_unanswered"] = result.tasks_unanswered;
  recovery["retries"] = result.retries;
  recovery["transient_failures"] = result.transient_failures;
  recovery["rounds_abandoned"] = result.rounds_abandoned;
  recovery["cost_refunded"] = result.cost_refunded;
  recovery["backoff_sim_seconds"] = result.backoff_seconds;
  recovery["platform_sim_seconds"] = result.simulated_seconds;
  payload["recovery"] = std::move(recovery);

  obs::JsonValue rounds = obs::JsonValue::Array();
  for (const RoundLog& log : result.round_logs) {
    rounds.Append(RoundJson(log));
  }
  payload["rounds"] = std::move(rounds);

  obs::JsonValue lanes = obs::JsonValue::Array();
  for (std::size_t lane = 0; lane < result.lane_usage.size(); ++lane) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry["lane"] = lane;
    entry["tasks"] = result.lane_usage[lane].tasks;
    entry["busy_seconds"] = result.lane_usage[lane].busy_seconds;
    lanes.Append(std::move(entry));
  }
  payload["lanes"] = std::move(lanes);

  payload["metrics"] = result.metrics.ToJson();

  return obs::TelemetryEnvelope("run", name, std::move(payload));
}

Status WriteRunTelemetry(const std::string& name,
                         const BayesCrowdOptions& options,
                         const BayesCrowdResult& result,
                         const std::string& path) {
  return obs::WriteJsonFile(RunTelemetryJson(name, options, result),
                            path);
}

}  // namespace bayescrowd

#include "core/report.h"

#include "common/string_util.h"

namespace bayescrowd {

std::string FormatRunReport(const BayesCrowdResult& result,
                            const Table& table,
                            const ReportOptions& options) {
  std::string out;
  out += StrFormat(
      "BayesCrowd run: %zu objects -> %zu answers\n",
      table.num_objects(), result.result_objects.size());
  out += StrFormat(
      "  modeling: %zu certain-in, %zu certain-out, %zu undecided "
      "(%.1f ms)\n",
      result.initial_true, result.initial_false, result.initial_undecided,
      result.modeling_seconds * 1e3);
  out += StrFormat(
      "  crowdsourcing: %zu tasks over %zu rounds, cost %.2f (%.1f ms)%s%s\n",
      result.tasks_posted, result.rounds, result.cost_spent,
      result.crowdsourcing_seconds * 1e3,
      result.stopped_confident ? ", stopped confident" : "",
      result.degraded ? ", degraded (platform stopped answering)" : "");
  if (result.transient_failures > 0 || result.tasks_unanswered > 0 ||
      result.rounds_abandoned > 0) {
    out += StrFormat(
        "    recovery: %zu transient failure(s), %zu retrie(s), %zu "
        "round(s) abandoned, %zu task(s) unanswered, %.2f refunded, "
        "%.1f s simulated backoff\n",
        result.transient_failures, result.retries, result.rounds_abandoned,
        result.tasks_unanswered, result.cost_refunded,
        result.backoff_seconds);
  }
  out += StrFormat("    select %.1f ms, update %.1f ms\n",
                   result.select_seconds * 1e3, result.update_seconds * 1e3);
  out += StrFormat(
      "    adpll: %llu calls, %llu branches, %llu direct evals, "
      "%llu component splits, %llu star evals\n",
      static_cast<unsigned long long>(result.adpll.calls),
      static_cast<unsigned long long>(result.adpll.branches),
      static_cast<unsigned long long>(result.adpll.direct_evals),
      static_cast<unsigned long long>(result.adpll.component_splits),
      static_cast<unsigned long long>(result.adpll.star_evals));
  const auto solver = [&result](const char* name) {
    return static_cast<unsigned long long>(
        result.metrics.CounterValue(std::string("solver.") + name));
  };
  if (solver("budget_exhausted") > 0 || solver("deadline_hits") > 0 ||
      solver("ladder_tier.partial") > 0 || solver("ladder_tier.sampled") > 0 ||
      solver("ladder_tier.unknown") > 0 || !result.degraded_objects.empty()) {
    out += StrFormat(
        "    solver: %llu budget exhaustion(s), %llu deadline hit(s); "
        "tiers exact/partial/sampled/unknown = %llu/%llu/%llu/%llu; "
        "%zu object(s) degraded\n",
        solver("budget_exhausted"), solver("deadline_hits"),
        solver("ladder_tier.exact"), solver("ladder_tier.partial"),
        solver("ladder_tier.sampled"), solver("ladder_tier.unknown"),
        result.degraded_objects.size());
  }
  if (result.breaker_trips > 0 || result.breaker_skips > 0) {
    out += StrFormat(
        "    breaker: %zu object breaker(s) opened, %zu re-solve(s) "
        "skipped\n",
        result.breaker_trips, result.breaker_skips);
  }
  if (!result.lane_usage.empty()) {
    std::uint64_t lane_tasks = 0;
    double busy = 0.0;
    for (const ThreadPool::LaneStats& lane : result.lane_usage) {
      lane_tasks += lane.tasks;
      busy += lane.busy_seconds;
    }
    out += StrFormat(
        "    pool: %zu lane(s), %llu work item(s), %.1f ms busy\n",
        result.lane_usage.size(),
        static_cast<unsigned long long>(lane_tasks), busy * 1e3);
  }
  out += StrFormat("  total machine time: %.1f ms\n",
                   result.total_seconds * 1e3);

  if (options.show_metrics) {
    out += "  metrics:\n";
    const std::string text = result.metrics.ToText();
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      out += "    " + text.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }

  if (options.show_rounds) {
    for (const RoundLog& log : result.round_logs) {
      out += StrFormat(
          "    round %zu: %zu task(s), select %.1f ms + update %.1f ms\n",
          log.round, log.tasks, log.select_seconds * 1e3,
          log.update_seconds * 1e3);
    }
  }

  out += "  answers:\n";
  std::size_t listed = 0;
  for (std::size_t id : result.result_objects) {
    if (options.max_objects != 0 && listed >= options.max_objects) {
      out += StrFormat("    ... and %zu more\n",
                       result.result_objects.size() - listed);
      break;
    }
    // Non-exact answers show their sound interval and ProbQuality
    // grade; exact ones print as before.
    std::string grade;
    if (id < result.probability_intervals.size() &&
        !result.probability_intervals[id].exact()) {
      const ProbInterval& interval = result.probability_intervals[id];
      grade = StrFormat(" in [%.3f, %.3f] (%s)", interval.lo, interval.hi,
                        ProbQualityToString(interval.quality));
    }
    out += StrFormat("    %-24s Pr=%.3f%s\n", table.object_name(id).c_str(),
                     result.probabilities[id], grade.c_str());
    ++listed;
  }

  if (options.show_conditions) {
    out += "  final conditions:\n";
    for (std::size_t i = 0; i < table.num_objects(); ++i) {
      const Condition& cond = result.final_ctable.condition(i);
      if (cond.IsFalse()) continue;
      out += StrFormat("    phi(%s) = %s\n",
                       table.object_name(i).c_str(),
                       cond.ToString(table).c_str());
    }
  }
  return out;
}

}  // namespace bayescrowd

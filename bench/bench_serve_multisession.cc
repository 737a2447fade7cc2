// Serving-layer throughput: N resident sessions interleaved round by
// round on one shared worker pool, swept over the session count.
//
// Each configuration admits N single-tenant sessions over independent
// NBA-like workloads, then drains them with fair round-robin sweeps,
// timing every individual session-round Advance. Reported per series:
// aggregate rounds/sec across the whole drain, plus the p50/p95 of the
// per-round latency distribution — the number a multi-tenant operator
// actually provisions against. Because the manager serializes stepping
// work on its work mutex (sessions share the pool; parallelism lives in
// the pool's lanes), rounds/sec should stay roughly flat as sessions
// are added while per-round tail latency grows with queueing — this
// bench pins that shape.
//
// Writes BENCH_serve_multisession.json (one row per session count) via
// the shared artifact schema.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/missing.h"
#include "serve/manager.h"

namespace bayescrowd::bench {
namespace {

serve::SessionSpec MakeSpec(std::size_t index) {
  serve::SessionSpec spec;
  spec.id = StrFormat("s%zu", index);
  spec.tenant = StrFormat("tenant%zu", index);
  spec.ground_truth = MakeNbaLike(120, 9 + index);
  Rng rng(5);
  spec.incomplete = InjectMissingUniform(spec.ground_truth, 0.15, rng);
  spec.options.ctable.alpha = 0.01;
  spec.options.budget = 24;
  spec.options.latency = 4;
  spec.options.strategy.m = 5;
  return spec;
}

double PercentileMs(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

void BM_ServeMultisession(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));

  std::size_t total_rounds = 0;
  double advance_seconds = 0.0;
  std::vector<double> round_ms;
  for (auto _ : state) {
    serve::SessionManager::Options options;
    options.threads = 4;
    options.max_resident_sessions = 16;
    serve::SessionManager manager(options);
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < sessions; ++i) {
      serve::SessionSpec spec = MakeSpec(i);
      ids.push_back(spec.id);
      BAYESCROWD_CHECK_OK(manager.Create(std::move(spec)));
    }

    total_rounds = 0;
    advance_seconds = 0.0;
    round_ms.clear();
    std::vector<bool> done(sessions, false);
    bool active = true;
    while (active) {
      active = false;
      for (std::size_t i = 0; i < sessions; ++i) {
        if (done[i]) continue;
        const auto start = std::chrono::steady_clock::now();
        auto advanced = manager.Advance(ids[i], 1);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        BAYESCROWD_CHECK_OK(advanced.status());
        advance_seconds += elapsed.count();
        if (advanced.value().rounds_run > 0) {
          total_rounds += advanced.value().rounds_run;
          round_ms.push_back(1e3 * elapsed.count());
        }
        done[i] = advanced.value().done;
        active = active || !done[i];
      }
    }
    for (const std::string& id : ids) {
      BAYESCROWD_CHECK_OK(manager.Finish(id).status());
    }
  }

  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["total_rounds"] = static_cast<double>(total_rounds);
  state.counters["advance_seconds"] = advance_seconds;
  state.counters["rounds_per_sec"] =
      advance_seconds == 0.0
          ? 0.0
          : static_cast<double>(total_rounds) / advance_seconds;
  state.counters["p50_round_ms"] = PercentileMs(round_ms, 0.50);
  state.counters["p95_round_ms"] = PercentileMs(round_ms, 0.95);
}

BENCHMARK(BM_ServeMultisession)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bayescrowd::bench

BC_BENCH_MAIN("serve_multisession")

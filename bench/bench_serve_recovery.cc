// Crash-only serving costs: mass recovery — how long a restarted server
// takes to replay the manifest and resume 1/4/8/16 resident sessions
// from their newest checkpoints, and how quickly the first recovered
// session advances again (restart-to-first-progress, the
// operator-facing MTTR number). Stepping verbs journal nothing (the
// manifest records only create/finish/evict/quarantine), so there is no
// per-round journaling tax to price.
//
// Writes BENCH_serve_recovery.json via the shared artifact schema: one
// row per session count.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/missing.h"
#include "serve/manager.h"
#include "serve/manifest.h"

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

std::string FreshStateDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

serve::SessionManager::Options ServerOptions(const std::string& state_dir) {
  serve::SessionManager::Options options;
  options.threads = 4;
  options.max_resident_sessions = 32;
  options.state_dir = state_dir;
  return options;
}

/// The resolver a real server implements by re-parsing the journaled
/// create request; here specs are reproducible from the session index.
serve::SessionManager::SpecResolver IndexResolver() {
  return [](const serve::ManifestEvent& event)
             -> Result<serve::SessionSpec> {
    int index = 0;
    if (!ParseInt(event.session_id.substr(1), &index) || index < 0) {
      return Status::InvalidArgument("unexpected bench session id '" +
                                     event.session_id + "'");
    }
    return MakeSpec(static_cast<std::size_t>(index));
  };
}

/// Restart-after-crash: N sessions were resident, each 3 rounds in with
/// per-round checkpoints, when the process died. Timed region: build a
/// fresh manager, Recover() the whole set, then advance one round —
/// wall-clock to full residency and to first post-restart progress.
void BM_ServeRecovery(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));

  double recover_seconds = 0.0;
  double first_advance_seconds = 0.0;
  std::size_t resumed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string state_dir = FreshStateDir(
        StrFormat("bc_bench_recovery_%zu", sessions));
    {
      serve::SessionManager manager(ServerOptions(state_dir));
      for (std::size_t i = 0; i < sessions; ++i) {
        serve::SessionSpec spec = MakeSpec(i);
        spec.checkpoint_dir = state_dir + "/ckpt";
        spec.options.checkpoint_every = 1;
        const std::string id = spec.id;
        BAYESCROWD_CHECK_OK(manager.Create(std::move(spec)));
        BAYESCROWD_CHECK_OK(manager.Advance(id, 3).status());
      }
    }  // Dropped cold: the crash.
    state.ResumeTiming();

    const auto restart = std::chrono::steady_clock::now();
    serve::SessionManager recovered(ServerOptions(state_dir));
    auto report = recovered.Recover(IndexResolver());
    BAYESCROWD_CHECK_OK(report.status());
    const std::chrono::duration<double> recover_elapsed =
        std::chrono::steady_clock::now() - restart;
    auto advanced = recovered.Advance("s0", 1);
    BAYESCROWD_CHECK_OK(advanced.status());
    const std::chrono::duration<double> first_advance_elapsed =
        std::chrono::steady_clock::now() - restart;

    recover_seconds = recover_elapsed.count();
    first_advance_seconds = first_advance_elapsed.count();
    resumed = report->sessions_resumed;
  }

  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["sessions_resumed"] = static_cast<double>(resumed);
  state.counters["recover_seconds"] = recover_seconds;
  state.counters["first_advance_seconds"] = first_advance_seconds;
  state.counters["recover_per_session_ms"] =
      sessions == 0 ? 0.0
                    : 1e3 * recover_seconds /
                          static_cast<double>(sessions);
}

BENCHMARK(BM_ServeRecovery)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bayescrowd::bench

BC_BENCH_MAIN("serve_recovery")

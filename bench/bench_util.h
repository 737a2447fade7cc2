// Shared plumbing for the benchmark harness.
//
// Every figure/table of the paper's evaluation section has its own
// binary (bench_fig2_* ... bench_table6_*). They share dataset
// construction, the preprocessing pipeline, and a scale knob:
// BAYESCROWD_BENCH_SCALE (default 1.0) multiplies dataset cardinalities
// so the suite stays tractable on small machines. Paper-scale runs:
//   BAYESCROWD_BENCH_SCALE=1 -> NBA 10,000 x 11 (paper scale)
//                               Synthetic 20,000 x 9 (paper: 100,000;
//                               set the scale to 5 to match).

#ifndef BAYESCROWD_BENCH_BENCH_UTIL_H_
#define BAYESCROWD_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "bayesnet/network.h"
#include "core/framework.h"
#include "data/table.h"
#include "obs/telemetry.h"

namespace bayescrowd::bench {

/// BAYESCROWD_BENCH_SCALE env var (default 1.0, clamped to [0.01, 100]).
double ScaleFactor();

/// Scaled dataset cardinalities.
std::size_t NbaCardinality();        // 10,000 * scale
std::size_t SyntheticCardinality();  // 20,000 * scale

/// Lazily-built complete datasets, cached per process.
const Table& NbaComplete();
const Table& SyntheticComplete();

/// Incomplete view of `complete` at `missing_rate` (deterministic seed
/// derived from the rate and `salt`; vary `salt` to average runs over
/// independent missing-cell draws).
Table WithMissingRate(const Table& complete, double missing_rate,
                      std::uint64_t salt = 0);

/// A Bayesian network learned (structure + parameters) from
/// `incomplete`, cached per (dataset pointer, missing-rate) — the
/// preprocessing step of BayesCrowd.
const BayesianNetwork& LearnedNetwork(const Table& incomplete,
                                      const std::string& key);

/// One full BayesCrowd run against a simulated crowd plus its F1 versus
/// the complete-data skyline.
struct PipelineOutcome {
  double machine_seconds = 0.0;
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  double f1 = 0.0;
};
PipelineOutcome RunPipeline(const Table& complete, const Table& incomplete,
                            const BayesianNetwork& network,
                            const BayesCrowdOptions& options,
                            double worker_accuracy = 1.0,
                            std::uint64_t platform_seed = 99);

/// The complete-data skyline of `complete` (cached per table pointer).
const std::vector<std::size_t>& GroundTruthSkyline(const Table& complete);

/// Paper-default BayesCrowd options for each dataset (Section 7:
/// NBA: alpha=0.003, B=50, m=15, L=5;
/// Synthetic: alpha=0.01, B=1000, m=50, L=10 — budget scaled with the
/// dataset).
BayesCrowdOptions NbaDefaults();
BayesCrowdOptions SyntheticDefaults();

/// Accumulates one JSON row per measured configuration and writes them
/// as BENCH_<name>.json (telemetry envelope) from the benchmark's
/// main(). Rows survive across benchmark repetitions; a bench binary
/// keeps one collector at namespace scope, appends from the benchmark
/// body, and calls Write() after RunSpecifiedBenchmarks().
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name) : name_(std::move(name)) {}

  void AddRow(obs::JsonValue row) { rows_.push_back(std::move(row)); }

  /// Appends a row in the shared artifact schema every bench binary
  /// emits: {"name", "config": {"scale", ...}, "metrics": {...},
  /// "wall_ms"}. `config` may be a null JsonValue; the scale knob is
  /// always stamped in.
  void AddRun(const std::string& run_name, double wall_ms,
              obs::JsonValue metrics,
              obs::JsonValue config = obs::JsonValue());

  /// Writes BENCH_<name>.json into the working directory. Returns
  /// false (after printing to stderr) on I/O failure.
  bool Write();

 private:
  std::string name_;
  std::vector<obs::JsonValue> rows_;
};

/// Drop-in replacement for BENCHMARK_MAIN() that additionally tees
/// every google-benchmark run into a BenchArtifact (one shared-schema
/// row per run, counters under "metrics") and writes BENCH_<name>.json
/// after RunSpecifiedBenchmarks(). Use via BC_BENCH_MAIN("name").
int BenchmarkMainWithArtifact(const std::string& name, int argc,
                              char** argv);

#define BC_BENCH_MAIN(name)                                          \
  int main(int argc, char** argv) {                                  \
    return bayescrowd::bench::BenchmarkMainWithArtifact(name, argc,  \
                                                        argv);       \
  }

}  // namespace bayescrowd::bench

#endif  // BAYESCROWD_BENCH_BENCH_UTIL_H_

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "bayesnet/structure_learning.h"
#include "common/random.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace bayescrowd::bench {

double ScaleFactor() {
  static const double scale = [] {
    const char* env = std::getenv("BAYESCROWD_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return std::clamp(v > 0.0 ? v : 1.0, 0.01, 100.0);
  }();
  return scale;
}

std::size_t NbaCardinality() {
  return static_cast<std::size_t>(10000.0 * ScaleFactor());
}

std::size_t SyntheticCardinality() {
  return static_cast<std::size_t>(20000.0 * ScaleFactor());
}

const Table& NbaComplete() {
  static const Table* table =
      new Table(MakeNbaLike(NbaCardinality(), /*seed=*/1979));
  return *table;
}

const Table& SyntheticComplete() {
  static const Table* table =
      new Table(MakeAdultLike(SyntheticCardinality(), /*seed=*/1996));
  return *table;
}

Table WithMissingRate(const Table& complete, double missing_rate,
                      std::uint64_t salt) {
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(missing_rate * 1e6) ^
          (salt * 0x9E3779B97F4A7C15ULL));
  return InjectMissingUniform(complete, missing_rate, rng);
}

const BayesianNetwork& LearnedNetwork(const Table& incomplete,
                                      const std::string& key) {
  static auto* cache =
      new std::map<std::string, std::unique_ptr<BayesianNetwork>>();
  const auto it = cache->find(key);
  if (it != cache->end()) return *it->second;

  StructureLearningOptions options;
  options.max_parents = 2;
  auto dag = HillClimbStructure(incomplete, options);
  BAYESCROWD_CHECK_OK(dag.status());
  auto net = BayesianNetwork::Create(incomplete.schema(), dag.value());
  BAYESCROWD_CHECK_OK(net.status());
  BAYESCROWD_CHECK_OK(net->FitParameters(incomplete));
  auto owned = std::make_unique<BayesianNetwork>(std::move(net).value());
  const BayesianNetwork& ref = *owned;
  cache->emplace(key, std::move(owned));
  return ref;
}

namespace {

// Content fingerprint so the skyline cache can never alias two distinct
// tables that happen to share an address.
std::uint64_t TableFingerprint(const Table& table) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ table.num_objects();
  h = h * 1099511628211ULL ^ table.num_attributes();
  const std::size_t n = table.num_objects();
  const std::size_t d = table.num_attributes();
  const std::size_t stride = std::max<std::size_t>(1, n / 64);
  for (std::size_t i = 0; i < n; i += stride) {
    for (std::size_t j = 0; j < d; ++j) {
      h = h * 1099511628211ULL ^
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(table.At(i, j)));
    }
  }
  return h;
}

}  // namespace

const std::vector<std::size_t>& GroundTruthSkyline(const Table& complete) {
  static auto* cache =
      new std::map<std::uint64_t, std::vector<std::size_t>>();
  const std::uint64_t key = TableFingerprint(complete);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  auto skyline = SkylineSfs(complete);
  BAYESCROWD_CHECK_OK(skyline.status());
  return cache->emplace(key, std::move(skyline).value()).first->second;
}

PipelineOutcome RunPipeline(const Table& complete, const Table& incomplete,
                            const BayesianNetwork& network,
                            const BayesCrowdOptions& options,
                            double worker_accuracy,
                            std::uint64_t platform_seed) {
  BayesCrowd framework(options);
  BnPosteriorProvider posteriors(network, incomplete);
  SimulatedPlatformOptions platform_options;
  platform_options.worker_accuracy = worker_accuracy;
  platform_options.seed = platform_seed;
  SimulatedCrowdPlatform platform(complete, platform_options);

  auto result = framework.Run(incomplete, posteriors, platform);
  BAYESCROWD_CHECK_OK(result.status());

  PipelineOutcome outcome;
  outcome.machine_seconds = result->total_seconds;
  outcome.tasks = result->tasks_posted;
  outcome.rounds = result->rounds;
  outcome.f1 = EvaluateResultSet(result->result_objects,
                                 GroundTruthSkyline(complete))
                   .f1;
  return outcome;
}

BayesCrowdOptions NbaDefaults() {
  BayesCrowdOptions options;
  options.ctable.alpha = 0.003;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 15;
  options.budget = 50;
  options.latency = 5;
  return options;
}

BayesCrowdOptions SyntheticDefaults() {
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 50;
  // Paper: budget 1000 at 100k records; keep the per-record rate when
  // the dataset is scaled down.
  options.budget = std::max<std::size_t>(
      50, SyntheticCardinality() / 100);
  options.latency = 10;
  return options;
}

void BenchArtifact::AddRun(const std::string& run_name, double wall_ms,
                           obs::JsonValue metrics, obs::JsonValue config) {
  obs::JsonValue row = obs::JsonValue::Object();
  row["name"] = run_name;
  if (config.is_null()) config = obs::JsonValue::Object();
  config["scale"] = ScaleFactor();
  row["config"] = std::move(config);
  row["metrics"] = std::move(metrics);
  row["wall_ms"] = wall_ms;
  rows_.push_back(std::move(row));
}

bool BenchArtifact::Write() {
  obs::JsonValue payload = obs::JsonValue::Array();
  for (obs::JsonValue& row : rows_) payload.Append(std::move(row));
  rows_.clear();
  const Status st = obs::WriteBenchArtifact(name_, std::move(payload));
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write BENCH_%s.json: %s\n",
                 name_.c_str(), st.ToString().c_str());
    return false;
  }
  std::printf("wrote BENCH_%s.json\n", name_.c_str());
  return true;
}

namespace {

// Tees every finished run into the artifact while still printing the
// normal console table.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  explicit ArtifactReporter(BenchArtifact* artifact)
      : artifact_(artifact) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      obs::JsonValue metrics = obs::JsonValue::Object();
      for (const auto& [key, counter] : run.counters) {
        metrics[key] = static_cast<double>(counter);
      }
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      artifact_->AddRun(run.benchmark_name(),
                        1e3 * run.real_accumulated_time / iterations,
                        std::move(metrics));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchArtifact* artifact_;
};

}  // namespace

int BenchmarkMainWithArtifact(const std::string& name, int argc,
                              char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchArtifact artifact(name);
  ArtifactReporter reporter(&artifact);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return artifact.Write() ? 0 : 1;
}

}  // namespace bayescrowd::bench

// perfbench: the end-to-end benchmark of BayesCrowd.
//
//   perfbench --workload adult-hhs|nba-stream|serve-ckpt --seed N
//             --seconds S --trace 0|1 [--smoke] --tmp DIR [--trace-out F]
//
// One client thread drives closed-loop queries through the public API
// (QueryRunner Init/Step/Finish, or serve::SessionManager verbs) on a
// 4-lane pool. The workload's query schedule (one "pass") runs on fresh
// inputs each pass, generated from --seed and the pass number. A run
// makes a fixed number of passes, --seconds divided by the workload's
// nominal pass time, so it measures the same work on any host and a
// seed always gives the same inputs. Set-up (data, missing cells,
// network learning, ground-truth skyline) is timed on its own. Counters
// come from the first pass; timings use every pass. A reduced-size copy
// of the workload is then run at 1 and 4 lanes, and the two must answer
// identically.
//
// Human-readable metric lines go to stdout; the last line is one JSON
// object (metrics, digests, call accounting) that run.py turns into the
// benchmark's result line. See README.md for workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "bayesnet/network.h"
#include "bayesnet/structure_learning.h"
#include "common/thread_pool.h"
#include "core/runner.h"
#include "core/session.h"
#include "ctable/builder.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/evaluator.h"
#include "probes.h"
#include "serve/manager.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace perfbench {
namespace {

constexpr std::size_t kLanes = 4;
// Adult-like query size: the paper-scale budget per row (B=1000 at 50k
// rows) on 20k rows, so every one of the L=10 rounds posts a full batch.
constexpr std::size_t kAdultRows = 20000;
constexpr std::size_t kAdultBudget = 400;
constexpr std::size_t kServeRows = 1500;
constexpr std::size_t kMaxPasses = 1000;
constexpr std::size_t kMaxStepsPerQuery = 100000;
// A query answering below this F1 against the complete-data skyline is
// broken, not merely imprecise (every workload uses an accurate crowd).
constexpr double kMinF1 = 0.5;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string tmp_dir;
  std::string trace_out;
};

// ------------------------------------------------------------------ //
// Error accounting: every public call's Status is counted, never fatal.
// ------------------------------------------------------------------ //

class Calls {
 public:
  bool Check(const Status& status, const char* call) {
    Entry& entry = entries_[call];
    ++entry.attempted;
    if (status.ok()) return true;
    ++entry.failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", call,
                 status.ToString().c_str());
    return false;
  }
  template <typename T>
  bool Check(const Result<T>& result, const char* call) {
    return Check(result.status(), call);
  }

  /// A correctness check; a false `ok` is a failed operation.
  void Verify(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    ++checks_failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }

  std::uint64_t calls_attempted() const { return Sum(&Entry::attempted); }
  std::uint64_t calls_failed() const { return Sum(&Entry::failed); }
  std::uint64_t attempted() const { return calls_attempted() + checks_; }
  std::uint64_t failed() const { return calls_failed() + checks_failed_; }
  double error_rate() const {
    const std::uint64_t n = calls_attempted();
    return n == 0 ? 0.0 : static_cast<double>(calls_failed()) /
                              static_cast<double>(n);
  }

  std::string FailedCallsJson() const {
    std::string out = "{";
    for (const auto& [name, entry] : entries_) {
      if (entry.failed == 0) continue;
      if (out.size() > 1) out += ",";
      out += "\"" + name + "\":" + std::to_string(entry.failed);
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::uint64_t Sum(std::uint64_t Entry::*field) const {
    std::uint64_t total = 0;
    for (const auto& [name, entry] : entries_) total += entry.*field;
    return total;
  }

  std::map<std::string, Entry> entries_;
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// What every workload function is handed.
struct Probe {
  Tracer& tracer;
  LayerTally& tally;
  Calls& calls;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------------ //
// Workload plans.
// ------------------------------------------------------------------ //

enum class Dataset { kNba, kAdult };

/// A fixed complete table (the dataset) and a seed-drawn 10% of its
/// cells deleted, the paper's protocol for making incomplete data.
struct InstanceSpec {
  Dataset dataset = Dataset::kNba;
  std::size_t rows = 0;
  std::uint64_t data_seed = 0;
  std::uint64_t missing_seed = 0;
};

struct QuerySpec {
  std::string label;
  std::size_t instance = 0;
  std::size_t wave = 0;  // serve-ckpt only.
  BayesCrowdOptions options;
};

struct Plan {
  bool serve = false;
  // Query seconds of one pass on a 4-core x86 host; sets the pass count.
  double nominal_pass_s = 1.0;
  std::size_t waves = 0;
  std::vector<InstanceSpec> instances;
  std::vector<QuerySpec> queries;
};

BayesCrowdOptions QueryOptions(StrategyKind kind, double alpha,
                               std::size_t budget, std::size_t latency,
                               std::size_t m) {
  BayesCrowdOptions options;
  options.ctable.alpha = alpha;
  options.strategy.kind = kind;
  options.strategy.m = m;
  options.budget = budget;
  options.latency = latency;
  return options;
}

/// Seed of the missing cells of instance `k` in pass `pass`.
std::uint64_t MissingSeed(std::uint64_t seed, std::size_t pass,
                          std::size_t k) {
  return (seed * 1000003 + pass) * 64 + k;
}

bool MakePlan(const std::string& workload, std::uint64_t seed,
              std::size_t pass, bool smoke, Plan* plan) {
  if (workload == "adult-hhs") {
    plan->nominal_pass_s = 3.0;
    plan->instances.push_back({Dataset::kAdult, smoke ? 3000u : kAdultRows,
                               1996, MissingSeed(seed, pass, 0)});
    plan->queries.push_back(
        {"hhs", 0, 0,
         QueryOptions(StrategyKind::kHhs, 0.01, kAdultBudget, 10, 50)});
    return true;
  }
  if (workload == "nba-stream") {
    plan->nominal_pass_s = 9.0;
    const std::size_t cycles = smoke ? 1 : 16;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::string cycle = "c" + std::to_string(c);
      plan->instances.push_back({Dataset::kNba, smoke ? 1500u : 10000u,
                                 1979 + c, MissingSeed(seed, pass, c)});
      plan->queries.push_back(
          {cycle + ".fbs", c, 0,
           QueryOptions(StrategyKind::kFbs, 0.003, 500, 50, 15)});
      plan->queries.push_back(
          {cycle + ".ubs", c, 0,
           QueryOptions(StrategyKind::kUbs, 0.003, 300, 30, 15)});
      plan->queries.push_back(
          {cycle + ".hhs", c, 0,
           QueryOptions(StrategyKind::kHhs, 0.003, 200, 5, 15)});
    }
    return true;
  }
  if (workload == "serve-ckpt") {
    plan->serve = true;
    plan->nominal_pass_s = 3.7;
    plan->waves = smoke ? 1 : 3;
    for (std::size_t t = 0; t < 2; ++t) {
      plan->instances.push_back({Dataset::kNba, smoke ? 400u : kServeRows,
                                 7 + t, MissingSeed(seed, pass, t)});
    }
    const std::size_t budgets[] = {60, 80, 100};
    for (std::size_t w = 0; w < plan->waves; ++w) {
      for (std::size_t t = 0; t < 2; ++t) {
        const std::string prefix =
            "w" + std::to_string(w) + "-t" + std::to_string(t);
        plan->queries.push_back(
            {prefix + "-hhs", t, w,
             QueryOptions(StrategyKind::kHhs, 0.01, budgets[w], 10, 10)});
        plan->queries.push_back(
            {prefix + "-fbs", t, w,
             QueryOptions(StrategyKind::kFbs, 0.01, budgets[w], 10, 15)});
      }
    }
    return true;
  }
  return false;
}

// ------------------------------------------------------------------ //
// Set-up: data, missing cells, network, ground truth.
// ------------------------------------------------------------------ //

struct Instance {
  Table complete;
  Table incomplete;
  std::unique_ptr<BayesianNetwork> network;
  std::vector<std::size_t> skyline;
  bool ok = false;
};

struct SetupTimes {
  double total = 0.0;
  double structure = 0.0;
  double fit = 0.0;
};

Instance SetUp(const InstanceSpec& spec, Probe& probe, SetupTimes* times) {
  ScopedSpan span(probe.tracer, "setup");
  Instance inst;
  const double start = Now();
  {
    ScopedSpan generate(probe.tracer, "data.generate");
    inst.complete = spec.dataset == Dataset::kAdult
                        ? MakeAdultLike(spec.rows, spec.data_seed)
                        : MakeNbaLike(spec.rows, spec.data_seed);
    Rng rng(spec.missing_seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL);
    inst.incomplete = InjectMissingUniform(inst.complete, 0.10, rng);
  }
  const double structure_start = Now();
  StructureLearningOptions learning;
  learning.max_parents = 2;
  Result<Dag> dag = [&] {
    ScopedSpan structure(probe.tracer, "bayesnet.structure");
    return HillClimbStructure(inst.incomplete, learning);
  }();
  const double fit_start = Now();
  if (!probe.calls.Check(dag, "HillClimbStructure")) return inst;
  {
    ScopedSpan fit(probe.tracer, "bayesnet.fit");
    Result<BayesianNetwork> network =
        BayesianNetwork::Create(inst.incomplete.schema(), dag.value());
    if (!probe.calls.Check(network, "BayesianNetwork::Create")) return inst;
    inst.network =
        std::make_unique<BayesianNetwork>(std::move(network).value());
    if (!probe.calls.Check(inst.network->FitParameters(inst.incomplete),
                           "FitParameters")) {
      return inst;
    }
  }
  const double fit_end = Now();
  {
    ScopedSpan truth(probe.tracer, "skyline.truth");
    Result<std::vector<std::size_t>> skyline = SkylineSfs(inst.complete);
    if (!probe.calls.Check(skyline, "SkylineSfs")) return inst;
    inst.skyline = std::move(skyline).value();
  }
  times->total = Now() - start;
  times->structure = fit_start - structure_start;
  times->fit = fit_end - fit_start;
  inst.ok = true;
  return inst;
}

// ------------------------------------------------------------------ //
// Queries.
// ------------------------------------------------------------------ //

struct QueryRecord {
  std::string label;
  bool ok = false;
  double query_s = 0.0;
  double first_batch_s = -1.0;  // < 0: no batch was posted.
  // Runner: PostBatch return -> next PostBatch call. Serve: Advance(id, 1).
  std::vector<double> round_gaps_ms;
  double f1 = 0.0;
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  std::uint64_t digest = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t adpll_calls = 0;
  std::uint64_t adpll_branches = 0;
  std::uint64_t compile_builds = 0;
  std::uint64_t compile_reuses = 0;
  std::uint64_t compile_evictions = 0;
  // Traced runs only.
  double init_s = 0.0;
  double step_s = 0.0;
  double step_cpu_s = 0.0;
  double finish_s = 0.0;
};

/// Answer-set digest: the query's label, its sorted result ids and the
/// number of tasks it posted.
std::uint64_t AnswerDigest(const std::string& label,
                           std::vector<std::size_t> ids, std::size_t tasks) {
  std::sort(ids.begin(), ids.end());
  ids.push_back(tasks);
  std::string bytes = label;
  bytes.append(reinterpret_cast<const char*>(ids.data()),
               ids.size() * sizeof(std::size_t));
  return HashBytes(bytes);
}

void RecordAnswer(const BayesCrowdResult& result, const Instance& inst,
                  Calls& calls, QueryRecord* rec) {
  rec->f1 = EvaluateResultSet(result.result_objects, inst.skyline).f1;
  rec->tasks = result.tasks_posted;
  rec->rounds = result.rounds;
  rec->digest =
      AnswerDigest(rec->label, result.result_objects, result.tasks_posted);
  rec->cache_hits = result.cache_hits;
  rec->cache_misses = result.cache_misses;
  rec->adpll_calls = result.adpll.calls;
  rec->adpll_branches = result.adpll.branches;
  rec->compile_builds = result.compile.builds;
  rec->compile_reuses = result.compile.reuses;
  rec->compile_evictions = result.compile.evictions;
  char what[128];
  std::snprintf(what, sizeof(what), "%s: F1 %.3f >= %.2f vs SkylineSfs",
                rec->label.c_str(), rec->f1, kMinF1);
  calls.Verify(rec->f1 >= kMinF1, what);
}

SimulatedPlatformOptions CrowdOptions() {
  SimulatedPlatformOptions options;
  options.worker_accuracy = 1.0;
  return options;
}

QueryRecord RunQuery(const QuerySpec& spec, const Instance& inst,
                     std::size_t lanes, std::int64_t query_id,
                     Probe& probe) {
  QueryRecord rec;
  rec.label = spec.label;
  BayesCrowdOptions options = spec.options;
  options.threads = lanes;
  TimedPosteriors posteriors(
      std::make_unique<BnPosteriorProvider>(*inst.network, inst.incomplete),
      probe.tracer, probe.tally);
  SimulatedCrowdPlatform crowd(inst.complete, CrowdOptions());
  TimedPlatform platform(crowd, probe.tracer, probe.tally);
  QueryRunner runner(options);
  Tracer& tracer = probe.tracer;

  tracer.SetQuery(query_id);
  const std::int64_t span = tracer.Begin("query");
  const double start = Now();
  bool ok = false;
  {
    Busy busy(tracer, "core.init", &rec.init_s);
    ok = probe.calls.Check(
        runner.Init(inst.incomplete, posteriors, platform), "Init");
  }
  for (std::size_t steps = 0; ok && !runner.Done(); ++steps) {
    if (steps == kMaxStepsPerQuery) {
      ok = probe.calls.Check(Status::Internal("query never finished"), "Step");
      break;
    }
    const double cpu = tracer.enabled() ? ProcessCpuSeconds() : 0.0;
    {
      Busy busy(tracer, "core.step", &rec.step_s);
      ok = probe.calls.Check(runner.Step(), "Step");
    }
    if (tracer.enabled()) rec.step_cpu_s += ProcessCpuSeconds() - cpu;
  }
  if (ok) {
    Busy busy(tracer, "core.finish", &rec.finish_s);
    ok = probe.calls.Check(runner.Finish(), "Finish");
  }
  rec.query_s = Now() - start;
  tracer.End(span);

  const auto& posts = platform.posts();
  if (!posts.empty()) rec.first_batch_s = posts.front().first - start;
  for (std::size_t i = 1; i < posts.size(); ++i) {
    rec.round_gaps_ms.push_back(1e3 * (posts[i].first - posts[i - 1].second));
  }
  if (ok) RecordAnswer(runner.result(), inst, probe.calls, &rec);
  rec.ok = ok;
  return rec;
}

struct ServeTally {
  std::vector<double> create_ms;
  std::vector<double> advance_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> finish_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Times one call into `*samples` (ms) under a span.
template <typename F>
auto TimedCall(Tracer& tracer, const char* span, std::vector<double>* samples,
               F&& call) {
  ScopedSpan scoped(tracer, span);
  const double start = Now();
  auto result = call();
  samples->push_back(1e3 * (Now() - start));
  return result;
}

/// One pass of serve-ckpt: per wave, create the wave's sessions, drain
/// them round-robin with Advance(id, 1) + Checkpoint(id), then Finish
/// and Evict each. The manager journals into `state_dir`.
std::vector<QueryRecord> RunServePass(const Plan& plan,
                                      const std::vector<Instance>& tenants,
                                      std::size_t lanes,
                                      const std::string& state_dir,
                                      std::int64_t* next_query_id,
                                      Probe& probe, ServeTally* serve) {
  Tracer& tracer = probe.tracer;
  Calls& calls = probe.calls;
  CountingFileIo io(tracer, probe.tally);
  serve::SessionManager::Options manager_options;
  manager_options.threads = lanes;
  manager_options.state_dir = state_dir;
  manager_options.io = &io;
  serve::SessionManager manager(manager_options);

  // One learned network and one posterior provider per tenant, shared
  // read-only by all of the tenant's sessions.
  std::vector<std::shared_ptr<PosteriorProvider>> posteriors;
  for (const Instance& tenant : tenants) {
    posteriors.push_back(std::make_shared<TimedPosteriors>(
        std::make_unique<BnPosteriorProvider>(*tenant.network,
                                              tenant.incomplete),
        tracer, probe.tally));
  }

  struct Live {
    const QuerySpec* spec = nullptr;
    QueryRecord rec;
    std::int64_t query_id = 0;
    double start = 0.0;
    bool created = false;
    bool done = false;
  };
  std::vector<QueryRecord> records;
  for (std::size_t wave = 0; wave < plan.waves; ++wave) {
    tracer.SetQuery((*next_query_id)++);
    const std::int64_t wave_span = tracer.Begin("serve.wave");
    std::vector<Live> live;
    for (const QuerySpec& spec : plan.queries) {
      if (spec.wave != wave) continue;
      Live& session = live.emplace_back();
      session.spec = &spec;
      session.rec.label = spec.label;
      session.query_id = (*next_query_id)++;
      const Instance& tenant = tenants[spec.instance];
      serve::SessionSpec session_spec;
      session_spec.id = spec.label;
      session_spec.tenant = "t" + std::to_string(spec.instance);
      session_spec.incomplete = tenant.incomplete;
      session_spec.ground_truth = tenant.complete;
      session_spec.platform = CrowdOptions();
      session_spec.options = spec.options;
      session_spec.posteriors = posteriors[spec.instance];
      session_spec.cache_key = "nba";
      session_spec.warm_start = true;
      session_spec.checkpoint_dir = state_dir + "/ckpt";
      tracer.SetQuery(session.query_id);
      session.start = Now();
      session.created = calls.Check(
          TimedCall(tracer, "serve.create", &serve->create_ms,
                    [&] { return manager.Create(std::move(session_spec)); }),
          "Create");
      session.done = !session.created;
    }
    for (bool progress = true; progress;) {
      progress = false;
      for (Live& session : live) {
        if (session.done) continue;
        const std::string& id = session.spec->label;
        tracer.SetQuery(session.query_id);
        const Result<serve::AdvanceOutcome> advanced =
            TimedCall(tracer, "serve.advance", &serve->advance_ms,
                      [&] { return manager.Advance(id, 1); });
        if (!calls.Check(advanced, "Advance")) {
          session.done = true;
          continue;
        }
        session.rec.round_gaps_ms.push_back(serve->advance_ms.back());
        if (session.rec.first_batch_s < 0 && advanced->rounds_run > 0) {
          session.rec.first_batch_s = Now() - session.start;
        }
        calls.Check(TimedCall(tracer, "serve.checkpoint",
                              &serve->checkpoint_ms,
                              [&] { return manager.Checkpoint(id); }),
                    "Checkpoint");
        session.done = advanced->done || advanced->rounds_run == 0;
        progress = true;
      }
    }
    for (Live& session : live) {
      if (!session.created) continue;
      tracer.SetQuery(session.query_id);
      Result<BayesCrowdResult> result =
          TimedCall(tracer, "serve.finish", &serve->finish_ms,
                    [&] { return manager.Finish(session.spec->label); });
      session.rec.query_s = Now() - session.start;
      if (calls.Check(result, "Finish")) {
        session.rec.ok = true;
        RecordAnswer(result.value(), tenants[session.spec->instance], calls,
                     &session.rec);
      }
    }
    for (Live& session : live) {
      if (!session.created) continue;
      tracer.SetQuery(session.query_id);
      ScopedSpan evict(tracer, "serve.evict");
      calls.Check(manager.Evict(session.spec->label), "Evict");
    }
    tracer.End(wave_span);
    for (Live& session : live) records.push_back(std::move(session.rec));
  }
  const serve::SharedQueryCache::Stats stats = manager.cache_stats();
  serve->cache_hits += stats.hits;
  serve->cache_misses += stats.misses;
  return records;
}

// ------------------------------------------------------------------ //
// Passes.
// ------------------------------------------------------------------ //

std::vector<std::uint64_t> Digests(const std::vector<QueryRecord>& queries) {
  std::vector<std::uint64_t> out;
  for (const QueryRecord& q : queries) out.push_back(q.digest);
  return out;
}

/// Runs one pass's queries over its set-up instances.
std::vector<QueryRecord> RunQueries(const Plan& plan,
                                    const std::vector<Instance>& instances,
                                    std::size_t lanes,
                                    const std::string& state_dir,
                                    std::int64_t* next_query_id, Probe& probe,
                                    ServeTally* serve) {
  if (plan.serve) {
    // Sessions need every tenant's network; a failed set-up is counted.
    if (!std::all_of(instances.begin(), instances.end(),
                     [](const Instance& inst) { return inst.ok; })) {
      return {};
    }
    std::error_code ignored;
    std::filesystem::remove_all(state_dir, ignored);
    std::vector<QueryRecord> queries = RunServePass(
        plan, instances, lanes, state_dir, next_query_id, probe, serve);
    std::filesystem::remove_all(state_dir, ignored);
    return queries;
  }
  std::vector<QueryRecord> queries;
  for (const QuerySpec& spec : plan.queries) {
    const Instance& inst = instances[spec.instance];
    if (!inst.ok) continue;
    queries.push_back(RunQuery(spec, inst, lanes, (*next_query_id)++, probe));
  }
  return queries;
}

std::vector<Instance> SetUpAll(const Plan& plan, Probe& probe,
                               std::vector<SetupTimes>* times) {
  std::vector<Instance> instances;
  for (const InstanceSpec& spec : plan.instances) {
    SetupTimes t;
    instances.push_back(SetUp(spec, probe, &t));
    if (times != nullptr && instances.back().ok) times->push_back(t);
  }
  return instances;
}

/// Answers of the reduced-size workload at `lanes` lanes (untraced).
std::vector<std::uint64_t> ReducedDigests(const Config& config,
                                          std::size_t lanes, Calls& calls) {
  Tracer off(false);
  LayerTally tally;
  Probe probe{off, tally, calls};
  Plan plan;
  MakePlan(config.workload, config.seed, /*pass=*/0, /*smoke=*/true, &plan);
  const std::vector<Instance> instances = SetUpAll(plan, probe, nullptr);
  std::int64_t ids = 1;
  ServeTally serve;
  return Digests(RunQueries(plan, instances, lanes,
                            config.tmp_dir + "/lanes-" + std::to_string(lanes),
                            &ids, probe, &serve));
}

// ------------------------------------------------------------------ //
// Probes of single layers on the same inputs (traced runs only).
// ------------------------------------------------------------------ //

struct LayerProbe {
  double build_s = 0.0;
  double evaluate_all_s = 0.0;
  std::size_t undecided = 0;
  std::size_t variables = 0;
};

/// BuildCTable on the query's input, then EvaluateAllIntervals over the
/// initial c-table with a cold evaluator on a `lanes`-lane pool.
LayerProbe ProbeLayers(const Instance& inst, const BayesCrowdOptions& options,
                       std::size_t lanes, Probe& probe) {
  LayerProbe out;
  ScopedSpan span(probe.tracer, "probe");
  double start = Now();
  Result<CTable> ctable = [&] {
    ScopedSpan build(probe.tracer, "probe.ctable.build");
    return BuildCTable(inst.incomplete, options.ctable);
  }();
  out.build_s = Now() - start;
  if (!probe.calls.Check(ctable, "BuildCTable")) return out;
  out.undecided = ctable->NumUndecided();
  BnPosteriorProvider posteriors(*inst.network, inst.incomplete);
  ProbabilityEvaluator evaluator(options.probability);
  const std::vector<CellRef> variables = ctable->AllVariables();
  out.variables = variables.size();
  for (const CellRef& var : variables) {
    Result<std::vector<double>> dist = posteriors.Posterior(var);
    if (!probe.calls.Check(dist, "Posterior") ||
        !probe.calls.Check(
            evaluator.SetDistribution(var, std::move(dist).value()),
            "SetDistribution")) {
      return out;
    }
  }
  ThreadPool pool(lanes);
  evaluator.set_thread_pool(&pool);
  start = Now();
  Result<std::vector<ProbInterval>> all = [&] {
    ScopedSpan evaluate(probe.tracer, "probe.evaluate_all");
    return evaluator.EvaluateAllIntervals(*ctable, ctable->UndecidedObjects());
  }();
  out.evaluate_all_s = Now() - start;
  probe.calls.Check(all, "EvaluateAllIntervals");
  return out;
}

// ------------------------------------------------------------------ //
// Statistics and output.
// ------------------------------------------------------------------ //

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// p90 when at least ten samples lie beyond it; with fewer than 100
/// samples, the highest percentile that still has ten beyond it (the
/// 11th-largest sample), and the maximum when n <= 10. Labeled with the
/// percentile it is.
std::pair<double, std::string> Tail(std::vector<double> v) {
  if (v.empty()) return {0.0, "none"};
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) return {v.back(), "max"};
  const std::size_t rank = std::min(  // 1-based nearest rank.
      v.size() - 10,
      static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(v.size()))));
  char label[32];
  std::snprintf(label, sizeof(label), "p%.1f",
                100.0 * static_cast<double>(rank) /
                    static_cast<double>(v.size()));
  return {v[rank - 1], label};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  return out + "}";
}

/// Self time of every span (duration minus its children's), the
/// per-layer summary over query roots, and the sum check.
struct LayerRow {
  std::size_t calls = 0;
  double total = 0.0;
  double self = 0.0;
};

struct SpanSummary {
  std::map<std::string, LayerRow> layers;  // Spans under query roots.
  double root_wall = 0.0;                  // Sum of query-root durations.
  double unattributed = 0.0;               // Sum of query-root self times.
  double self_sum = 0.0;                   // All self times under roots.
};

bool IsQueryRoot(const Span& s) {
  return s.parent == 0 && (s.name == "query" || s.name == "serve.wave");
}

SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  SpanSummary out;
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::int64_t> root(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent != 0) {
      const auto p = static_cast<std::size_t>(s.parent - 1);
      child[p] += s.end - s.start;
      root[i] = root[p];  // Parents precede children.
    } else {
      root[i] = s.id;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!IsQueryRoot(spans[static_cast<std::size_t>(root[i] - 1)])) continue;
    const double self = (s.end - s.start) - child[i];
    out.self_sum += self;
    if (s.parent == 0) {
      out.root_wall += s.end - s.start;
      out.unattributed += self;
      continue;
    }
    LayerRow& row = out.layers[s.name];
    ++row.calls;
    row.total += s.end - s.start;
    row.self += self;
  }
  return out;
}

void PrintLayerSummary(const SpanSummary& summary) {
  std::printf("per-layer summary (spans under query roots, all passes)\n");
  std::printf("  %-22s %9s %12s %12s %8s\n", "layer", "calls", "total_s",
              "self_s", "share");
  for (const auto& [name, row] : summary.layers) {
    std::printf("  %-22s %9zu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                row.calls, row.total, row.self,
                100.0 * Ratio(row.self, summary.root_wall));
  }
  std::printf("  %-22s %9s %12s %12.6f %7.2f%%\n", "unattributed", "", "",
              summary.unattributed,
              100.0 * Ratio(summary.unattributed, summary.root_wall));
  std::printf("  %-22s %9s %12s %12.6f %7.2f%%\n", "query wall", "", "",
              summary.root_wall, 100.0);
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config->smoke = true;
    } else if (arg == "--workload" && has_value) {
      config->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tmp" && has_value) {
      config->tmp_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      config->trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete flag %s\n",
                   arg.c_str());
      return false;
    }
  }
  return !config->tmp_dir.empty() && !(config->trace && config->trace_out.empty());
}

int Main(int argc, char** argv) {
  Config config;
  Plan plan;
  if (!ParseArgs(argc, argv, &config) ||
      !MakePlan(config.workload, config.seed, 0, config.smoke, &plan)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload adult-hhs|nba-stream|serve-ckpt "
                 "--seed N --seconds S --trace 0|1 --tmp DIR "
                 "[--trace-out FILE] [--smoke]\n");
    return 2;
  }
  Tracer tracer(config.trace);
  LayerTally tally;
  Calls calls;
  Probe probe{tracer, tally, calls};

  // Measurement: passes on fresh inputs. Pass 1's counters and answer
  // digests are the ones reported and compared.
  const std::size_t num_passes = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(config.seconds / plan.nominal_pass_s)),
      1, kMaxPasses);
  std::vector<SetupTimes> setups;
  std::vector<std::vector<QueryRecord>> passes;
  std::vector<LayerProbe> probes;
  LayerProbe first_probe;  // Summed over pass 1's queries.
  LayerTally first_tally;
  ServeTally serve;
  std::int64_t next_query_id = 1;
  double measured_s = 0.0;
  do {
    if (!passes.empty()) {
      plan = Plan{};
      MakePlan(config.workload, config.seed, passes.size(), config.smoke,
               &plan);
    }
    const std::vector<Instance> instances = SetUpAll(plan, probe, &setups);
    if (config.trace && passes.empty()) {
      // Single-layer probes on pass 1's inputs, one per instance.
      probes.resize(instances.size());
      std::vector<bool> probed(instances.size(), false);
      for (const QuerySpec& spec : plan.queries) {
        if (probed[spec.instance] || !instances[spec.instance].ok) continue;
        probed[spec.instance] = true;
        probes[spec.instance] =
            ProbeLayers(instances[spec.instance], spec.options, kLanes, probe);
      }
      for (const QuerySpec& spec : plan.queries) {
        const LayerProbe& lp = probes[spec.instance];
        first_probe.build_s += lp.build_s;
        first_probe.evaluate_all_s += lp.evaluate_all_s;
        first_probe.undecided += lp.undecided;
        first_probe.variables += lp.variables;
      }
    }
    const double start = Now();
    passes.push_back(RunQueries(plan, instances, kLanes,
                                config.tmp_dir + "/state", &next_query_id,
                                probe, &serve));
    measured_s += Now() - start;
    if (passes.size() == 1) {
      first_tally = tally;
      calls.Verify(passes.front().size() == plan.queries.size(),
                   "every planned query answered");
    }
  } while (passes.size() < num_passes);

  const std::vector<std::uint64_t> digests = Digests(passes.front());
  const std::vector<std::uint64_t> lanes1 = ReducedDigests(config, 1, calls);
  const std::vector<std::uint64_t> lanes4 =
      ReducedDigests(config, kLanes, calls);
  calls.Verify(!lanes1.empty() && lanes1 == lanes4,
               "reduced-size answers identical at 1 and 4 lanes");

  // ---- End-to-end metrics (untraced runs report these).
  std::vector<double> query_s, first_batch_s, gaps_ms;
  std::size_t answered = 0;
  for (const std::vector<QueryRecord>& pass : passes) {
    for (const QueryRecord& q : pass) {
      if (!q.ok) continue;
      ++answered;
      query_s.push_back(q.query_s);
      if (q.first_batch_s >= 0) first_batch_s.push_back(q.first_batch_s);
      gaps_ms.insert(gaps_ms.end(), q.round_gaps_ms.begin(),
                     q.round_gaps_ms.end());
    }
  }
  const std::vector<QueryRecord>& first = passes.front();
  double f1_sum = 0.0;
  std::size_t tasks = 0, rounds = 0;
  std::uint64_t hits = 0, misses = 0, adpll_calls = 0, branches = 0,
                builds = 0, reuses = 0, evictions = 0;
  for (const QueryRecord& q : first) {
    f1_sum += q.f1;
    tasks += q.tasks;
    rounds += q.rounds;
    hits += q.cache_hits;
    misses += q.cache_misses;
    adpll_calls += q.adpll_calls;
    branches += q.adpll_branches;
    builds += q.compile_builds;
    reuses += q.compile_reuses;
    evictions += q.compile_evictions;
  }
  std::vector<double> setup_s, structure_s, fit_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total);
    structure_s.push_back(t.structure);
    fit_s.push_back(t.fit);
  }
  const auto [gap_tail, gap_tail_label] = Tail(gaps_ms);
  const double n_passes = static_cast<double>(passes.size());
  auto count = [](std::size_t n) { return "(n=" + std::to_string(n) + ")"; };

  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s", "median of " + count(setup_s.size())},
      {"query_s.p50", Median(query_s), "s", count(query_s.size())},
      {"first_batch_s.p50", Median(first_batch_s), "s",
       count(first_batch_s.size())},
      {"round_gap_ms.p50", Median(gaps_ms), "ms", count(gaps_ms.size())},
      {"round_gap_ms.tail", gap_tail, "ms",
       gap_tail_label + " " + count(gaps_ms.size())},
      {"throughput_qpm", Ratio(static_cast<double>(answered), measured_s / 60.0),
       "1/min", count(answered) + " in " + std::to_string(measured_s) + " s"},
      {"f1.mean", Ratio(f1_sum, static_cast<double>(first.size())),
       "ratio", "pass 1 " + count(first.size())},
      {"tasks_posted", static_cast<double>(tasks), "count", "pass 1"},
  };

  // ---- Per-layer metrics (traced runs report these).
  const SpanSummary spans = SummarizeSpans(tracer.spans());
  auto self_of = [&](const char* layer) {
    const auto it = spans.layers.find(layer);
    return it == spans.layers.end() ? 0.0 : it->second.self / n_passes;
  };
  double init_s = 0.0, step_s = 0.0, step_cpu_s = 0.0, finish_s = 0.0;
  for (const std::vector<QueryRecord>& pass : passes) {
    for (const QueryRecord& q : pass) {
      init_s += q.init_s;
      step_s += q.step_s;
      step_cpu_s += q.step_cpu_s;
      finish_s += q.finish_s;
    }
  }
  const auto [advance_tail, advance_tail_label] = Tail(serve.advance_ms);
  // Counts are pass 1's (they repeat exactly for a seed); busy times are
  // means per pass over every pass.
  const LayerTally& t1 = first_tally;
  auto pass1 = [](std::uint64_t n) { return static_cast<double>(n); };
  const double bytes = pass1(t1.bytes_written);
  const std::vector<Metric> per_layer = {
      {"peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB",
       "process peak"},
      {"bayesnet.structure_s", Median(structure_s), "s", "median set-up"},
      {"bayesnet.fit_s", Median(fit_s), "s", "median set-up"},
      {"bayesnet.posterior_s", tally.posterior_s / n_passes, "s",
       "per pass"},
      {"bayesnet.posterior_calls", pass1(t1.posterior_calls), "count",
       "pass 1"},
      {"bayesnet.posterior_us_per_call",
       1e6 * Ratio(tally.posterior_s, pass1(tally.posterior_calls)), "us",
       "all passes"},
      {"ctable.build_s", first_probe.build_s, "s", "probe, pass 1"},
      {"ctable.undecided", pass1(first_probe.undecided), "count",
       "probe, pass 1"},
      {"ctable.variables", pass1(first_probe.variables), "count",
       "probe, pass 1"},
      {"core.init_s", init_s / n_passes, "s", "per pass"},
      {"core.init_self_s", self_of("core.init"), "s",
       "init minus posterior, per pass"},
      {"core.step_s", step_s / n_passes, "s", "per pass"},
      {"core.step_self_s", self_of("core.step"), "s",
       "step minus PostBatch, per pass"},
      {"core.step_cpu_per_wall", Ratio(step_cpu_s, step_s), "ratio",
       "process CPU / wall in Step"},
      {"core.finish_s", finish_s / n_passes, "s", "per pass"},
      {"core.rounds", pass1(rounds), "count", "pass 1"},
      {"probability.evaluate_all_s", first_probe.evaluate_all_s, "s",
       "probe, pass 1"},
      {"probability.cache_hit_ratio", Ratio(pass1(hits), pass1(hits + misses)),
       "ratio", "pass 1"},
      {"probability.adpll_calls", pass1(adpll_calls), "count", "pass 1"},
      {"probability.adpll_branches", pass1(branches), "count", "pass 1"},
      {"probability.compile_builds", pass1(builds), "count", "pass 1"},
      {"probability.compile_reuse_ratio", Ratio(pass1(reuses), pass1(builds)),
       "ratio", "reuses/builds, pass 1"},
      {"probability.compile_evictions", pass1(evictions), "count", "pass 1"},
      {"crowd.post_s", tally.post_s / n_passes, "s", "per pass"},
      {"crowd.batches", pass1(t1.post_batches), "count", "pass 1"},
      {"crowd.tasks", pass1(t1.post_tasks), "count", "pass 1"},
      {"serve.create_ms", Median(serve.create_ms), "ms",
       count(serve.create_ms.size())},
      {"serve.advance_ms", Median(serve.advance_ms), "ms",
       count(serve.advance_ms.size())},
      {"serve.advance_ms.tail", advance_tail, "ms", advance_tail_label},
      {"serve.checkpoint_ms", Median(serve.checkpoint_ms), "ms",
       count(serve.checkpoint_ms.size())},
      {"serve.finish_ms", Median(serve.finish_ms), "ms",
       count(serve.finish_ms.size())},
      {"serve.cache_hit_ratio",
       Ratio(pass1(serve.cache_hits),
             pass1(serve.cache_hits + serve.cache_misses)),
       "ratio", "shared-cache warm starts"},
      {"fileio.bytes_written", bytes, "bytes", "pass 1"},
      {"fileio.bytes_per_task", Ratio(bytes, pass1(tasks)), "bytes",
       "durable bytes per answered task, pass 1"},
      {"fileio.durable_writes", pass1(t1.durable_writes), "count", "pass 1"},
      {"fileio.appends", pass1(t1.appends), "count", "pass 1"},
      {"fileio.syncs", pass1(t1.syncs), "count", "pass 1"},
      {"fileio.write_s", tally.write_s / n_passes, "s", "per pass"},
      {"trace.query_s.p50", Median(query_s), "s", "traced"},
      {"error_rate", calls.error_rate(), "ratio",
       std::to_string(calls.calls_failed()) + "/" +
           std::to_string(calls.calls_attempted()) + " calls"},
  };

  std::printf("perfbench %s seed %llu (%s, %zu lanes, %s): %zu pass(es), "
              "%zu queries in %.3f s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.smoke ? "smoke scale" : "full scale", kLanes,
              config.trace ? "traced" : "untraced", passes.size(), answered,
              measured_s);
  PrintMetrics("end-to-end", end_to_end);
  std::printf("  %-32s %16.6g %-6s %s\n", "error_rate", calls.error_rate(),
              "ratio", per_layer.back().note.c_str());
  if (config.trace) {
    PrintMetrics("per-layer", per_layer);
    PrintLayerSummary(spans);
    const double drift = std::fabs(spans.self_sum - spans.root_wall);
    calls.Verify(drift <= 1e-6 * std::max(1.0, spans.root_wall),
                 "per-layer self times + unattributed sum to query wall");
    std::printf("  self times + unattributed = %.6f s, query wall = %.6f s\n",
                spans.self_sum, spans.root_wall);
    calls.Verify(tracer.WriteChromeTrace(config.trace_out),
                 "trace file written");
  }

  std::string digest_json = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s\"%016llx\"", i == 0 ? "" : ",",
                  static_cast<unsigned long long>(digests[i]));
    digest_json += buf;
  }
  digest_json += "]";
  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), per_layer.begin(), per_layer.end());
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"failed_calls\":%s,\"digests\":%s,\"metrics\":%s}\n",
      calls.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(calls.attempted()),
      static_cast<unsigned long long>(calls.failed()),
      calls.FailedCallsJson().c_str(), digest_json.c_str(),
      MetricsJson(all).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

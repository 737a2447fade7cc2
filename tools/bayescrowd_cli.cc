// bayescrowd_cli: command-line front end for the library.
//
//   bayescrowd_cli generate --dataset nba --n 1000 --out complete.csv
//   bayescrowd_cli inject --in complete.csv --rate 0.1 --out holes.csv
//   bayescrowd_cli skyline --in complete.csv
//   bayescrowd_cli ctable --data holes.csv --alpha 0.01
//   bayescrowd_cli run --data holes.csv --truth complete.csv
//       --strategy hhs --budget 50 --latency 5 [--accuracy 0.95]
//   bayescrowd_cli run --data holes.csv --interactive
//
// `run` executes the full BayesCrowd pipeline. With --truth the crowd is
// simulated from the complete table (and F1 is reported); with
// --interactive *you* are the crowd, answering on stdin.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "bayesnet/imputation.h"
#include "bayesnet/network.h"
#include "bayesnet/serialization.h"
#include "bayesnet/structure_learning.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/framework.h"
#include "core/inspect.h"
#include "core/report.h"
#include "core/session.h"
#include "core/telemetry.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/normalize.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "crowd/fault_injection.h"
#include "crowd/interactive.h"
#include "crowd/marketplace.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "ctable/builder.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace bayescrowd {
namespace {

/// One documented default for every data-shaping seed (`generate
/// --seed`, `inject --seed`). Historically generate used 42 and inject
/// used 7; unified so a pipeline built from defaults is reproducible
/// from a single number. The `run --seed` default (99) is a separate
/// knob — it seeds the simulated workers, not the data.
constexpr int kDefaultDataSeed = 42;

/// Every integer flag, with the least value it accepts. Main rejects a
/// non-numeric or too-small value before any command runs: a negative
/// count would otherwise wrap around when cast to size_t, and a typo
/// would silently become the default. `hint` (may be empty) follows the
/// bound in the diagnostic.
struct IntFlagRule {
  const char* name;
  int min;
  const char* hint;
};
constexpr IntFlagRule kIntFlags[] = {
    {"n", 1, ""},
    {"d", 1, ""},
    {"levels", 2, ""},
    {"seed", 0, ""},
    {"budget", 0, ""},
    {"latency", 1, ""},
    {"tasks-per-round", 1, ""},
    {"m", 0, ""},
    {"max-retries", 0, ""},
    {"threads", 0, " (0 = hardware concurrency)"},
    {"solver-node-budget", 1, " (omit the flag for unlimited)"},
    {"solver-component-budget", 1, " (omit the flag for unlimited)"},
    {"solver-deadline-ms", 1, " (omit the flag for no deadline)"},
    {"breaker-threshold", 0, " (0 disables the breaker)"},
    {"compile-node-budget", 1, " (use --compile off to disable compilation)"},
    {"marketplace", 3, " (the worker pool size)"},
    {"adaptive-votes", 0, ""},
    {"fault-seed", 0, ""},
    {"keep-checkpoints", 1, ""},
    {"checkpoint-every", 1, ""},
};

/// Every floating-point flag; Main rejects a non-numeric value. Range
/// checks that depend on the command stay with the command.
constexpr const char* kDoubleFlags[] = {
    "rate",      "alpha",      "round-deadline", "accuracy",
    "spam-rate", "fault-rate", "answer-noise",   "threshold",
};

/// The one-line diagnostic for a malformed numeric flag, or "" when
/// `value` is acceptable (or `name` is not a numeric flag).
std::string NumericFlagError(const std::string& name,
                             const std::string& value) {
  for (const IntFlagRule& rule : kIntFlags) {
    if (name != rule.name) continue;
    int v = 0;
    if (ParseInt(value, &v) && v >= rule.min) return "";
    return StrFormat("--%s must be an integer >= %d%s, got '%s'",
                     rule.name, rule.min, rule.hint, value.c_str());
  }
  for (const char* double_flag : kDoubleFlags) {
    if (name != double_flag) continue;
    double v = 0.0;
    if (ParseDouble(value, &v)) return "";
    return StrFormat("--%s must be a number, got '%s'", double_flag,
                     value.c_str());
  }
  return "";
}

/// Parsed `--key value` / `--key=value` / `--flag` arguments. Numeric
/// values were validated by NumericFlagError, so the typed getters
/// never see a malformed one.
struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    double v = fallback;
    ParseDouble(it->second, &v);
    return v;
  }
  int GetInt(const std::string& key, int fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    int v = fallback;
    ParseInt(it->second, &v);
    return v;
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: bayescrowd_cli <command> [flags]\n"
      "  generate --dataset nba|adult|indep|corr|anti --n N --out F\n"
      "           [--seed S (default 42)] [--d D] [--levels L]\n"
      "  inject   --in F --out F (--rate R | --attrs i,j,...)\n"
      "           [--seed S (default 42)]\n"
      "  skyline  --in F\n"
      "  ctable   --data F [--alpha A]\n"
      "  run      --data F (--truth F | --interactive)\n"
      "           [--strategy fbs|ubs|hhs] [--budget B] [--latency L]\n"
      "           [--alpha A] [--m M] [--accuracy P] [--seed S]\n"
      "           [--threads N] [--no-cache]\n"
      "           [--structure hillclimb|chowliu|none]\n"
      "           [--save-model F] [--load-model F]\n"
      "           [--record F] [--replay-from F] [--tasks-per-round K]\n"
      "           [--marketplace N] [--spam-rate R] [--adaptive-votes K]\n"
      "           [--no-defense]\n"
      "           [--fault-rate R] [--fault-seed S] [--answer-noise R]\n"
      "           [--max-retries N] [--round-deadline D]\n"
      "           [--checkpoint-dir D] [--checkpoint-every N]\n"
      "           [--keep-checkpoints N] [--resume]\n"
      "           [--solver-node-budget N] [--solver-component-budget N]\n"
      "           [--solver-deadline-ms N]\n"
      "           [--solver-ladder full|interval|sample|strict]\n"
      "           [--breaker-threshold N] [--pessimistic]\n"
      "           [--compile off|auto] [--compile-node-budget N]\n"
      "           [--verbose]\n"
      "           [--metrics-out F] [--trace-out F] [--telemetry-out F]\n"
      "           [--session S] [--flight-out F]\n"
      "           [--metrics-prom F] [--metrics-stream F]\n"
      "  inspect  --run T [--flight F]\n"
      "  inspect  --run A --diff B [--threshold R]\n"
      "  jsoncheck --in F\n"
      "  normalize --in F [--out F] [--strip-lanes] [--strip-resume]\n"
      "  (pause/resume: run --interactive --record log --tasks-per-round K,\n"
      "   stop anytime; rerun with --replay-from log and the same K and\n"
      "   data to continue where you left off)\n"
      "  --marketplace: simulate an adversarial worker marketplace of N\n"
      "  (>= 3) seeded workers with churn instead of the flat --accuracy\n"
      "  mixture; --spam-rate is the adversarial (spammer/colluder)\n"
      "  fraction of arrivals; --adaptive-votes K buys up to K votes per\n"
      "  task (3 base + confidence-gated extras, charged at 1/3 task\n"
      "  cost each); --no-defense disables joint quality inference,\n"
      "  quarantine and weighted voting (the flat-majority baseline)\n"
      "  --fault-rate: inject crowd faults (timeouts, abstains, partial\n"
      "  batches, transient errors) at this rate, deterministically from\n"
      "  --fault-seed; --answer-noise makes three virtual workers re-vote\n"
      "  each answer, each wrong with that probability; --max-retries and\n"
      "  --round-deadline (simulated seconds) bound the recovery effort\n"
      "  per round\n"
      "  --checkpoint-dir: crash safety. Writes a checksummed snapshot\n"
      "  every --checkpoint-every rounds (default 1, keep last\n"
      "  --keep-checkpoints, default 3) plus a durable answer log. After\n"
      "  a kill, rerun the same command with --resume to continue from\n"
      "  the newest intact snapshot (corrupt ones fall back a\n"
      "  generation; the answer-log tail replays on top)\n"
      "  --solver-node-budget / --solver-component-budget: deterministic\n"
      "  per-evaluation ADPLL budgets; on exhaustion the solver walks the\n"
      "  --solver-ladder (full: partial bound, then sampling; interval:\n"
      "  stop at the sound bound; sample: jump straight to sampling;\n"
      "  strict: fail the run). --solver-deadline-ms adds a wall-clock\n"
      "  cap that only degrades, never changes exact answers.\n"
      "  --breaker-threshold: open a per-object circuit breaker after\n"
      "  this many consecutive degraded solves (0 disables);\n"
      "  --pessimistic ranks on the most-uncertain point of each\n"
      "  interval instead of its midpoint\n"
      "  --compile: knowledge-compile a condition into a reusable\n"
      "  arithmetic circuit on its second exact ADPLL solve; later rounds\n"
      "  replay it bit-identically instead of re-solving (auto, the\n"
      "  default: whenever the configuration is eligible; off: never).\n"
      "  --compile-node-budget caps circuit size; oversized conditions\n"
      "  fall back to the governed solver ladder\n"
      "  normalize: strip machine-dependent fields (wall-clock times,\n"
      "  deadline hits; optionally lane usage and resume markers) from a\n"
      "  telemetry/metrics JSON so two runs diff byte-for-byte\n"
      "  global: --log-level debug|info|warning|error|off\n"
      "  --metrics-out: counters/gauges/histograms as JSON;\n"
      "  --trace-out: Chrome trace-event JSON (chrome://tracing, Perfetto);\n"
      "  --telemetry-out: full machine-readable run document\n"
      "  --session: label value stamped on every cost.* metric (default\n"
      "  s0); --flight-out: flight-recorder JSONL, written even when the\n"
      "  run fails; --metrics-prom: Prometheus scrape file rewritten each\n"
      "  round; --metrics-stream: one snapshot JSON line per round\n"
      "  inspect: renders per-phase / per-tier / per-round cost\n"
      "  breakdowns from a --telemetry-out file (--flight adds the\n"
      "  incident timeline); with --diff it compares two telemetry files\n"
      "  and exits 1 when any deterministic metric drifts beyond\n"
      "  --threshold (default 0.02, relative)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(const Flags& flags) {
  const std::string kind = flags.Get("dataset", "nba");
  const auto n = static_cast<std::size_t>(flags.GetInt("n", 1000));
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", kDefaultDataSeed));
  const auto d = static_cast<std::size_t>(flags.GetInt("d", 6));
  const auto levels = static_cast<Level>(flags.GetInt("levels", 10));
  Table table;
  if (kind == "nba") {
    table = MakeNbaLike(n, seed);
  } else if (kind == "adult") {
    table = MakeAdultLike(n, seed);
  } else if (kind == "indep") {
    table = MakeIndependent(n, d, levels, seed);
  } else if (kind == "corr") {
    table = MakeCorrelated(n, d, levels, seed);
  } else if (kind == "anti") {
    table = MakeAnticorrelated(n, d, levels, seed);
  } else {
    std::fprintf(stderr, "unknown --dataset '%s'\n", kind.c_str());
    return 2;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) return Usage();
  const Status st = SaveTableCsv(table, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu x %zu table to %s\n", table.num_objects(),
              table.num_attributes(), out.c_str());
  return 0;
}

int CmdInject(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("in", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  Table result;
  if (flags.Has("attrs")) {
    std::vector<std::size_t> attrs;
    for (const std::string& part : Split(flags.Get("attrs", ""), ',')) {
      int v = -1;
      if (!ParseInt(part, &v) || v < 0) {
        std::fprintf(stderr, "bad --attrs entry '%s'\n", part.c_str());
        return 2;
      }
      attrs.push_back(static_cast<std::size_t>(v));
    }
    result = InjectMissingAttributes(*loaded, attrs);
  } else {
    Rng rng(
        static_cast<std::uint64_t>(flags.GetInt("seed", kDefaultDataSeed)));
    result =
        InjectMissingUniform(*loaded, flags.GetDouble("rate", 0.1), rng);
  }
  const Status st = SaveTableCsv(result, flags.Get("out", ""));
  if (!st.ok()) return Fail(st);
  std::printf("wrote table with missing rate %.3f\n", result.MissingRate());
  return 0;
}

int CmdSkyline(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("in", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  auto skyline = SkylineSfs(*loaded);
  if (!skyline.ok()) return Fail(skyline.status());
  std::printf("skyline (%zu objects):\n", skyline->size());
  for (std::size_t id : skyline.value()) {
    std::printf("  %s\n", loaded->object_name(id).c_str());
  }
  return 0;
}

int CmdCTable(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("data", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  CTableOptions options;
  options.alpha = flags.GetDouble("alpha", 0.01);
  auto ctable = BuildCTable(*loaded, options);
  if (!ctable.ok()) return Fail(ctable.status());
  std::printf("c-table: %zu true, %zu false, %zu undecided\n",
              ctable->NumTrue(), ctable->NumFalse(),
              ctable->NumUndecided());
  for (std::size_t i = 0; i < loaded->num_objects(); ++i) {
    const Condition& cond = ctable->condition(i);
    if (cond.IsFalse()) continue;  // Keep the dump readable.
    std::printf("  phi(%s) = %s\n", loaded->object_name(i).c_str(),
                cond.ToString(*loaded).c_str());
  }
  return 0;
}

int CmdJsonCheck(const Flags& flags) {
  const std::string path = flags.Get("in", "");
  if (path.empty()) {
    std::fprintf(stderr, "jsoncheck needs --in <file>\n");
    return 2;
  }
  const auto parsed = obs::ReadJsonFile(path);
  if (!parsed.ok()) return Fail(parsed.status());
  std::printf("%s: valid JSON\n", path.c_str());
  return 0;
}

int CmdNormalize(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "normalize needs --in <file>\n");
    return 2;
  }
  const auto parsed = obs::ReadJsonFile(in);
  if (!parsed.ok()) return Fail(parsed.status());
  obs::NormalizeOptions norm;
  norm.strip_lane_usage = flags.Has("strip-lanes");
  norm.strip_resume_markers = flags.Has("strip-resume");
  const obs::JsonValue normalized = obs::NormalizeTelemetry(*parsed, norm);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::printf("%s\n", normalized.Dump(2).c_str());
    return 0;
  }
  const Status st = obs::WriteJsonFile(normalized, out);
  if (!st.ok()) return Fail(st);
  return 0;
}

int CmdRun(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("data", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  const Table& incomplete = *loaded;

  // Tracing must be live before the run so modeling / per-round /
  // ADPLL spans record; the file is written after the pipeline (the
  // pool joins inside Run, so every lane's buffer is flushed by then).
  const std::string trace_out = flags.Get("trace-out", "");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  // Preprocessing: Bayesian network from the incomplete data (or a
  // previously saved model via --load-model).
  const std::string structure = flags.Get("structure", "hillclimb");
  std::unique_ptr<PosteriorProvider> posteriors;
  BayesianNetwork network;
  if (flags.Has("load-model")) {
    auto net = LoadNetwork(flags.Get("load-model", ""));
    if (!net.ok()) return Fail(net.status());
    if (!(net->schema() == incomplete.schema())) {
      return Fail(Status::InvalidArgument(
          "loaded model schema does not match the data"));
    }
    network = std::move(net).value();
    posteriors =
        std::make_unique<BnPosteriorProvider>(network, incomplete);
  } else if (structure == "none") {
    posteriors =
        std::make_unique<UniformPosteriorProvider>(incomplete.schema());
  } else {
    auto dag = structure == "chowliu"
                   ? ChowLiuStructure(incomplete)
                   : HillClimbStructure(incomplete);
    if (!dag.ok()) return Fail(dag.status());
    auto net = BayesianNetwork::Create(incomplete.schema(), dag.value());
    if (!net.ok()) return Fail(net.status());
    const Status fit = net->FitParameters(incomplete);
    if (!fit.ok()) return Fail(fit);
    network = std::move(net).value();
    posteriors =
        std::make_unique<BnPosteriorProvider>(network, incomplete);
    if (flags.Has("save-model")) {
      const Status saved =
          SaveNetwork(network, flags.Get("save-model", ""));
      if (!saved.ok()) return Fail(saved);
    }
  }

  BayesCrowdOptions options;
  obs::MetricsRegistry run_metrics;
  options.metrics = &run_metrics;
  options.ctable.alpha = flags.GetDouble("alpha", 0.01);
  options.budget = static_cast<std::size_t>(flags.GetInt("budget", 50));
  options.latency = static_cast<std::size_t>(flags.GetInt("latency", 5));
  if (flags.Has("tasks-per-round")) {
    // Fixes the batch size directly; required to stay constant across a
    // --record / --replay-from pause-resume pair, because task selection
    // adapts to the answers of each batch.
    const auto per_round = static_cast<std::size_t>(
        flags.GetInt("tasks-per-round", 5));
    options.latency =
        std::max<std::size_t>(1, (options.budget + per_round - 1) /
                                      per_round);
  }
  options.strategy.m = static_cast<std::size_t>(flags.GetInt("m", 15));
  // Recovery policy: --max-retries counts retries after the first
  // attempt; --round-deadline is in simulated seconds (see DESIGN.md §8).
  options.retry.max_attempts =
      static_cast<std::size_t>(flags.GetInt("max-retries", 2)) + 1;
  options.retry.round_deadline_seconds =
      flags.GetDouble("round-deadline", 0.0);
  // Evaluation lanes: 0 (default) resolves to the hardware concurrency.
  options.threads = static_cast<std::size_t>(flags.GetInt("threads", 0));
  if (flags.Has("no-cache")) options.probability.memoize = false;

  // Cost-attribution session label. It lands verbatim inside canonical
  // series keys and Prometheus label values, so keep it to a safe
  // charset instead of escaping it everywhere downstream.
  options.session = flags.Get("session", "s0");
  if (options.session.empty() ||
      options.session.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyz"
          "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
          "0123456789._-") != std::string::npos) {
    std::fprintf(stderr,
                 "--session must be non-empty [A-Za-z0-9._-] (it becomes "
                 "a metric label value)\n");
    return 2;
  }

  // Resource governor. Explicit budgets are >= 1 (kIntFlags): a zero
  // budget is almost certainly a typo'd attempt at "unlimited" (spelled
  // by omitting the flag), so it is rejected instead of silently
  // disabling the governor.
  GovernorOptions& governor = options.probability.governor;
  governor.max_nodes =
      static_cast<std::uint64_t>(flags.GetInt("solver-node-budget", 0));
  governor.max_components =
      static_cast<std::uint64_t>(flags.GetInt("solver-component-budget", 0));
  governor.deadline_ms = flags.GetInt("solver-deadline-ms", 0);
  if (flags.Has("solver-ladder")) {
    if (!ParseLadderMode(flags.Get("solver-ladder", ""),
                         &governor.ladder)) {
      std::fprintf(stderr,
                   "unknown --solver-ladder '%s' (expected full, "
                   "interval, sample, or strict)\n",
                   flags.Get("solver-ladder", "").c_str());
      return 2;
    }
  }
  options.breaker_threshold =
      static_cast<std::size_t>(flags.GetInt("breaker-threshold", 3));
  if (flags.Has("pessimistic")) options.strategy.pessimistic = true;

  // Knowledge compilation. `auto` (the default) silently skips
  // ineligible configurations (strict ladder, --no-cache).
  CompileOptions& compile = options.probability.compile;
  if (flags.Has("compile")) {
    if (!ParseCompileMode(flags.Get("compile", ""), &compile.mode)) {
      std::fprintf(stderr,
                   "unknown --compile '%s' (expected off or auto)\n",
                   flags.Get("compile", "").c_str());
      return 2;
    }
  }
  if (flags.Has("compile-node-budget")) {
    compile.max_nodes =
        static_cast<std::uint64_t>(flags.GetInt("compile-node-budget", 0));
  }

  const std::string strategy = flags.Get("strategy", "hhs");
  if (strategy == "fbs") {
    options.strategy.kind = StrategyKind::kFbs;
  } else if (strategy == "ubs") {
    options.strategy.kind = StrategyKind::kUbs;
  } else if (strategy == "hhs") {
    options.strategy.kind = StrategyKind::kHhs;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s'\n", strategy.c_str());
    return 2;
  }

  // Adversarial worker marketplace (crowd/marketplace.h): replaces the
  // flat accuracy mixture with an evolving, seeded worker pool.
  const bool use_market = flags.Has("marketplace");
  MarketplaceOptions market_options;
  if (use_market) {
    market_options.pool_size =
        static_cast<std::size_t>(flags.GetInt("marketplace", 12));
    market_options.seed =
        static_cast<std::uint64_t>(flags.GetInt("seed", 99));
    market_options.spam_rate = flags.GetDouble("spam-rate", 0.0);
    if (market_options.spam_rate < 0.0 ||
        market_options.spam_rate > 1.0) {
      std::fprintf(stderr, "--spam-rate must be in [0, 1]\n");
      return 2;
    }
    if (flags.Has("no-defense")) market_options.defend = false;
    if (flags.Has("adaptive-votes")) {
      const int max_votes = flags.GetInt("adaptive-votes", 0);
      if (max_votes < market_options.base_votes) {
        std::fprintf(stderr,
                     "--adaptive-votes must be >= %d (the base vote "
                     "fan-out)\n",
                     market_options.base_votes);
        return 2;
      }
      market_options.max_votes = max_votes;
      options.adaptive.enabled = true;
      options.adaptive.base_votes =
          static_cast<std::size_t>(market_options.base_votes);
      options.adaptive.max_votes = static_cast<std::size_t>(max_votes);
    }
  } else if (flags.Has("spam-rate") || flags.Has("adaptive-votes") ||
             flags.Has("no-defense")) {
    std::fprintf(stderr,
                 "--spam-rate / --adaptive-votes / --no-defense need "
                 "--marketplace\n");
    return 2;
  }

  std::unique_ptr<CrowdPlatform> platform;
  MarketplaceCrowdPlatform* market = nullptr;
  Table truth;
  const bool have_truth = flags.Has("truth");
  if (flags.Has("interactive")) {
    if (use_market) {
      std::fprintf(stderr,
                   "--marketplace cannot be combined with --interactive "
                   "(the marketplace needs --truth)\n");
      return 2;
    }
    platform = std::make_unique<InteractiveCrowdPlatform>(
        incomplete, std::cin, std::cout);
  } else if (have_truth) {
    auto loaded_truth = LoadTableCsv(flags.Get("truth", ""));
    if (!loaded_truth.ok()) return Fail(loaded_truth.status());
    truth = std::move(loaded_truth).value();
    if (use_market) {
      auto owned = std::make_unique<MarketplaceCrowdPlatform>(
          truth, market_options);
      market = owned.get();
      market->BindMetrics(&run_metrics);
      platform = std::move(owned);
    } else {
      SimulatedPlatformOptions platform_options;
      platform_options.worker_accuracy = flags.GetDouble("accuracy", 1.0);
      platform_options.seed =
          static_cast<std::uint64_t>(flags.GetInt("seed", 99));
      platform = std::make_unique<SimulatedCrowdPlatform>(
          truth, platform_options);
    }
  } else {
    std::fprintf(stderr, "run needs --truth <csv> or --interactive\n");
    return 2;
  }

  // Optional deterministic fault injection between the live platform
  // and everything above it, so a recorded faulted session transcribes
  // (and replays) the exact recovery path.
  std::unique_ptr<FaultInjectingPlatform> faulter;
  CrowdPlatform* effective = platform.get();
  const double fault_rate = flags.GetDouble("fault-rate", 0.0);
  const double answer_noise = flags.GetDouble("answer-noise", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.GetInt("fault-seed", 13));
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    std::fprintf(stderr, "--fault-rate must be in [0, 1]\n");
    return 2;
  }
  if (answer_noise < 0.0 || answer_noise > 1.0) {
    std::fprintf(stderr, "--answer-noise must be in [0, 1]\n");
    return 2;
  }
  if (fault_rate > 0.0 || answer_noise > 0.0) {
    FaultOptions fault_options =
        FaultOptions::Profile(fault_rate, fault_seed);
    fault_options.answer_noise = answer_noise;
    faulter = std::make_unique<FaultInjectingPlatform>(*effective,
                                                       fault_options);
    faulter->BindMetrics(&run_metrics);
    effective = faulter.get();
  }

  // Optional pause/resume: --replay-from serves previously bought
  // answers before going live; --record transcribes this session.
  std::unique_ptr<ReplayingPlatform> replayer;
  if (flags.Has("replay-from")) {
    auto log = LoadAnswerLog(flags.Get("replay-from", ""));
    if (!log.ok()) return Fail(log.status());
    replayer = std::make_unique<ReplayingPlatform>(
        std::move(log).value(), effective);  // Live tail stays faulted.
    effective = replayer.get();
  }
  std::unique_ptr<RecordingPlatform> recorder;
  if (flags.Has("record")) {
    recorder = std::make_unique<RecordingPlatform>(*effective);
    effective = recorder.get();
  }

  // Crash-safe sessions: checksummed snapshots plus a durable answer
  // log in --checkpoint-dir; --resume continues from the newest intact
  // pair. Mutually exclusive with the manual --record / --replay-from
  // mechanism above (both would want to own the recorder).
  const std::string checkpoint_dir = flags.Get("checkpoint-dir", "");
  std::unique_ptr<CheckpointStore> ckpt_store;
  std::unique_ptr<FileAnswerLogSink> log_sink;
  std::unique_ptr<SessionCheckpointSink> session_sink;
  std::unique_ptr<RecoveredSession> recovered;
  if (flags.Has("resume") && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
    return 2;
  }
  if (flags.Has("resume") && flags.Has("no-cache")) {
    // A snapshot carries the evaluator's memoized solver state; with
    // the cache disabled that state cannot be restored, so the resumed
    // run would silently diverge from its uninterrupted reference.
    std::fprintf(stderr,
                 "--no-cache cannot be combined with --resume (snapshots "
                 "carry memoized solver state)\n");
    return 2;
  }
  if (!checkpoint_dir.empty()) {
    if (flags.Has("record") || flags.Has("replay-from")) {
      std::fprintf(stderr,
                   "--checkpoint-dir cannot be combined with --record / "
                   "--replay-from; it manages its own answer log\n");
      return 2;
    }
    const int keep = flags.GetInt("keep-checkpoints", 3);
    const int every = flags.GetInt("checkpoint-every", 1);
    // The fingerprint binds a checkpoint to the query it belongs to:
    // behavior-relevant options, dataset bytes, and the platform setup
    // (worker seeds and fault profile). Resuming under any other
    // configuration is refused rather than silently diverging.
    std::string dataset_bytes;
    {
      std::ifstream in(flags.Get("data", ""), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      dataset_bytes = buffer.str();
    }
    const std::string platform_config = StrFormat(
        "interactive=%d|accuracy=%.17g|seed=%llu|fault=%.17g|"
        "fseed=%llu|noise=%.17g|market=%d|pool=%zu|spam=%.17g|"
        "maxv=%d|defend=%d",
        flags.Has("interactive") ? 1 : 0, flags.GetDouble("accuracy", 1.0),
        static_cast<unsigned long long>(flags.GetInt("seed", 99)),
        fault_rate, static_cast<unsigned long long>(fault_seed),
        answer_noise, use_market ? 1 : 0, market_options.pool_size,
        market_options.spam_rate, market_options.max_votes,
        market_options.defend ? 1 : 0);
    const std::uint64_t fingerprint =
        ConfigFingerprint(options, dataset_bytes, platform_config);

    CheckpointStore::Options store_options;
    store_options.dir = checkpoint_dir;
    store_options.keep = static_cast<std::size_t>(keep);
    ckpt_store = std::make_unique<CheckpointStore>(store_options);
    const std::string log_path = checkpoint_dir + "/answers.log";
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create checkpoint dir " +
                                  checkpoint_dir + ": " + ec.message()));
    }

    std::size_t base_log_offset = 0;
    std::size_t already_durable = 0;
    bool truncate_log = true;
    if (flags.Has("resume")) {
      auto session = RecoverSession(checkpoint_dir, log_path, fingerprint);
      if (!session.ok()) return Fail(session.status());
      recovered =
          std::make_unique<RecoveredSession>(std::move(session).value());
      base_log_offset = recovered->state.answer_log_offset;
      // The replayed tail is re-recorded by the recorder below but is
      // already in the file; the sink skips that many entries.
      already_durable = recovered->durable_entries - base_log_offset;
      truncate_log = false;
      replayer = std::make_unique<ReplayingPlatform>(
          recovered->replay_tail, effective);
      replayer->SetBaseTotals(recovered->state.platform_tasks,
                              recovered->state.platform_rounds);
      effective = replayer.get();
      // A from-scratch recovery (killed before the first checkpoint)
      // has no state to restore; the full-log replay rebuilds it.
      if (!recovered->from_scratch) options.resume = &recovered->state;
      run_metrics.GetCounter("recovery.resumed")->Increment();
      run_metrics.GetCounter("recovery.fallback")
          ->Increment(recovered->fallbacks);
      run_metrics.GetCounter("recovery.replayed_entries")
          ->Increment(recovered->replay_tail.entries.size());
      if (recovered->dropped_torn_tail) {
        run_metrics.GetCounter("recovery.dropped_torn_tail")->Increment();
      }
      std::printf(
          "resuming from round %zu: %zu answer(s) to replay, %zu "
          "checkpoint generation(s) skipped%s\n",
          recovered->state.rounds, recovered->replay_tail.entries.size(),
          recovered->fallbacks,
          recovered->dropped_torn_tail ? ", torn log tail dropped" : "");
    }
    auto sink = FileAnswerLogSink::Open(log_path, already_durable,
                                        truncate_log);
    if (!sink.ok()) return Fail(sink.status());
    log_sink = std::move(sink).value();
    recorder = std::make_unique<RecordingPlatform>(*effective,
                                                   log_sink.get());
    effective = recorder.get();

    const std::string network_blob =
        (flags.Has("load-model") || structure != "none")
            ? SerializeNetwork(network)
            : std::string();
    session_sink = std::make_unique<SessionCheckpointSink>(
        ckpt_store.get(), recorder.get(), base_log_offset, network_blob,
        fingerprint);
    options.checkpoint_sink = session_sink.get();
    options.checkpoint_every = static_cast<std::size_t>(every);
  }

  // Flight recorder and live snapshot exporters. All writability
  // problems surface here as one-line diagnostics, not mid-run crashes.
  obs::FlightRecorder flight_recorder;
  const std::string flight_out = flags.Get("flight-out", "");
  if (flags.Has("flight-out")) {
    if (flight_out.empty()) {
      std::fprintf(stderr, "--flight-out needs a file path\n");
      return 2;
    }
    std::FILE* probe = std::fopen(flight_out.c_str(), "ab");
    if (probe == nullptr) {
      std::fprintf(stderr, "--flight-out: cannot open '%s' for writing\n",
                   flight_out.c_str());
      return 2;
    }
    std::fclose(probe);
    options.flight = &flight_recorder;
  }
  if (market != nullptr && options.flight != nullptr) {
    market->SetFlightRecorder(options.flight);
  }
  obs::SnapshotFanout round_fanout;
  std::unique_ptr<obs::PrometheusFileExporter> prom_exporter;
  std::unique_ptr<obs::JsonlStreamExporter> stream_exporter;
  if (flags.Has("metrics-prom")) {
    auto opened =
        obs::PrometheusFileExporter::Open(flags.Get("metrics-prom", ""));
    if (!opened.ok()) {
      std::fprintf(stderr, "--metrics-prom: %s\n",
                   opened.status().message().c_str());
      return 2;
    }
    prom_exporter = std::move(opened).value();
    round_fanout.Add(prom_exporter.get());
  }
  if (flags.Has("metrics-stream")) {
    auto opened =
        obs::JsonlStreamExporter::Open(flags.Get("metrics-stream", ""));
    if (!opened.ok()) {
      std::fprintf(stderr, "--metrics-stream: %s\n",
                   opened.status().message().c_str());
      return 2;
    }
    stream_exporter = std::move(opened).value();
    round_fanout.Add(stream_exporter.get());
  }
  if (!round_fanout.empty()) options.round_sink = &round_fanout;

  BayesCrowd framework(options);
  auto result = framework.Run(incomplete, *posteriors, *effective);

  // The flight ring is most valuable when the run died, so it is
  // flushed before any failure handling below gets a chance to return.
  if (!flight_out.empty()) {
    const Status st = flight_recorder.WriteJsonl(flight_out);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: could not write flight log: %s\n",
                   st.ToString().c_str());
    } else {
      std::printf("wrote flight log to %s\n", flight_out.c_str());
    }
  }
  if (recorder != nullptr && flags.Has("record")) {
    // Save even when the run failed (e.g. the human walked away from an
    // interactive session): the bought answers are what makes resuming
    // with --replay-from possible.
    const Status saved =
        SaveAnswerLog(recorder->log(), flags.Get("record", ""));
    if (!saved.ok()) return Fail(saved);
    if (!result.ok()) {
      std::fprintf(stderr,
                   "run interrupted (%s); %zu answers saved, resume with "
                   "--replay-from %s\n",
                   result.status().ToString().c_str(),
                   recorder->log().entries.size(),
                   flags.Get("record", "").c_str());
      return 1;
    }
  }
  if (!result.ok()) {
    if (!checkpoint_dir.empty()) {
      // The answer log is durable per batch and snapshots per round
      // boundary, so whatever was bought survives the failure.
      std::fprintf(stderr,
                   "run interrupted (%s); rerun with --resume "
                   "--checkpoint-dir %s to continue\n",
                   result.status().ToString().c_str(),
                   checkpoint_dir.c_str());
      return 1;
    }
    return Fail(result.status());
  }

  // Observability artifacts (each flag independent; all opt-in).
  if (!trace_out.empty()) {
    const Status st = obs::Tracer::Global().WriteChromeTrace(trace_out);
    if (!st.ok()) return Fail(st);
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  if (flags.Has("metrics-out")) {
    obs::JsonValue payload = obs::JsonValue::Object();
    payload["run"] = run_metrics.Snapshot().ToJson();
    payload["process"] = obs::MetricsRegistry::Default().Snapshot().ToJson();
    const Status st = obs::WriteJsonFile(
        obs::TelemetryEnvelope("metrics", flags.Get("data", ""),
                               std::move(payload)),
        flags.Get("metrics-out", ""));
    if (!st.ok()) return Fail(st);
    std::printf("wrote metrics to %s\n",
                flags.Get("metrics-out", "").c_str());
  }
  if (flags.Has("telemetry-out")) {
    const Status st =
        WriteRunTelemetry(flags.Get("data", ""), options, *result,
                          flags.Get("telemetry-out", ""));
    if (!st.ok()) return Fail(st);
    std::printf("wrote telemetry to %s\n",
                flags.Get("telemetry-out", "").c_str());
  }

  ReportOptions report;
  report.show_rounds = flags.Has("verbose");
  report.show_conditions = flags.Has("verbose");
  report.show_metrics = flags.Has("verbose");
  report.max_objects = 50;
  std::printf("\n%s", FormatRunReport(*result, incomplete, report).c_str());
  if (faulter != nullptr) {
    const FaultStats& faults = faulter->stats();
    std::printf(
        "fault injection: %llu/%llu batches delivered; %llu transient, "
        "%llu timeout, %llu abstained task(s), %llu partial batch(es)\n",
        static_cast<unsigned long long>(faults.batches_delivered),
        static_cast<unsigned long long>(faults.batches_attempted),
        static_cast<unsigned long long>(faults.transient_failures),
        static_cast<unsigned long long>(faults.timeouts),
        static_cast<unsigned long long>(faults.abstained_tasks),
        static_cast<unsigned long long>(faults.partial_batches));
    if (answer_noise > 0.0) {
      std::printf(
          "answer noise: %llu vote(s) flipped, %llu aggregate "
          "answer(s) changed\n",
          static_cast<unsigned long long>(faults.flipped_votes),
          static_cast<unsigned long long>(faults.noisy_answers_changed));
      auto accuracies = faulter->EstimateVirtualWorkerAccuracies();
      if (accuracies.ok()) {
        std::printf("estimated virtual-worker accuracies:");
        for (const double a : accuracies.value()) std::printf(" %.3f", a);
        std::printf("\n");
      }
    }
  }
  if (market != nullptr) {
    const MarketplaceStats& ms = market->stats();
    std::printf(
        "marketplace: active=%zu quarantined=%zu arrivals=%llu "
        "departures=%llu votes=%llu extra=%llu premium=%llu "
        "abstained=%llu wide_rounds=%llu kappa=%.3f\n",
        market->active_workers(), market->quarantined_workers(),
        static_cast<unsigned long long>(ms.arrivals),
        static_cast<unsigned long long>(ms.departures),
        static_cast<unsigned long long>(ms.votes_cast),
        static_cast<unsigned long long>(ms.extra_votes),
        static_cast<unsigned long long>(ms.premium_votes),
        static_cast<unsigned long long>(ms.abstained_tasks),
        static_cast<unsigned long long>(ms.wide_rounds), ms.last_kappa);
    if (result->extra_votes > 0) {
      std::printf("adaptive votes: %zu extra vote(s) charged\n",
                  result->extra_votes);
    }
  }
  if (have_truth) {
    auto skyline = SkylineSfs(truth);
    if (!skyline.ok()) return Fail(skyline.status());
    const auto metrics =
        EvaluateResultSet(result->result_objects, skyline.value());
    std::printf("vs ground truth: precision=%.3f recall=%.3f F1=%.3f\n",
                metrics.precision, metrics.recall, metrics.f1);
  }
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string run_path = flags.Get("run", "");
  if (run_path.empty()) {
    std::fprintf(stderr,
                 "inspect needs --run <telemetry.json> (add --flight "
                 "<flight.jsonl> for the incident timeline, or --diff "
                 "<candidate.json> to compare two runs)\n");
    return 2;
  }
  auto baseline = obs::ReadJsonFile(run_path);
  if (!baseline.ok()) return Fail(baseline.status());

  if (flags.Has("diff")) {
    const std::string diff_path = flags.Get("diff", "");
    if (diff_path.empty()) {
      std::fprintf(stderr, "--diff needs a candidate telemetry file\n");
      return 2;
    }
    auto candidate = obs::ReadJsonFile(diff_path);
    if (!candidate.ok()) return Fail(candidate.status());
    const double threshold = flags.GetDouble("threshold", 0.02);
    auto diff = DiffRunTelemetry(*baseline, *candidate, threshold);
    if (!diff.ok()) return Fail(diff.status());
    std::printf("%s", diff->text.c_str());
    return diff->regressions.empty() ? 0 : 1;
  }

  std::unique_ptr<obs::FlightLoad> flight;
  if (flags.Has("flight")) {
    auto loaded = obs::LoadFlightJsonl(flags.Get("flight", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    flight = std::make_unique<obs::FlightLoad>(std::move(loaded).value());
  }
  auto report = RenderRunInspection(*baseline, flight.get());
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->text.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return Usage();
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values[arg] = argv[++i];
    } else {
      flags.values[arg] = "";  // Boolean flag.
    }
  }
  for (const auto& [name, value] : flags.values) {
    const std::string error = NumericFlagError(name, value);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }
  if (flags.Has("log-level")) {
    LogLevel level = LogLevel::kWarning;
    if (!ParseLogLevel(flags.Get("log-level", ""), &level)) {
      std::fprintf(stderr, "unknown --log-level '%s'\n",
                   flags.Get("log-level", "").c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  if (command == "generate") return CmdGenerate(flags);
  if (command == "inject") return CmdInject(flags);
  if (command == "skyline") return CmdSkyline(flags);
  if (command == "ctable") return CmdCTable(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "jsoncheck") return CmdJsonCheck(flags);
  if (command == "normalize") return CmdNormalize(flags);
  return Usage();
}

}  // namespace
}  // namespace bayescrowd

int main(int argc, char** argv) { return bayescrowd::Main(argc, argv); }

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
// --interactive *you* are the crowd, answering on stdin. Its query flags
// are the keys of core/query_spec.h (`--solver-node-budget 4` is
// `"solver_node_budget":4` in a bayescrowd_serve create request).
//
// Every command reads its flags through a key table: a flag the command
// does not take, a malformed or out-of-range value, or a contradictory
// combination exits 2 with one line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
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
#include "core/framework.h"
#include "core/inspect.h"
#include "core/query_spec.h"
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

using obs::JsonValue;

/// Flags every command takes.
constexpr KeyDef kGlobalKeys[] = {{"log_level", KeyKind::kString}};

constexpr KeyDef kGenerateKeys[] = {
    {"dataset", KeyKind::kString},
    {"n", KeyKind::kInt, 1, kMaxDatasetCells},
    {"d", KeyKind::kInt, 1, kMaxDatasetAttributes},
    {"levels", KeyKind::kInt, 2, kMaxDatasetLevels},
    {"seed", KeyKind::kInt, 0, kUnbounded},
    {"out", KeyKind::kString},
};

constexpr KeyDef kInjectKeys[] = {
    {"in", KeyKind::kString},   {"out", KeyKind::kString},
    {"rate", KeyKind::kNumber, 0, 1},
    {"attrs", KeyKind::kString}, {"seed", KeyKind::kInt, 0, kUnbounded},
};

constexpr KeyDef kInKeys[] = {{"in", KeyKind::kString}};

constexpr KeyDef kCTableKeys[] = {
    {"data", KeyKind::kString},
    {"alpha", KeyKind::kNumber, -1, 1},
};

constexpr KeyDef kNormalizeKeys[] = {
    {"in", KeyKind::kString},
    {"out", KeyKind::kString},
    {"strip_lanes", KeyKind::kBool},
    {"strip_resume", KeyKind::kBool},
};

constexpr KeyDef kInspectKeys[] = {
    {"run", KeyKind::kString},
    {"flight", KeyKind::kString},
    {"diff", KeyKind::kString},
    {"threshold", KeyKind::kNumber, 0, kUnbounded},
};

/// `run`'s own settings; its query flags are QueryKeys().
constexpr KeyDef kRunKeys[] = {
    // Data and the crowd's answer source.
    {"data", KeyKind::kString},
    {"truth", KeyKind::kString},
    {"interactive", KeyKind::kBool},
    {"load_model", KeyKind::kString},
    {"save_model", KeyKind::kString},
    // Execution.
    {"threads", KeyKind::kInt, 0, 1024},
    // Fault injection and the recovery policy that absorbs it.
    {"fault_rate", KeyKind::kNumber, 0, 1},
    {"fault_seed", KeyKind::kInt, 0, kUnbounded},
    {"max_retries", KeyKind::kInt, 0, 1000},
    {"round_deadline", KeyKind::kNumber, 0, kUnbounded},
    // Pause/resume and crash safety.
    {"checkpoint_dir", KeyKind::kString},
    {"checkpoint_every", KeyKind::kInt, 1, kUnbounded},
    {"keep_checkpoints", KeyKind::kInt, 1, 1000},
    {"resume", KeyKind::kBool},
    // Reports and exports.
    {"verbose", KeyKind::kBool},
    {"session", KeyKind::kString},
    {"metrics_out", KeyKind::kString},
    {"trace_out", KeyKind::kString},
    {"telemetry_out", KeyKind::kString},
    {"flight_out", KeyKind::kString},
    {"metrics_prom", KeyKind::kString},
    {"metrics_stream", KeyKind::kString},
};

/// A command's flags, converted to their keys' kinds and checked
/// against its tables (see Main), read by key name ('_' for '-').
struct Flags {
  JsonValue doc;

  bool Has(const char* key) const { return doc.Find(key) != nullptr; }
  std::string Get(const char* key, const std::string& fallback = "") const {
    return KeyValue(doc, key, fallback);
  }
  template <typename T>
  T Value(const char* key, T fallback) const {
    return KeyValue(doc, key, fallback);
  }
};

/// A usage error: one line naming the command, exit 2.
int UsageError(const char* command, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", command, message.c_str());
  return 2;
}

int Usage();  // Lists kCommands, below.

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out");
  if (out.empty()) return Usage();
  const Result<Table> table = MakeDataset(
      flags.Get("dataset", "nba"),
      flags.Value<std::size_t>("n", 1000), flags.Value<std::size_t>("d", 6),
      flags.Value<Level>("levels", 10),
      flags.Value<std::uint64_t>("seed", kDefaultDataSeed));
  if (!table.ok()) return UsageError("generate", table.status().message());
  const Status st = SaveTableCsv(*table, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu x %zu table to %s\n", table->num_objects(),
              table->num_attributes(), out.c_str());
  return 0;
}

int CmdInject(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("in"));
  if (!loaded.ok()) return Fail(loaded.status());
  Table result;
  if (flags.Has("attrs")) {
    std::vector<std::size_t> attrs;
    for (const std::string& part : Split(flags.Get("attrs"), ',')) {
      int v = -1;
      if (!ParseInt(part, &v) || v < 0) {
        std::fprintf(stderr, "bad --attrs entry '%s'\n", part.c_str());
        return 2;
      }
      attrs.push_back(static_cast<std::size_t>(v));
    }
    result = InjectMissingAttributes(*loaded, attrs);
  } else {
    Rng rng(flags.Value<std::uint64_t>("seed", kDefaultDataSeed));
    result = InjectMissingUniform(*loaded, flags.Value("rate", 0.1), rng);
  }
  const Status st = SaveTableCsv(result, flags.Get("out"));
  if (!st.ok()) return Fail(st);
  std::printf("wrote table with missing rate %.3f\n", result.MissingRate());
  return 0;
}

int CmdSkyline(const Flags& flags) {
  auto loaded = LoadTableCsv(flags.Get("in"));
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
  auto loaded = LoadTableCsv(flags.Get("data"));
  if (!loaded.ok()) return Fail(loaded.status());
  CTableOptions options;
  options.alpha = flags.Value("alpha", 0.01);
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
  const std::string path = flags.Get("in");
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
  const std::string in = flags.Get("in");
  if (in.empty()) {
    std::fprintf(stderr, "normalize needs --in <file>\n");
    return 2;
  }
  const auto parsed = obs::ReadJsonFile(in);
  if (!parsed.ok()) return Fail(parsed.status());
  obs::NormalizeOptions norm;
  norm.strip_lane_usage = flags.Value("strip_lanes", false);
  norm.strip_resume_markers = flags.Value("strip_resume", false);
  const JsonValue normalized = obs::NormalizeTelemetry(*parsed, norm);
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::printf("%s\n", normalized.Dump(2).c_str());
    return 0;
  }
  const Status st = obs::WriteJsonFile(normalized, out);
  if (!st.ok()) return Fail(st);
  return 0;
}

int CmdRun(const Flags& flags) {
  Result<QuerySpec> parsed =
      ParseQuerySpec(flags.doc, {kRunKeys, kGlobalKeys}, KeyStyle::kFlag);
  if (!parsed.ok()) return UsageError("run", parsed.status().message());
  const QuerySpec& spec = parsed.value();

  // Frontend combinations, refused before any data is read.
  const bool interactive = flags.Value("interactive", false);
  const std::string checkpoint_dir = flags.Get("checkpoint_dir");
  const bool resume = flags.Value("resume", false);
  if (interactive && spec.use_marketplace) {
    return UsageError("run",
                      "--marketplace cannot be combined with --interactive "
                      "(the marketplace needs --truth)");
  }
  if (!interactive && !flags.Has("truth")) {
    return UsageError("run", "run needs --truth <csv> or --interactive");
  }
  if (resume && checkpoint_dir.empty()) {
    return UsageError("run", "--resume needs --checkpoint-dir");
  }
  // Cost-attribution session label. It lands verbatim inside canonical
  // series keys and Prometheus label values, so keep it to a safe
  // charset instead of escaping it everywhere downstream.
  const std::string session = flags.Get("session", "s0");
  if (!IsSafeName(session)) {
    return UsageError("run",
                      "--session must be non-empty [A-Za-z0-9._-] (it "
                      "becomes a metric label value)");
  }

  // Flight recorder and live snapshot exporters. All writability
  // problems surface here as one-line diagnostics, not mid-run crashes.
  obs::FlightRecorder flight_recorder;
  const std::string flight_out = flags.Get("flight_out");
  if (flags.Has("flight_out")) {
    const Status writable = obs::CheckFlightLogPath(flight_out);
    if (!writable.ok()) {
      return UsageError("run", "--flight-out: " + writable.message());
    }
  }
  obs::SnapshotFanout round_fanout;
  std::unique_ptr<obs::PrometheusFileExporter> prom_exporter;
  std::unique_ptr<obs::JsonlStreamExporter> stream_exporter;
  if (flags.Has("metrics_prom")) {
    auto opened = obs::PrometheusFileExporter::Open(flags.Get("metrics_prom"));
    if (!opened.ok()) {
      return UsageError("run",
                        "--metrics-prom: " + opened.status().message());
    }
    prom_exporter = std::move(opened).value();
    round_fanout.Add(prom_exporter.get());
  }
  if (flags.Has("metrics_stream")) {
    auto opened = obs::JsonlStreamExporter::Open(flags.Get("metrics_stream"));
    if (!opened.ok()) {
      return UsageError("run",
                        "--metrics-stream: " + opened.status().message());
    }
    stream_exporter = std::move(opened).value();
    round_fanout.Add(stream_exporter.get());
  }

  auto loaded = LoadTableCsv(flags.Get("data"));
  if (!loaded.ok()) return Fail(loaded.status());
  const Table& incomplete = *loaded;

  // Tracing must be live before the run so modeling / per-round /
  // ADPLL spans record; the file is written after the pipeline (the
  // pool joins inside Run, so every lane's buffer is flushed by then).
  const std::string trace_out = flags.Get("trace_out");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  // Preprocessing: the Bayesian network the spec names, learned from
  // the incomplete data (or a previously saved model via --load-model).
  std::unique_ptr<PosteriorModel> posteriors;
  if (flags.Has("load_model")) {
    auto net = LoadNetwork(flags.Get("load_model"));
    if (!net.ok()) return Fail(net.status());
    if (!(net->schema() == incomplete.schema())) {
      return Fail(Status::InvalidArgument(
          "loaded model schema does not match the data"));
    }
    posteriors =
        PosteriorModel::FromNetwork(std::move(net).value(), incomplete);
  } else {
    auto learned = PosteriorModel::Learn(spec.structure, incomplete);
    if (!learned.ok()) return Fail(learned.status());
    posteriors = std::move(learned).value();
    if (flags.Has("save_model") && posteriors->network() != nullptr) {
      const Status saved =
          SaveNetwork(*posteriors->network(), flags.Get("save_model"));
      if (!saved.ok()) return Fail(saved);
    }
  }

  // The query is the spec; the rest is how this process runs it.
  BayesCrowdOptions options = spec.options;
  obs::MetricsRegistry run_metrics;
  options.metrics = &run_metrics;
  // Evaluation lanes: 0 (default) resolves to the hardware concurrency.
  options.threads = flags.Value<std::size_t>("threads", 0);
  options.session = session;
  // Recovery policy: --max-retries counts retries after the first
  // attempt; --round-deadline is in simulated seconds (see DESIGN.md §8).
  options.retry.max_attempts = flags.Value<std::size_t>("max_retries", 2) + 1;
  options.retry.round_deadline_seconds = flags.Value("round_deadline", 0.0);
  if (flags.Has("flight_out")) options.flight = &flight_recorder;
  if (!round_fanout.empty()) options.round_sink = &round_fanout;

  std::unique_ptr<CrowdPlatform> platform;
  Table truth;
  if (interactive) {
    platform = std::make_unique<InteractiveCrowdPlatform>(
        incomplete, std::cin, std::cout);
  } else {
    auto loaded_truth = LoadTableCsv(flags.Get("truth"));
    if (!loaded_truth.ok()) return Fail(loaded_truth.status());
    truth = std::move(loaded_truth).value();
    platform = MakeSimulatedCrowd(truth, spec.use_marketplace, spec.flat,
                                  spec.market, &run_metrics, options.flight);
  }
  auto* market = dynamic_cast<MarketplaceCrowdPlatform*>(platform.get());

  // Optional deterministic fault injection between the live platform
  // and everything above it, so a checkpointed faulted session
  // transcribes (and replays) the exact recovery path.
  std::unique_ptr<FaultInjectingPlatform> faulter;
  CrowdPlatform* effective = platform.get();
  const double fault_rate = flags.Value("fault_rate", 0.0);
  const auto fault_seed =
      flags.Value<std::uint64_t>("fault_seed", 13);
  if (fault_rate > 0.0) {
    faulter = std::make_unique<FaultInjectingPlatform>(
        *effective, FaultOptions::Profile(fault_rate, fault_seed));
    faulter->BindMetrics(&run_metrics);
    effective = faulter.get();
  }

  // Crash-safe, pausable sessions: checksummed snapshots plus a durable
  // answer log in --checkpoint-dir; --resume continues from the newest
  // intact pair.
  std::unique_ptr<DurableSession> durable;
  if (!checkpoint_dir.empty()) {
    // The fingerprint binds a checkpoint to the query it belongs to:
    // behavior-relevant options, dataset bytes, the posterior model (its
    // structure, or the loaded model file's bytes) and the platform
    // setup (the spec's crowd keys plus the fault profile). Resuming
    // under any other configuration is refused rather than silently
    // diverging.
    const auto file_bytes = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      return buffer.str();
    };
    JsonValue platform_config = CrowdToJson(spec);
    platform_config["interactive"] = interactive;
    platform_config["fault_rate"] = fault_rate;
    platform_config["fault_seed"] = fault_seed;
    if (flags.Has("load_model")) {
      platform_config["model"] = StrFormat(
          "%016llx", static_cast<unsigned long long>(
                         HashBytes(file_bytes(flags.Get("load_model")))));
    } else {
      platform_config["structure"] =
          PosteriorStructureToString(spec.structure);
    }
    DurableSession::Options durable_options;
    durable_options.dir = checkpoint_dir;
    durable_options.resume = resume;
    durable_options.fingerprint = ConfigFingerprint(
        options, file_bytes(flags.Get("data")), platform_config.Dump());
    durable_options.keep = flags.Value<std::size_t>("keep_checkpoints", 3);
    options.checkpoint_every =
        flags.Value<std::size_t>("checkpoint_every", 1);
    auto opened = DurableSession::Open(durable_options, *effective, &options);
    if (!opened.ok()) return Fail(opened.status());
    durable = std::move(opened).value();
    effective = &durable->platform();
    if (const RecoveredSession* recovered = durable->recovered()) {
      std::printf(
          "resuming from round %zu: %zu answer(s) to replay, %zu "
          "checkpoint generation(s) skipped%s\n",
          recovered->state.rounds(), recovered->replay_tail.entries.size(),
          recovered->fallbacks,
          recovered->dropped_torn_tail ? ", torn log tail dropped" : "");
    }
  }

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
  if (flags.Has("metrics_out")) {
    JsonValue payload = JsonValue::Object();
    payload["run"] = run_metrics.Snapshot().ToJson();
    payload["process"] = obs::MetricsRegistry::Default().Snapshot().ToJson();
    const Status st = obs::WriteJsonFile(
        obs::TelemetryEnvelope("metrics", flags.Get("data"),
                               std::move(payload)),
        flags.Get("metrics_out"));
    if (!st.ok()) return Fail(st);
    std::printf("wrote metrics to %s\n", flags.Get("metrics_out").c_str());
  }
  if (flags.Has("telemetry_out")) {
    const Status st = WriteRunTelemetry(flags.Get("data"), options, *result,
                                        flags.Get("telemetry_out"));
    if (!st.ok()) return Fail(st);
    std::printf("wrote telemetry to %s\n",
                flags.Get("telemetry_out").c_str());
  }

  ReportOptions report;
  report.show_rounds = flags.Value("verbose", false);
  report.show_conditions = flags.Value("verbose", false);
  report.show_metrics = flags.Value("verbose", false);
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
  if (!interactive) {
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
  const std::string run_path = flags.Get("run");
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
    const std::string diff_path = flags.Get("diff");
    if (diff_path.empty()) {
      std::fprintf(stderr, "--diff needs a candidate telemetry file\n");
      return 2;
    }
    auto candidate = obs::ReadJsonFile(diff_path);
    if (!candidate.ok()) return Fail(candidate.status());
    const double threshold = flags.Value("threshold", 0.02);
    auto diff = DiffRunTelemetry(*baseline, *candidate, threshold);
    if (!diff.ok()) return Fail(diff.status());
    std::printf("%s", diff->text.c_str());
    return diff->regressions.empty() ? 0 : 1;
  }

  std::unique_ptr<obs::FlightLoad> flight;
  if (flags.Has("flight")) {
    auto loaded = obs::LoadFlightJsonl(flags.Get("flight"));
    if (!loaded.ok()) return Fail(loaded.status());
    flight = std::make_unique<obs::FlightLoad>(std::move(loaded).value());
  }
  auto report = RenderRunInspection(*baseline, flight.get());
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->text.c_str());
  return 0;
}

/// A subcommand: its handler and its flags. `run` also takes every
/// query key.
struct Command {
  const char* name;
  int (*handler)(const Flags&);
  KeyTable keys;
  bool query = false;
};

const Command kCommands[] = {
    {"generate", CmdGenerate, kGenerateKeys},
    {"inject", CmdInject, kInjectKeys},
    {"skyline", CmdSkyline, kInKeys},
    {"ctable", CmdCTable, kCTableKeys},
    {"run", CmdRun, kRunKeys, /*query=*/true},
    {"inspect", CmdInspect, kInspectKeys},
    {"jsoncheck", CmdJsonCheck, kInKeys},
    {"normalize", CmdNormalize, kNormalizeKeys},
};

/// Every command's flags, read off its key tables; their ranges,
/// defaults and meanings are in tools/README.md.
int Usage() {
  std::string text = "usage: bayescrowd_cli <command> [--flag value ...]";
  std::size_t column = 0;
  const auto word = [&](const std::string& w) {
    if (column + w.size() >= 76) {
      text += "\n     ";
      column = 5;
    }
    text += " " + w;
    column += w.size() + 1;
  };
  const auto list = [&](KeyTable keys) {
    for (const KeyDef& def : keys) {
      std::string flag = std::string("--") + def.name;
      std::replace(flag.begin(), flag.end(), '_', '-');
      word(def.choices != nullptr ? flag + " " + def.choices : flag);
    }
  };
  for (const Command& command : kCommands) {
    text += StrFormat("\n  %s:", command.name);
    column = std::strlen(command.name) + 3;
    list(command.keys);
    if (command.query) list(QueryKeys());
  }
  text += "\n  every command: --log-level debug|info|warning|error|off"
          "\n  ranges, defaults and meanings: tools/README.md\n";
  std::fputs(text.c_str(), stderr);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (name == candidate.name) command = &candidate;
  }
  if (command == nullptr) return Usage();
  // Every flag must be one the command reads, of its key's kind and in
  // its range: checked before the command runs.
  const KeyTable query = command->query ? QueryKeys() : KeyTable();
  Result<JsonValue> doc =
      ReadFlags(argc - 2, argv + 2, {kGlobalKeys, command->keys, query});
  if (!doc.ok()) return UsageError(command->name, doc.status().message());
  if (const JsonValue* level_flag = doc->Find("log_level")) {
    LogLevel level = LogLevel::kWarning;
    if (!ParseLogLevel(level_flag->AsString(), &level)) {
      return UsageError(command->name, "unknown --log-level '" +
                                           level_flag->AsString() + "'");
    }
    SetLogLevel(level);
  }
  return command->handler(Flags{std::move(doc).value()});
}

}  // namespace
}  // namespace bayescrowd

int main(int argc, char** argv) { return bayescrowd::Main(argc, argv); }

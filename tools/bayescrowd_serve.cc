// bayescrowd_serve: BayesCrowd as a resident multi-session service.
//
// Speaks a line-delimited JSON protocol on stdin/stdout: one request
// object per line in, exactly one response object per line out (always
// `{"ok":true,...}` or `{"ok":false,"error":"..."}`). A malformed line,
// an unknown key or an out-of-range value yields a one-line diagnostic
// naming the key and the connection survives — the server never exits
// on bad input, only on `shutdown` or EOF.
//
// A create request is a query (core/query_spec.h: the same keys as the
// CLI's `run` flags, with the same defaults) plus the session's own
// keys: id, tenant, the generated "dataset" block, checkpoint_dir,
// checkpoint_every and resume.
//
//   {"op":"create","id":"s1","tenant":"acme",
//    "dataset":{"kind":"indep","n":40,"d":3,"levels":4,"seed":7,
//               "missing_rate":0.2,"missing_seed":5},
//    "budget":12,"latency":3,"m":3,"structure":"none"}
//   {"op":"advance","id":"s1","rounds":2}
//   {"op":"checkpoint","id":"s1"}   (needs "checkpoint_dir" at create)
//   {"op":"info","id":"s1"}    {"op":"list"}    {"op":"metrics"}
//   {"op":"finish","id":"s1"}  {"op":"evict","id":"s1"}
//   {"op":"shutdown"}
//
// Flags:
//   --threads N          lanes of the shared worker pool (0 = auto)
//   --max-resident N     global residency cap (default 8)
//   --max-per-tenant N   per-tenant residency cap (default 4)
//   --qos SPEC           per-tenant QoS: "tenant=after:every:n1,n2;..."
//                        — after `after` rounds of a session, and every
//                        `every` further rounds, tighten the solver
//                        governor to max_nodes n1, then n2, ...
//   --metrics-prom PATH  rewrite a Prometheus scrape file (serve.*
//                        series, tenant=/session= labeled) per request
//   --flight-out PATH    write the serve flight ring as JSONL on exit
//   --state-dir DIR      durable server state: the serve manifest lives
//                        here, and sessions created without a
//                        "checkpoint_dir" default to DIR/checkpoints
//   --recover            replay the manifest in --state-dir and resume
//                        every session live at the last crash before
//                        serving; emits one {"op":"recover",...} line
//   --max-queue N        stepping requests queued past the one running
//                        before new ones shed (default 8)
//   --retry-after-ms N   retry hint carried in shed responses
//   --chaos SPEC         deterministic fault injection under the IO
//                        layer: "write_fail=P,sync_fail=P,
//                        read_corrupt=P,seed=S,match=SUBSTR,
//                        shed_every=N" (any subset; match scopes the
//                        faults to paths containing SUBSTR; shed_every
//                        force-sheds every Nth stepping request)
//
// Request-level robustness: "advance" accepts "deadline_ms" (degrade-
// only solver deadline for that request); an overloaded server answers
// {"ok":false,"error":...,"overloaded":true,"retry_after_ms":N} and
// stays up; a session that keeps failing is quarantined, not fatal.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/query_spec.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "serve/manager.h"
#include "serve/manifest.h"

namespace bayescrowd {
namespace {

using obs::JsonValue;
using serve::AdvanceOutcome;
using serve::ManifestEvent;
using serve::RecoveryReport;
using serve::SessionInfo;
using serve::SessionManager;
using serve::SessionSpec;
using serve::TenantQos;

JsonValue ErrorLine(const std::string& message) {
  JsonValue out = JsonValue::Object();
  out["ok"] = false;
  out["error"] = message;
  return out;
}

/// Error response for a verb Status; a shed (Unavailable + retry hint)
/// additionally carries machine-readable backoff fields so clients can
/// retry without parsing the message.
JsonValue StatusLine(const Status& status) {
  JsonValue out = ErrorLine(status.ToString());
  if (status.IsUnavailable()) {
    const std::string& message = status.message();
    const std::size_t at = message.find("retry_after_ms=");
    if (at != std::string::npos) {
      out["overloaded"] = true;
      out["retry_after_ms"] = static_cast<std::int64_t>(
          std::atoll(message.c_str() + at + sizeof("retry_after_ms=") - 1));
    }
  }
  return out;
}

JsonValue OkLine(const std::string& op) {
  JsonValue out = JsonValue::Object();
  out["ok"] = true;
  out["op"] = op;
  return out;
}

/// The create request's own keys; its query keys are QueryKeys().
constexpr KeyDef kCreateKeys[] = {
    {"op", KeyKind::kString},
    {"id", KeyKind::kString},
    {"tenant", KeyKind::kString},
    {"dataset", KeyKind::kObject},
    {"checkpoint_dir", KeyKind::kString},
    {"checkpoint_every", KeyKind::kInt, 0, kUnbounded},
    {"resume", KeyKind::kBool},
};

/// The "dataset" block of a create request: a generated table with
/// uniformly injected missing cells.
constexpr KeyDef kDatasetKeys[] = {
    {"kind", KeyKind::kString},
    {"n", KeyKind::kInt, 1, kMaxDatasetCells},
    {"d", KeyKind::kInt, 1, kMaxDatasetAttributes},
    {"levels", KeyKind::kInt, 2, kMaxDatasetLevels},
    {"seed", KeyKind::kInt, 0, kUnbounded},
    {"missing_rate", KeyKind::kNumber, 0, 1},
    {"missing_seed", KeyKind::kInt, 0, kUnbounded},
};

/// Every other op's keys ("rounds" and "deadline_ms" are advance's).
constexpr KeyDef kRequestKeys[] = {
    {"op", KeyKind::kString},
    {"id", KeyKind::kString},
    {"rounds", KeyKind::kInt, 0, kUnbounded},
    {"deadline_ms", KeyKind::kInt, 0, kUnbounded},
};

JsonValue InfoJson(const SessionInfo& info) {
  JsonValue out = JsonValue::Object();
  out["id"] = info.id;
  out["tenant"] = info.tenant;
  out["rounds"] = static_cast<std::int64_t>(info.rounds);
  out["budget_left"] = info.budget_left;
  out["qos_level"] = static_cast<std::int64_t>(info.qos_level);
  out["done"] = info.done;
  out["finished"] = info.finished;
  out["resumed"] = info.resumed;
  out["quarantined"] = info.quarantined;
  return out;
}

/// Builds the full SessionSpec a "create" request describes: the query
/// through ParseQuerySpec, the dataset from its block, and the posterior
/// model the query names, learned on the session's table. Shared by the
/// create verb and --recover's resolver (which re-parses the request
/// journaled in the manifest's spec_blob), so a recovered session is
/// admitted through the identical code path. The canonical re-dump of
/// the request is stored as the spec's manifest_blob. With `admit`, the
/// id and tenant pass its admission check once the keys are checked,
/// before the dataset is generated or a network learned.
Status BuildSessionSpec(const JsonValue& doc,
                        const std::string& default_checkpoint_dir,
                        SessionManager* admit, SessionSpec* spec) {
  BAYESCROWD_ASSIGN_OR_RETURN(const QuerySpec query,
                              ParseQuerySpec(doc, {kCreateKeys}));
  const JsonValue* block = doc.Find("dataset");
  const JsonValue dataset = block != nullptr ? *block : JsonValue::Object();
  BAYESCROWD_RETURN_NOT_OK(
      CheckKeys(dataset, {kDatasetKeys}, KeyStyle::kJson, "dataset."));
  spec->id = KeyValue<std::string>(doc, "id", "");
  spec->tenant = KeyValue<std::string>(doc, "tenant", "");
  if (admit != nullptr) {
    BAYESCROWD_RETURN_NOT_OK(admit->Admit(spec->id, spec->tenant));
  }
  const auto kind = KeyValue<std::string>(dataset, "kind", "indep");
  const auto n = KeyValue<std::size_t>(dataset, "n", 40);
  const auto d = KeyValue<std::size_t>(dataset, "d", 3);
  const auto levels = KeyValue<Level>(dataset, "levels", 4);
  const auto seed = KeyValue<std::uint64_t>(dataset, "seed", 7);
  const auto rate = KeyValue<double>(dataset, "missing_rate", 0.2);
  const auto miss_seed = KeyValue<std::uint64_t>(dataset, "missing_seed", 5);
  BAYESCROWD_ASSIGN_OR_RETURN(spec->ground_truth,
                              MakeDataset(kind, n, d, levels, seed));
  Rng rng(miss_seed);
  spec->incomplete = InjectMissingUniform(spec->ground_truth, rate, rng);
  BAYESCROWD_ASSIGN_OR_RETURN(
      spec->posteriors, PosteriorModel::Learn(query.structure,
                                              spec->incomplete));

  spec->options = query.options;
  spec->options.checkpoint_every =
      KeyValue<std::size_t>(doc, "checkpoint_every", 0);
  spec->platform = query.flat;
  spec->use_marketplace = query.use_marketplace;
  spec->marketplace = query.market;
  spec->checkpoint_dir = KeyValue<std::string>(doc, "checkpoint_dir", "");
  if (spec->checkpoint_dir.empty()) {
    spec->checkpoint_dir = default_checkpoint_dir;
  }
  spec->resume = KeyValue(doc, "resume", false);
  spec->manifest_blob = doc.Dump();
  return Status::OK();
}

JsonValue HandleCreate(SessionManager* manager, const JsonValue& doc,
                       const std::string& default_checkpoint_dir) {
  SessionSpec spec;
  const Status built =
      BuildSessionSpec(doc, default_checkpoint_dir, manager, &spec);
  if (!built.ok()) return StatusLine(built);
  const std::string id = spec.id;
  const Status created = manager->Create(std::move(spec));
  if (!created.ok()) return StatusLine(created);
  Result<SessionInfo> info = manager->Info(id);
  if (!info.ok()) return ErrorLine(info.status().ToString());
  JsonValue out = OkLine("create");
  out["session"] = InfoJson(info.value());
  return out;
}

JsonValue HandleAdvance(SessionManager* manager, const JsonValue& doc) {
  const auto id = KeyValue<std::string>(doc, "id", "");
  const auto deadline_ms = KeyValue<std::int64_t>(doc, "deadline_ms", 0);
  Result<AdvanceOutcome> advanced = manager->Advance(
      id, KeyValue<std::size_t>(doc, "rounds", 1), deadline_ms);
  if (!advanced.ok()) return StatusLine(advanced.status());
  JsonValue out = OkLine("advance");
  out["id"] = id;
  out["rounds_run"] =
      static_cast<std::int64_t>(advanced.value().rounds_run);
  out["qos_level"] =
      static_cast<std::int64_t>(advanced.value().qos_level);
  out["done"] = advanced.value().done;
  if (deadline_ms > 0) out["deadline_ms"] = deadline_ms;
  return out;
}

JsonValue HandleFinish(SessionManager* manager, const std::string& id) {
  Result<BayesCrowdResult> finished = manager->Finish(id);
  if (!finished.ok()) return StatusLine(finished.status());
  const BayesCrowdResult& result = finished.value();
  JsonValue out = OkLine("finish");
  out["id"] = id;
  JsonValue objects = JsonValue::Array();
  for (const std::size_t object : result.result_objects) {
    objects.Append(JsonValue(static_cast<std::int64_t>(object)));
  }
  out["result_objects"] = std::move(objects);
  out["rounds"] = static_cast<std::int64_t>(result.rounds);
  out["tasks_posted"] = static_cast<std::int64_t>(result.tasks_posted);
  out["cost_spent"] = result.cost_spent;
  out["stopped_confident"] = result.stopped_confident;
  out["degraded_objects"] =
      static_cast<std::int64_t>(result.degraded_objects.size());
  out["exact"] = result.degraded_objects.empty();
  return out;
}

JsonValue HandleOne(SessionManager* manager, const JsonValue& doc,
                    const std::string& default_checkpoint_dir) {
  const auto op = KeyValue<std::string>(doc, "op", "");
  if (op == "create") {
    return HandleCreate(manager, doc, default_checkpoint_dir);
  }
  const Status checked = CheckKeys(doc, {kRequestKeys}, KeyStyle::kJson);
  if (!checked.ok()) return ErrorLine(checked.ToString());
  const std::string id = KeyValue<std::string>(doc, "id", "");
  if (op == "advance") return HandleAdvance(manager, doc);
  if (op == "finish") return HandleFinish(manager, id);
  if (op == "checkpoint") {
    const Status st = manager->Checkpoint(id);
    if (!st.ok()) return StatusLine(st);
    JsonValue out = OkLine("checkpoint");
    out["id"] = id;
    return out;
  }
  if (op == "evict") {
    const Status st = manager->Evict(id);
    if (!st.ok()) return ErrorLine(st.ToString());
    JsonValue out = OkLine("evict");
    out["id"] = id;
    return out;
  }
  if (op == "info") {
    Result<SessionInfo> info = manager->Info(id);
    if (!info.ok()) return ErrorLine(info.status().ToString());
    JsonValue out = OkLine("info");
    out["session"] = InfoJson(info.value());
    return out;
  }
  if (op == "list") {
    JsonValue out = OkLine("list");
    JsonValue sessions = JsonValue::Array();
    for (const SessionInfo& info : manager->List()) {
      sessions.Append(InfoJson(info));
    }
    out["sessions"] = std::move(sessions);
    return out;
  }
  if (op == "metrics") {
    JsonValue out = OkLine("metrics");
    out["metrics"] = manager->MetricsSnapshot().ToJson();
    return out;
  }
  if (op == "shutdown") return OkLine("shutdown");
  return ErrorLine(StrFormat("unknown op '%s'", op.c_str()));
}

/// "--qos tenantA=4:2:2000,500;tenantB=..." → per-tenant policies.
bool ParseQosSpec(const std::string& text,
                  std::map<std::string, TenantQos>* out) {
  for (const std::string& policy : Split(text, ';')) {
    if (policy.empty()) continue;
    const auto eq = policy.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string tenant = policy.substr(0, eq);
    const std::vector<std::string> parts =
        Split(policy.substr(eq + 1), ':');
    if (parts.size() != 3) return false;
    TenantQos qos;
    int after = 0;
    int every = 0;
    if (!ParseInt(parts[0], &after) || !ParseInt(parts[1], &every) ||
        after < 0 || every < 0) {
      return false;
    }
    qos.degrade_after_rounds = static_cast<std::size_t>(after);
    qos.degrade_every_rounds = static_cast<std::size_t>(every);
    for (const std::string& nodes_text : Split(parts[2], ',')) {
      int nodes = 0;
      if (!ParseInt(nodes_text, &nodes) || nodes <= 0) return false;
      GovernorOptions governor;
      governor.max_nodes = static_cast<std::uint64_t>(nodes);
      qos.ladder.push_back(governor);
    }
    if (qos.ladder.empty()) return false;
    (*out)[tenant] = qos;
  }
  return !out->empty();
}

/// The --chaos spec's keys.
constexpr KeyDef kChaosKeys[] = {
    {"write_fail", KeyKind::kNumber, 0, 1},
    {"sync_fail", KeyKind::kNumber, 0, 1},
    {"read_corrupt", KeyKind::kNumber, 0, 1},
    {"seed", KeyKind::kInt, 0, kUnbounded},
    {"match", KeyKind::kString},
    {"shed_every", KeyKind::kInt, 0, kUnbounded},
};

/// "--chaos write_fail=0.1,sync_fail=0.05,read_corrupt=0.1,seed=7,
/// match=ckpt,shed_every=3" → fault plan + shed cadence. Any subset of
/// keys; unknown keys are an error.
Status ParseChaosSpec(const std::string& text, FaultPlan* plan,
                      std::size_t* shed_every) {
  std::map<std::string, std::string> fields;
  for (const std::string& field : Split(text, ',')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" + field +
                                     "'");
    }
    fields[field.substr(0, eq)] = field.substr(eq + 1);
  }
  BAYESCROWD_ASSIGN_OR_RETURN(const JsonValue doc,
                              FlagsToJson(fields, {kChaosKeys}));
  BAYESCROWD_RETURN_NOT_OK(CheckKeys(doc, {kChaosKeys}, KeyStyle::kJson));
  plan->write_fail_rate = KeyValue(doc, "write_fail", 0.0);
  plan->sync_fail_rate = KeyValue(doc, "sync_fail", 0.0);
  plan->read_corrupt_rate = KeyValue(doc, "read_corrupt", 0.0);
  plan->seed = KeyValue(doc, "seed", plan->seed);
  plan->path_match = KeyValue<std::string>(doc, "match", "");
  *shed_every = KeyValue<std::size_t>(doc, "shed_every", 0);
  return Status::OK();
}

JsonValue RecoveryJson(const RecoveryReport& report) {
  JsonValue out = OkLine("recover");
  const std::pair<const char*, std::size_t> counts[] = {
      {"sessions_resumed", report.sessions_resumed},
      {"sessions_fresh", report.sessions_fresh},
      {"sessions_failed", report.sessions_failed},
      {"checkpoint_fallbacks", report.checkpoint_fallbacks},
      {"fingerprint_mismatches", report.fingerprint_mismatches},
      {"events_replayed", report.events_replayed},
      {"torn_tail_records", report.torn_tail_records},
      {"unknown_event_records", report.unknown_event_records},
  };
  for (const auto& [key, count] : counts) out[key] = count;
  JsonValue quarantined = JsonValue::Array();
  for (const std::string& id : report.quarantined) quarantined.Append(id);
  out["quarantined"] = std::move(quarantined);
  return out;
}

/// The server process's own flags.
constexpr KeyDef kServeFlags[] = {
    {"threads", KeyKind::kInt, 0, 1024},
    {"max_resident", KeyKind::kInt, 1, kUnbounded},
    {"max_per_tenant", KeyKind::kInt, 1, kUnbounded},
    {"qos", KeyKind::kString},
    {"metrics_prom", KeyKind::kString},
    {"flight_out", KeyKind::kString},
    {"state_dir", KeyKind::kString},
    {"recover", KeyKind::kBool},
    {"max_queue", KeyKind::kInt, 0, kUnbounded},
    {"retry_after_ms", KeyKind::kInt, 0, kUnbounded},
    {"chaos", KeyKind::kString},
};

int ServeMain(int argc, char** argv) {
  // A malformed, out-of-range or unknown flag is a usage error, never a
  // silent default.
  const Result<JsonValue> read =
      ReadFlags(argc - 1, argv + 1, {kServeFlags});
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.status().message().c_str());
    return 2;
  }
  const JsonValue& flags = read.value();
  SessionManager::Options options;
  options.threads = KeyValue(flags, "threads", options.threads);
  options.max_resident_sessions =
      KeyValue(flags, "max_resident", options.max_resident_sessions);
  options.max_sessions_per_tenant =
      KeyValue(flags, "max_per_tenant", options.max_sessions_per_tenant);
  options.max_queued_requests =
      KeyValue(flags, "max_queue", options.max_queued_requests);
  options.retry_after_ms =
      KeyValue(flags, "retry_after_ms", options.retry_after_ms);
  options.state_dir = KeyValue<std::string>(flags, "state_dir", "");
  const auto flight_out = KeyValue<std::string>(flags, "flight_out", "");
  const bool recover = KeyValue(flags, "recover", false);
  if (flags.Find("qos") != nullptr &&
      !ParseQosSpec(KeyValue<std::string>(flags, "qos", ""), &options.qos)) {
    std::fprintf(stderr, "bad --qos spec\n");
    return 2;
  }
  if (recover && options.state_dir.empty()) {
    std::fprintf(stderr, "--recover requires --state-dir\n");
    return 2;
  }
  if (flags.Find("flight_out") != nullptr) {
    const Status writable = obs::CheckFlightLogPath(flight_out);
    if (!writable.ok()) {
      std::fprintf(stderr, "--flight-out: %s\n",
                   writable.message().c_str());
      return 2;
    }
  }
  std::unique_ptr<obs::PrometheusFileExporter> prom_exporter;
  if (flags.Find("metrics_prom") != nullptr) {
    auto opened = obs::PrometheusFileExporter::Open(
        KeyValue<std::string>(flags, "metrics_prom", ""));
    if (!opened.ok()) {
      std::fprintf(stderr, "--metrics-prom: %s\n",
                   opened.status().message().c_str());
      return 2;
    }
    prom_exporter = std::move(opened).value();
  }

  FaultPlan chaos_plan;
  std::unique_ptr<FaultInjectingFileIo> chaos_io;
  if (const auto chaos = KeyValue<std::string>(flags, "chaos", "");
      !chaos.empty()) {
    std::size_t shed_every = 0;
    const Status parsed = ParseChaosSpec(chaos, &chaos_plan, &shed_every);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --chaos spec: %s\n",
                   parsed.message().c_str());
      return 2;
    }
    options.debug_shed_every = shed_every;
    chaos_io = std::make_unique<FaultInjectingFileIo>(chaos_plan);
    options.io = chaos_io.get();
  }

  const std::string default_checkpoint_dir =
      options.state_dir.empty() ? std::string()
                                : options.state_dir + "/checkpoints";

  SessionManager manager(options);
  if (recover) {
    const auto resolver =
        [&default_checkpoint_dir](
            const ManifestEvent& event) -> Result<SessionSpec> {
      BAYESCROWD_ASSIGN_OR_RETURN(const JsonValue doc,
                                  JsonValue::Parse(event.spec_blob));
      SessionSpec spec;
      BAYESCROWD_RETURN_NOT_OK(BuildSessionSpec(
          doc, default_checkpoint_dir, /*admit=*/nullptr, &spec));
      return spec;
    };
    Result<RecoveryReport> recovered = manager.Recover(resolver);
    if (!recovered.ok()) {
      std::cout << ErrorLine(recovered.status().ToString()).Dump() << "\n"
                << std::flush;
      return 1;
    }
    std::cout << RecoveryJson(recovered.value()).Dump() << "\n"
              << std::flush;
  }

  std::string line;
  bool shutdown = false;
  std::uint64_t requests = 0;
  while (!shutdown && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    JsonValue response;
    Result<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      response =
          ErrorLine(StrFormat("bad request line: %s",
                              parsed.status().ToString().c_str()));
    } else {
      response = HandleOne(&manager, parsed.value(),
                           default_checkpoint_dir);
      const JsonValue* op = response.Find("op");
      shutdown = op != nullptr && op->AsString() == "shutdown";
    }
    std::cout << response.Dump() << "\n" << std::flush;
    if (prom_exporter != nullptr) {
      const Status written =
          prom_exporter->OnRound(++requests, manager.MetricsSnapshot());
      if (!written.ok()) {
        std::fprintf(stderr, "metrics-prom: %s\n",
                     written.ToString().c_str());
      }
    }
  }
  if (!flight_out.empty()) {
    const Status written = manager.flight()->WriteJsonl(flight_out);
    if (!written.ok()) {
      std::fprintf(stderr, "flight-out: %s\n", written.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace bayescrowd

int main(int argc, char** argv) {
  return bayescrowd::ServeMain(argc, argv);
}

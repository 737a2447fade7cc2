// bayescrowd_serve: BayesCrowd as a resident multi-session service.
//
// Speaks a line-delimited JSON protocol on stdin/stdout: one request
// object per line in, exactly one response object per line out (always
// `{"ok":true,...}` or `{"ok":false,"error":"..."}`). A malformed line
// yields a one-line diagnostic and the connection survives — the
// server never exits on bad input, only on `shutdown` or EOF.
//
//   {"op":"create","id":"s1","tenant":"acme",
//    "dataset":{"kind":"indep","n":40,"d":3,"levels":4,"seed":7,
//               "missing_rate":0.2,"missing_seed":5},
//    "budget":12,"latency":3}
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
#include <type_traits>
#include <vector>

#include "common/fileio.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/export.h"
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

/// Reads integer `key` of `doc` into `*out`, leaving it untouched when
/// the key is absent. A non-integer value, or one below `min`, is an
/// InvalidArgument naming the key: a negative count would otherwise
/// wrap around when cast to an unsigned size.
template <typename T>
Status ReadInt(const JsonValue& doc, const char* key, std::int64_t min,
               T* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind() != JsonValue::Kind::kInt || v->AsInt() < min) {
    return Status::InvalidArgument(
        StrFormat("'%s' must be an integer >= %lld", key,
                  static_cast<long long>(min)));
  }
  *out = static_cast<T>(v->AsInt());
  return Status::OK();
}

/// Reads number `key` of `doc` like ReadInt; any JSON number passes.
Status ReadDouble(const JsonValue& doc, const char* key, double* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return Status::InvalidArgument(
        StrFormat("'%s' must be a number", key));
  }
  *out = v->AsDouble();
  return Status::OK();
}

std::string FindString(const JsonValue& doc, const char* key,
                       const std::string& fallback) {
  const JsonValue* v = doc.Find(key);
  return v == nullptr ? fallback : v->AsString();
}

bool FindBool(const JsonValue& doc, const char* key, bool fallback) {
  const JsonValue* v = doc.Find(key);
  return v == nullptr ? fallback : v->AsBool();
}

/// Builds (truth, incomplete, canonical descriptor) from a "dataset"
/// object. The descriptor doubles as the default shared-cache key, so
/// two sessions over the same generated data share warm starts.
Status BuildDataset(const JsonValue& spec, Table* truth, Table* incomplete,
                    std::string* descriptor) {
  const std::string kind = FindString(spec, "kind", "indep");
  std::size_t n = 40;
  std::size_t d = 3;
  Level levels = 4;
  std::uint64_t seed = 7;
  double rate = 0.2;
  std::uint64_t miss_seed = 5;
  BAYESCROWD_RETURN_NOT_OK(ReadInt(spec, "n", 1, &n));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(spec, "d", 1, &d));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(spec, "levels", 2, &levels));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(spec, "seed", 0, &seed));
  BAYESCROWD_RETURN_NOT_OK(ReadDouble(spec, "missing_rate", &rate));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(spec, "missing_seed", 0, &miss_seed));
  if (kind == "indep") {
    *truth = MakeIndependent(n, d, levels, seed);
  } else if (kind == "corr") {
    *truth = MakeCorrelated(n, d, levels, seed);
  } else if (kind == "anti") {
    *truth = MakeAnticorrelated(n, d, levels, seed);
  } else if (kind == "nba") {
    *truth = MakeNbaLike(n, seed);
  } else if (kind == "adult") {
    *truth = MakeAdultLike(n, seed);
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown dataset kind '%s'", kind.c_str()));
  }
  Rng rng(miss_seed);
  *incomplete = InjectMissingUniform(*truth, rate, rng);
  *descriptor = StrFormat("%s:n=%zu:d=%zu:levels=%d:seed=%llu:rate=%.6f:"
                          "mseed=%llu",
                          kind.c_str(), n, d, static_cast<int>(levels),
                          static_cast<unsigned long long>(seed), rate,
                          static_cast<unsigned long long>(miss_seed));
  return Status::OK();
}

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

/// Builds the full SessionSpec a "create" request describes. Shared by
/// the create verb and --recover's resolver (which re-parses the
/// request journaled in the manifest's spec_blob), so a recovered
/// session is admitted through the identical code path. The canonical
/// re-dump of the request is stored as the spec's manifest_blob.
Status SpecFromJson(const JsonValue& doc,
                    const std::string& default_checkpoint_dir,
                    SessionSpec* spec) {
  spec->id = FindString(doc, "id", "");
  spec->tenant = FindString(doc, "tenant", "");
  const JsonValue* dataset = doc.Find("dataset");
  const JsonValue empty = JsonValue::Object();
  std::string descriptor;
  BAYESCROWD_RETURN_NOT_OK(
      BuildDataset(dataset != nullptr ? *dataset : empty,
                   &spec->ground_truth, &spec->incomplete, &descriptor));
  spec->cache_key = FindString(doc, "cache_key", descriptor);

  BayesCrowdOptions& options = spec->options;
  options.budget = 12;
  options.latency = 3;
  options.strategy.m = 3;
  BAYESCROWD_RETURN_NOT_OK(ReadDouble(doc, "alpha", &options.ctable.alpha));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(doc, "budget", 0, &options.budget));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(doc, "latency", 1, &options.latency));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(doc, "m", 0, &options.strategy.m));
  BAYESCROWD_RETURN_NOT_OK(
      ReadInt(doc, "checkpoint_every", 0, &options.checkpoint_every));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(doc, "governor_max_nodes", 0,
                                   &options.probability.governor.max_nodes));

  BAYESCROWD_RETURN_NOT_OK(
      ReadDouble(doc, "accuracy", &spec->platform.worker_accuracy));
  BAYESCROWD_RETURN_NOT_OK(
      ReadInt(doc, "platform_seed", 0, &spec->platform.seed));
  BAYESCROWD_RETURN_NOT_OK(ReadInt(doc, "workers_per_task", 1,
                                   &spec->platform.workers_per_task));

  // "marketplace": {...} swaps the flat simulated crowd for the
  // adversarial worker marketplace. Parsed here so --recover rebuilds
  // the same platform from the journaled request.
  if (const JsonValue* market = doc.Find("marketplace");
      market != nullptr) {
    spec->use_marketplace = true;
    MarketplaceOptions& mo = spec->marketplace;
    BAYESCROWD_RETURN_NOT_OK(ReadInt(*market, "pool_size", 3, &mo.pool_size));
    BAYESCROWD_RETURN_NOT_OK(ReadDouble(*market, "spam_rate", &mo.spam_rate));
    if (mo.spam_rate < 0.0 || mo.spam_rate > 1.0) {
      return Status::InvalidArgument(
          "marketplace.spam_rate must be in [0, 1]");
    }
    BAYESCROWD_RETURN_NOT_OK(
        ReadInt(*market, "base_votes", 1, &mo.base_votes));
    mo.max_votes = mo.base_votes;
    BAYESCROWD_RETURN_NOT_OK(
        ReadInt(*market, "max_votes", mo.base_votes, &mo.max_votes));
    BAYESCROWD_RETURN_NOT_OK(
        ReadDouble(*market, "churn_rate", &mo.churn_rate));
    mo.defend = FindBool(*market, "defend", true);
    BAYESCROWD_RETURN_NOT_OK(ReadInt(*market, "seed", 0, &mo.seed));
    if (mo.max_votes > mo.base_votes) {
      spec->options.adaptive.enabled = true;
      spec->options.adaptive.base_votes =
          static_cast<std::size_t>(mo.base_votes);
      spec->options.adaptive.max_votes =
          static_cast<std::size_t>(mo.max_votes);
    }
  }

  spec->warm_start = FindBool(doc, "warm_start", false);
  spec->checkpoint_dir = FindString(doc, "checkpoint_dir", "");
  if (spec->checkpoint_dir.empty()) {
    spec->checkpoint_dir = default_checkpoint_dir;
  }
  spec->resume = FindBool(doc, "resume", false);
  spec->manifest_blob = doc.Dump();
  return Status::OK();
}

JsonValue HandleCreate(SessionManager* manager, const JsonValue& doc,
                       const std::string& default_checkpoint_dir) {
  SessionSpec spec;
  const Status built = SpecFromJson(doc, default_checkpoint_dir, &spec);
  if (!built.ok()) return ErrorLine(built.ToString());
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
  const std::string id = FindString(doc, "id", "");
  std::size_t rounds = 1;
  std::int64_t deadline_ms = 0;
  Status read = ReadInt(doc, "rounds", 0, &rounds);
  if (read.ok()) read = ReadInt(doc, "deadline_ms", 0, &deadline_ms);
  if (!read.ok()) return ErrorLine(read.ToString());
  Result<AdvanceOutcome> advanced =
      manager->Advance(id, rounds, deadline_ms);
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

JsonValue HandleFinish(SessionManager* manager, const JsonValue& doc) {
  const std::string id = FindString(doc, "id", "");
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
  const std::string op = FindString(doc, "op", "");
  if (op == "create") {
    return HandleCreate(manager, doc, default_checkpoint_dir);
  }
  if (op == "advance") return HandleAdvance(manager, doc);
  if (op == "finish") return HandleFinish(manager, doc);
  if (op == "checkpoint") {
    const std::string id = FindString(doc, "id", "");
    const Status st = manager->Checkpoint(id);
    if (!st.ok()) return StatusLine(st);
    JsonValue out = OkLine("checkpoint");
    out["id"] = id;
    return out;
  }
  if (op == "evict") {
    const std::string id = FindString(doc, "id", "");
    const Status st = manager->Evict(id);
    if (!st.ok()) return ErrorLine(st.ToString());
    JsonValue out = OkLine("evict");
    out["id"] = id;
    return out;
  }
  if (op == "info") {
    Result<SessionInfo> info = manager->Info(FindString(doc, "id", ""));
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

/// "--chaos write_fail=0.1,sync_fail=0.05,read_corrupt=0.1,seed=7,
/// match=ckpt,shed_every=3" → fault plan + shed cadence. Any subset of
/// keys; unknown keys are an error.
bool ParseChaosSpec(const std::string& text, FaultPlan* plan,
                    std::size_t* shed_every) {
  for (const std::string& field : Split(text, ',')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "match") {
      plan->path_match = value;
      continue;
    }
    if (key == "seed" || key == "shed_every") {
      int v = 0;
      if (!ParseInt(value, &v) || v < 0) return false;
      if (key == "seed") {
        plan->seed = static_cast<std::uint64_t>(v);
      } else {
        *shed_every = static_cast<std::size_t>(v);
      }
      continue;
    }
    double rate = 0.0;
    if (!ParseDouble(value, &rate) || rate < 0.0 || rate > 1.0) {
      return false;
    }
    if (key == "write_fail") {
      plan->write_fail_rate = rate;
    } else if (key == "sync_fail") {
      plan->sync_fail_rate = rate;
    } else if (key == "read_corrupt") {
      plan->read_corrupt_rate = rate;
    } else {
      return false;
    }
  }
  return true;
}

JsonValue RecoveryJson(const RecoveryReport& report) {
  JsonValue out = OkLine("recover");
  out["sessions_resumed"] =
      static_cast<std::int64_t>(report.sessions_resumed);
  out["sessions_fresh"] = static_cast<std::int64_t>(report.sessions_fresh);
  out["sessions_failed"] =
      static_cast<std::int64_t>(report.sessions_failed);
  out["checkpoint_fallbacks"] =
      static_cast<std::int64_t>(report.checkpoint_fallbacks);
  out["fingerprint_mismatches"] =
      static_cast<std::int64_t>(report.fingerprint_mismatches);
  out["events_replayed"] =
      static_cast<std::int64_t>(report.events_replayed);
  out["torn_tail_records"] =
      static_cast<std::int64_t>(report.torn_tail_records);
  out["unknown_event_records"] =
      static_cast<std::int64_t>(report.unknown_event_records);
  JsonValue quarantined = JsonValue::Array();
  for (const std::string& id : report.quarantined) {
    quarantined.Append(JsonValue(id));
  }
  out["quarantined"] = std::move(quarantined);
  return out;
}

int ServeMain(int argc, char** argv) {
  SessionManager::Options options;
  std::string metrics_prom;
  std::string flight_out;
  std::string chaos_spec;
  bool recover = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    // Integer flags: a malformed or too-small value is a usage error,
    // never a silent default.
    const auto int_flag = [&](int min, auto* out) {
      const std::string text = next();
      int v = 0;
      if (!ParseInt(text, &v) || v < min) {
        std::fprintf(stderr, "%s must be an integer >= %d, got '%s'\n",
                     arg.c_str(), min, text.c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(v);
      return true;
    };
    if (arg == "--threads") {
      if (!int_flag(0, &options.threads)) return 2;
    } else if (arg == "--max-resident") {
      if (!int_flag(1, &options.max_resident_sessions)) return 2;
    } else if (arg == "--max-per-tenant") {
      if (!int_flag(1, &options.max_sessions_per_tenant)) return 2;
    } else if (arg == "--qos") {
      if (!ParseQosSpec(next(), &options.qos)) {
        std::fprintf(stderr, "bad --qos spec\n");
        return 2;
      }
    } else if (arg == "--metrics-prom") {
      metrics_prom = next();
    } else if (arg == "--flight-out") {
      flight_out = next();
    } else if (arg == "--state-dir") {
      options.state_dir = next();
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--max-queue") {
      if (!int_flag(0, &options.max_queued_requests)) return 2;
    } else if (arg == "--retry-after-ms") {
      if (!int_flag(0, &options.retry_after_ms)) return 2;
    } else if (arg == "--chaos") {
      chaos_spec = next();
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (recover && options.state_dir.empty()) {
    std::fprintf(stderr, "--recover requires --state-dir\n");
    return 2;
  }

  FaultPlan chaos_plan;
  std::unique_ptr<FaultInjectingFileIo> chaos_io;
  if (!chaos_spec.empty()) {
    std::size_t shed_every = 0;
    if (!ParseChaosSpec(chaos_spec, &chaos_plan, &shed_every)) {
      std::fprintf(stderr, "bad --chaos spec\n");
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
      BAYESCROWD_RETURN_NOT_OK(
          SpecFromJson(doc, default_checkpoint_dir, &spec));
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
      const JsonValue* op = parsed.value().Find("op");
      shutdown = op != nullptr && op->AsString() == "shutdown";
    }
    std::cout << response.Dump() << "\n" << std::flush;
    if (!metrics_prom.empty()) {
      const std::string text =
          obs::ToPrometheusText(manager.MetricsSnapshot());
      std::FILE* file = std::fopen(metrics_prom.c_str(), "w");
      if (file != nullptr) {
        std::fwrite(text.data(), 1, text.size(), file);
        std::fclose(file);
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

#include "core/query_spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "bayesnet/structure_learning.h"
#include "common/string_util.h"

namespace bayescrowd {

namespace {

using obs::JsonValue;

constexpr KeyDef kQueryKeys[] = {
    {"strategy", KeyKind::kString, 0, 0, "fbs|ubs|hhs"},
    {"budget", KeyKind::kInt, 0, 1e9},
    {"latency", KeyKind::kInt, 1, 1e6},
    {"tasks_per_round", KeyKind::kInt, 1, 1e9},
    {"alpha", KeyKind::kNumber, -1, 1},
    {"m", KeyKind::kInt, 0, kUnbounded},
    {"pessimistic", KeyKind::kBool},
    {"breaker_threshold", KeyKind::kInt, 0, kUnbounded},
    {"solver_node_budget", KeyKind::kInt, 1, kUnbounded},
    {"solver_component_budget", KeyKind::kInt, 1, kUnbounded},
    {"solver_deadline_ms", KeyKind::kInt, 1, kUnbounded},
    {"solver_ladder", KeyKind::kString, 0, 0, "full|interval|sample|strict"},
    {"structure", KeyKind::kString, 0, 0, "hillclimb|chowliu|none"},
    {"accuracy", KeyKind::kNumber, 0, 1},
    {"seed", KeyKind::kInt, 0, kUnbounded},
    // The worker pool size, and the most votes a task may buy: neither
    // can be below the base vote fan-out.
    {"marketplace", KeyKind::kInt, MarketplaceOptions{}.base_votes, 100000},
    {"spam_rate", KeyKind::kNumber, 0, 1},
    {"adaptive_votes", KeyKind::kInt, MarketplaceOptions{}.base_votes, 100},
    {"no_defense", KeyKind::kBool},
};

constexpr const char* kStrategyNames[] = {"fbs", "ubs", "hhs"};
constexpr const char* kStructureNames[] = {"hillclimb", "chowliu", "none"};

std::size_t IndexOf(std::span<const char* const> names,
                    const std::string& name) {
  return static_cast<std::size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

/// `'budget'` in a request, `--budget` on the command line.
std::string Spell(const std::string& name, KeyStyle style) {
  if (style == KeyStyle::kJson) return "'" + name + "'";
  std::string flag = "--" + name;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

/// What `def` accepts, as a diagnostic phrases it.
std::string Expected(const KeyDef& def) {
  if (def.kind == KeyKind::kBool) return "true or false";
  if (def.kind == KeyKind::kObject) return "an object";
  if (def.kind == KeyKind::kString) {
    return def.choices != nullptr ? StrFormat("one of %s", def.choices)
                                  : std::string("a string");
  }
  const bool is_int = def.kind == KeyKind::kInt;
  const auto bound = [&](double v) {
    return is_int ? StrFormat("%lld", static_cast<long long>(v))
                  : StrFormat("%g", v);
  };
  return (is_int ? "an integer " : "a number ") +
         (def.max == kUnbounded
              ? ">= " + bound(def.min)
              : "in [" + bound(def.min) + ", " + bound(def.max) + "]");
}

bool Accepts(const KeyDef& def, const JsonValue& value) {
  switch (def.kind) {
    case KeyKind::kInt:
      if (value.kind() != JsonValue::Kind::kInt) return false;
      break;
    case KeyKind::kNumber:
      if (!value.is_number()) return false;
      break;
    case KeyKind::kBool:
      return value.kind() == JsonValue::Kind::kBool;
    case KeyKind::kObject:
      return value.kind() == JsonValue::Kind::kObject;
    case KeyKind::kString: {
      if (value.kind() != JsonValue::Kind::kString) return false;
      if (def.choices == nullptr) return true;
      const std::vector<std::string> choices = Split(def.choices, '|');
      return std::count(choices.begin(), choices.end(), value.AsString()) > 0;
    }
  }
  // NaN fails both comparisons, so it is out of every range.
  const double v = value.AsDouble();
  return v >= def.min && v <= def.max;
}

const KeyDef* FindKey(const std::vector<KeyTable>& tables,
                      const std::string& name) {
  for (const KeyTable table : tables) {
    for (const KeyDef& def : table) {
      if (name == def.name) return &def;
    }
  }
  return nullptr;
}

}  // namespace

Status CheckKeys(const JsonValue& doc, const std::vector<KeyTable>& tables,
                 KeyStyle style, const std::string& prefix) {
  if (doc.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("expected a JSON object");
  }
  for (const auto& [name, value] : doc.members()) {
    const std::string spelled = Spell(prefix + name, style);
    const KeyDef* def = FindKey(tables, name);
    if (def == nullptr) {
      return Status::InvalidArgument(StrFormat(
          "unknown %s %s", style == KeyStyle::kJson ? "key" : "flag",
          spelled.c_str()));
    }
    if (!Accepts(*def, value)) {
      // A flag's value is quoted as typed; a request's as JSON.
      const std::string got =
          style == KeyStyle::kJson ? value.Dump()
          : value.kind() == JsonValue::Kind::kString
              ? "'" + value.AsString() + "'"
              : "'" + value.Dump() + "'";
      return Status::InvalidArgument(
          StrFormat("%s must be %s, got %s", spelled.c_str(),
                    Expected(*def).c_str(), got.c_str()));
    }
  }
  return Status::OK();
}

Result<JsonValue> FlagsToJson(const std::map<std::string, std::string>& flags,
                              const std::vector<KeyTable>& tables) {
  JsonValue doc = JsonValue::Object();
  for (const auto& [flag, text] : flags) {
    std::string name = flag;
    std::replace(name.begin(), name.end(), '-', '_');
    const KeyDef* def = FindKey(tables, name);
    if (def == nullptr) {
      return Status::InvalidArgument(
          StrFormat("unknown flag --%s", flag.c_str()));
    }
    JsonValue& value = doc[name] = JsonValue(text);
    std::int64_t i = 0;
    double d = 0.0;
    const char* end = text.data() + text.size();
    if (def->kind == KeyKind::kInt && !text.empty() &&
        std::from_chars(text.data(), end, i).ptr == end) {
      value = i;
    } else if (def->kind == KeyKind::kNumber && ParseDouble(text, &d) &&
               std::isfinite(d)) {
      value = d;
    } else if (def->kind == KeyKind::kBool &&
               (text.empty() || text == "true" || text == "false")) {
      value = text != "false";
    }
  }
  return doc;
}

Result<JsonValue> ReadFlags(int argc, char** argv,
                            const std::vector<KeyTable>& tables) {
  std::map<std::string, std::string> flags;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument(
          StrFormat("unexpected argument '%s'", arg.c_str()));
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "";  // A bool flag.
    }
  }
  BAYESCROWD_ASSIGN_OR_RETURN(JsonValue doc, FlagsToJson(flags, tables));
  BAYESCROWD_RETURN_NOT_OK(CheckKeys(doc, tables, KeyStyle::kFlag));
  return doc;
}

const char* PosteriorStructureToString(PosteriorStructure structure) {
  return kStructureNames[static_cast<std::size_t>(structure)];
}

KeyTable QueryKeys() { return kQueryKeys; }

Result<QuerySpec> ParseQuerySpec(const JsonValue& doc,
                                 const std::vector<KeyTable>& frontend,
                                 KeyStyle style) {
  std::vector<KeyTable> tables = {QueryKeys()};
  tables.insert(tables.end(), frontend.begin(), frontend.end());
  BAYESCROWD_RETURN_NOT_OK(CheckKeys(doc, tables, style));
  const auto has = [&](const char* key) { return doc.Find(key) != nullptr; };
  const auto conflict = [&](const char* key, const char* verb,
                            const char* other) {
    return Status::InvalidArgument(Spell(key, style) + " " + verb + " " +
                                   Spell(other, style));
  };
  // The marketplace draws its own worker skills, and its modifiers mean
  // nothing without it; a batch size is another spelling of a latency.
  if (has("marketplace") && has("accuracy")) {
    return conflict("accuracy", "cannot be combined with", "marketplace");
  }
  for (const char* key : {"spam_rate", "adaptive_votes", "no_defense"}) {
    if (has(key) && !has("marketplace")) {
      return conflict(key, "needs", "marketplace");
    }
  }
  if (has("tasks_per_round") && has("latency")) {
    return conflict("tasks_per_round", "cannot be combined with", "latency");
  }

  QuerySpec spec;
  BayesCrowdOptions& options = spec.options;
  GovernorOptions& governor = options.probability.governor;
  options.strategy.kind = static_cast<StrategyKind>(IndexOf(
      kStrategyNames, KeyValue<std::string>(doc, "strategy", "hhs")));
  options.budget = KeyValue(doc, "budget", options.budget);
  options.latency = KeyValue(doc, "latency", options.latency);
  if (has("tasks_per_round")) {
    const auto per_round = KeyValue<std::size_t>(doc, "tasks_per_round", 1);
    options.latency = std::max<std::size_t>(
        1, (options.budget + per_round - 1) / per_round);
  }
  options.ctable.alpha = KeyValue(doc, "alpha", options.ctable.alpha);
  options.strategy.m = KeyValue(doc, "m", options.strategy.m);
  options.strategy.pessimistic =
      KeyValue(doc, "pessimistic", options.strategy.pessimistic);
  options.breaker_threshold =
      KeyValue(doc, "breaker_threshold", options.breaker_threshold);
  governor.max_nodes = KeyValue(doc, "solver_node_budget", governor.max_nodes);
  governor.max_components =
      KeyValue(doc, "solver_component_budget", governor.max_components);
  governor.deadline_ms =
      KeyValue(doc, "solver_deadline_ms", governor.deadline_ms);
  ParseLadderMode(KeyValue<std::string>(doc, "solver_ladder", "full"),
                  &governor.ladder);
  spec.structure = static_cast<PosteriorStructure>(IndexOf(
      kStructureNames, KeyValue<std::string>(doc, "structure", "hillclimb")));

  // One seed drives whichever crowd is in force.
  spec.flat.worker_accuracy =
      KeyValue(doc, "accuracy", spec.flat.worker_accuracy);
  spec.flat.seed = KeyValue(doc, "seed", spec.flat.seed);
  spec.market.seed = spec.flat.seed;
  spec.use_marketplace = has("marketplace");
  spec.market.pool_size = KeyValue(doc, "marketplace", spec.market.pool_size);
  spec.market.spam_rate = KeyValue(doc, "spam_rate", spec.market.spam_rate);
  spec.market.defend = !KeyValue(doc, "no_defense", false);
  if (has("adaptive_votes")) {
    spec.market.max_votes =
        KeyValue(doc, "adaptive_votes", spec.market.max_votes);
    options.adaptive.enabled = true;
    options.adaptive.base_votes =
        static_cast<std::size_t>(spec.market.base_votes);
    options.adaptive.max_votes =
        static_cast<std::size_t>(spec.market.max_votes);
  }
  return spec;
}

JsonValue CrowdToJson(const QuerySpec& spec) {
  JsonValue out = JsonValue::Object();
  if (!spec.use_marketplace) {
    out["accuracy"] = spec.flat.worker_accuracy;
    out["seed"] = spec.flat.seed;
    return out;
  }
  out["seed"] = spec.market.seed;
  out["marketplace"] = spec.market.pool_size;
  out["spam_rate"] = spec.market.spam_rate;
  if (spec.options.adaptive.enabled) {
    out["adaptive_votes"] = spec.market.max_votes;
  }
  out["no_defense"] = !spec.market.defend;
  return out;
}

JsonValue QuerySpecToJson(const QuerySpec& spec) {
  const BayesCrowdOptions& options = spec.options;
  const GovernorOptions& governor = options.probability.governor;
  JsonValue out = JsonValue::Object();
  out["strategy"] =
      kStrategyNames[static_cast<std::size_t>(options.strategy.kind)];
  out["budget"] = options.budget;
  out["latency"] = options.latency;
  out["alpha"] = options.ctable.alpha;
  out["m"] = options.strategy.m;
  out["pessimistic"] = options.strategy.pessimistic;
  out["breaker_threshold"] = options.breaker_threshold;
  // Unset solver limits (0) are not keys.
  if (governor.max_nodes > 0) out["solver_node_budget"] = governor.max_nodes;
  if (governor.max_components > 0) {
    out["solver_component_budget"] = governor.max_components;
  }
  if (governor.deadline_ms > 0) {
    out["solver_deadline_ms"] = governor.deadline_ms;
  }
  out["solver_ladder"] = LadderModeToString(governor.ladder);
  out["structure"] = PosteriorStructureToString(spec.structure);
  const JsonValue crowd = CrowdToJson(spec);
  for (const auto& [name, value] : crowd.members()) out[name] = value;
  return out;
}

Result<std::unique_ptr<PosteriorModel>> PosteriorModel::Learn(
    PosteriorStructure structure, Table incomplete) {
  if (structure == PosteriorStructure::kNone) {
    std::unique_ptr<PosteriorModel> model(new PosteriorModel());
    model->provider_ =
        std::make_unique<UniformPosteriorProvider>(incomplete.schema());
    model->table_ = std::move(incomplete);
    return model;
  }
  BAYESCROWD_ASSIGN_OR_RETURN(
      const Dag dag, structure == PosteriorStructure::kChowLiu
                         ? ChowLiuStructure(incomplete)
                         : HillClimbStructure(incomplete));
  BAYESCROWD_ASSIGN_OR_RETURN(
      BayesianNetwork network,
      BayesianNetwork::Create(incomplete.schema(), dag));
  BAYESCROWD_RETURN_NOT_OK(network.FitParameters(incomplete));
  return FromNetwork(std::move(network), std::move(incomplete));
}

std::unique_ptr<PosteriorModel> PosteriorModel::FromNetwork(
    BayesianNetwork network, Table incomplete) {
  std::unique_ptr<PosteriorModel> model(new PosteriorModel());
  model->table_ = std::move(incomplete);
  model->network_ = std::make_unique<BayesianNetwork>(std::move(network));
  model->provider_ =
      std::make_unique<BnPosteriorProvider>(*model->network_, model->table_);
  return model;
}

std::unique_ptr<CrowdPlatform> MakeSimulatedCrowd(
    const Table& truth, bool use_marketplace,
    const SimulatedPlatformOptions& flat, const MarketplaceOptions& market,
    obs::MetricsRegistry* metrics, obs::FlightRecorder* flight) {
  if (!use_marketplace) {
    return std::make_unique<SimulatedCrowdPlatform>(truth, flat);
  }
  auto platform = std::make_unique<MarketplaceCrowdPlatform>(truth, market);
  if (metrics != nullptr) platform->BindMetrics(metrics);
  if (flight != nullptr) platform->SetFlightRecorder(flight);
  return platform;
}

}  // namespace bayescrowd

// One query, one spec.
//
// The paper defines a query by its budget B, latency L, task-selection
// strategy (FBS / UBS / HHS) with α and m, answered over Bayesian-network
// posteriors for the missing cells, by a crowd. QuerySpec is that
// definition, plus the governed solver's knobs, and ParseQuerySpec is
// the one reader of it: the CLI's `run` converts its query flags into
// the same JSON keys (`--solver-node-budget 4` is
// `"solver_node_budget":4`) and the serve tool's `create` request is
// such an object. Every default is the library struct's default.
//
// A key table (KeyDef) describes each key: name, JSON kind, and range.
// The reader checks every member against the tables before any value
// is narrowed to its destination type, and rejects unknown keys, wrong
// kinds, out-of-range values and contradictory combinations with one
// InvalidArgument naming the key. Frontend-only settings (data paths,
// exports, checkpoints, ...) are described by the frontend's own
// tables of the same type and checked in the same pass.
//
// The module also owns the builders both frontends need: the posterior
// model a spec names and the simulated crowd it describes. (The dataset
// generator dispatch is data/generators.h's MakeDataset.)

#ifndef BAYESCROWD_CORE_QUERY_SPEC_H_
#define BAYESCROWD_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "bayesnet/imputation.h"
#include "bayesnet/network.h"
#include "common/result.h"
#include "core/framework.h"
#include "crowd/marketplace.h"
#include "crowd/platform.h"
#include "data/table.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace bayescrowd {

/// The JSON kind of a key's value.
enum class KeyKind : std::uint8_t { kInt, kNumber, kBool, kString, kObject };

/// Upper bound of a key with no limit beyond its destination type.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One key of a settings table. `name` is the JSON member; its
/// command-line flag is the same name with '-' for '_'. Numbers must lie
/// in [min, max]; a string key with `choices` ("a|b|c") accepts only
/// those values.
struct KeyDef {
  const char* name;
  KeyKind kind;
  double min = 0.0;
  double max = 0.0;
  const char* choices = nullptr;
};
using KeyTable = std::span<const KeyDef>;

/// How a diagnostic spells a key: `'budget'` in a JSON request,
/// `--budget` on the command line.
enum class KeyStyle : std::uint8_t { kJson, kFlag };

/// Checks every member of the object `doc` against the union of
/// `tables`. An unknown key, a value of the wrong kind, a number out of
/// range or a string outside its choices is one InvalidArgument naming
/// the key. `prefix` qualifies the keys of a nested block ("dataset.").
Status CheckKeys(const obs::JsonValue& doc,
                 const std::vector<KeyTable>& tables, KeyStyle style,
                 const std::string& prefix = "");

/// Flags as a JSON object (names without the dashes): each value
/// becomes its key's kind (a bool flag given without a value is true);
/// a value that does not convert stays a string, so CheckKeys reports
/// it against the key. A flag no table knows is InvalidArgument.
Result<obs::JsonValue> FlagsToJson(
    const std::map<std::string, std::string>& flags,
    const std::vector<KeyTable>& tables);

/// A command line (`--name value`, `--name=value`, or a bare `--name`)
/// through FlagsToJson and CheckKeys: the checked flags, or one
/// InvalidArgument naming the first offending flag or argument.
Result<obs::JsonValue> ReadFlags(int argc, char** argv,
                                 const std::vector<KeyTable>& tables);

/// Member `key` of a checked `doc` as T (an integer or floating-point
/// type, bool or std::string), or `fallback` when absent.
template <typename T>
T KeyValue(const obs::JsonValue& doc, const char* key, T fallback) {
  const obs::JsonValue* v = doc.Find(key);
  if (v == nullptr) return fallback;
  if constexpr (std::is_same_v<T, bool>) {
    return v->AsBool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v->AsString();
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(v->AsDouble());
  } else {
    return static_cast<T>(v->AsInt());
  }
}

/// The network a query learns its posteriors from.
enum class PosteriorStructure : std::uint8_t {
  kHillClimb,  // BIC hill climbing (the default).
  kChowLiu,    // Maximum-likelihood tree.
  kNone,       // No network: uniform posteriors.
};

/// The structure's key value: "hillclimb", "chowliu" or "none".
const char* PosteriorStructureToString(PosteriorStructure structure);

/// A BayesCrowd query.
struct QuerySpec {
  /// Strategy, budget, latency, α, m, pessimism, breaker threshold,
  /// governor and adaptive-vote charging. The fields no query
  /// key sets (pool, sinks, metrics, threads, ...) keep their defaults
  /// for the frontend to fill in.
  BayesCrowdOptions options;

  PosteriorStructure structure = PosteriorStructure::kHillClimb;

  /// The simulated crowd: the adversarial marketplace when
  /// `use_marketplace`, else the flat accuracy mixture.
  bool use_marketplace = false;
  SimulatedPlatformOptions flat;
  MarketplaceOptions market;
};

/// The query keys, in canonical dump order.
KeyTable QueryKeys();

/// Reads the query keys of `doc` over their defaults. Every member of
/// `doc` must be a query key or a key of a `frontend` table (checked,
/// but left for the caller to read).
Result<QuerySpec> ParseQuerySpec(const obs::JsonValue& doc,
                                 const std::vector<KeyTable>& frontend = {},
                                 KeyStyle style = KeyStyle::kJson);

/// The canonical dump: every query key that is set, in QueryKeys()
/// order, defaults included (solver budgets and the marketplace keys
/// appear only when in force). Parsing a dump and dumping it again is
/// byte-identical.
obs::JsonValue QuerySpecToJson(const QuerySpec& spec);

/// The crowd keys of the canonical dump alone: what a checkpoint
/// fingerprint binds about the platform.
obs::JsonValue CrowdToJson(const QuerySpec& spec);

/// A posterior source that owns the table and the network it reads, so
/// it can outlive (and be shared beyond) the tables it was built from.
class PosteriorModel : public PosteriorProvider {
 public:
  /// Learns `structure`'s network from `incomplete` and fits its
  /// parameters; kNone gives uniform posteriors and no network.
  static Result<std::unique_ptr<PosteriorModel>> Learn(
      PosteriorStructure structure, Table incomplete);

  /// The posteriors of an already learned network (one loaded from
  /// disk, say) over `incomplete`.
  static std::unique_ptr<PosteriorModel> FromNetwork(
      BayesianNetwork network, Table incomplete);

  // The provider holds the address of the table and network.
  PosteriorModel(const PosteriorModel&) = delete;
  PosteriorModel& operator=(const PosteriorModel&) = delete;

  Result<std::vector<double>> Posterior(const CellRef& cell) override {
    return provider_->Posterior(cell);
  }

  /// The network, or null for kNone.
  const BayesianNetwork* network() const { return network_.get(); }

 private:
  PosteriorModel() = default;

  Table table_;
  std::unique_ptr<BayesianNetwork> network_;
  std::unique_ptr<PosteriorProvider> provider_;  // Reads the two above.
};

/// The simulated crowd answering from the complete table `truth`: the
/// marketplace (bound to `metrics` and `flight` when non-null) when
/// `use_marketplace`, else the flat mixture.
std::unique_ptr<CrowdPlatform> MakeSimulatedCrowd(
    const Table& truth, bool use_marketplace,
    const SimulatedPlatformOptions& flat, const MarketplaceOptions& market,
    obs::MetricsRegistry* metrics, obs::FlightRecorder* flight);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_QUERY_SPEC_H_

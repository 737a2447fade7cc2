#include "bayesnet/inference.h"

#include <algorithm>
#include <set>

#include "bayesnet/factor.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace bayescrowd {
namespace {

// Inference sits below the framework layer, so its counters live in the
// process-wide registry. Handles are resolved once per process; the
// per-event cost is one relaxed atomic add.
obs::Counter* FactorProducts() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("bayesnet.factor_products");
  return counter;
}

obs::Counter* Marginalizations() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter(
          "bayesnet.marginalizations");
  return counter;
}

obs::Counter* VeQueries() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("bayesnet.ve_queries");
  return counter;
}

// Builds the CPT of `node` as a factor over the unobserved members of
// {node} ∪ parents(node), already reduced to the row's evidence
// (`levels[v]` is v's observed level, or kMissingLevel). The CPT is a
// row-major table over the parents in stored order (the configuration
// index, walked as index0) and the node itself (its level, index1).
Factor CptFactor(const BayesianNetwork& net, std::size_t node,
                 const std::vector<Level>& levels) {
  const Cpt& cpt = net.cpt(node);
  const std::vector<std::size_t>& parents = cpt.parents();
  struct Member {
    std::size_t var;
    std::size_t config_stride;
  };
  std::vector<Member> family;
  family.reserve(parents.size() + 1);
  std::size_t stride = 1;
  for (std::size_t p = parents.size(); p-- > 0;) {
    family.push_back({parents[p], stride});
    stride *= static_cast<std::size_t>(net.schema().domain_size(parents[p]));
  }
  family.push_back({node, 0});
  std::sort(family.begin(), family.end(),
            [](const Member& x, const Member& y) { return x.var < y.var; });

  std::size_t config = 0;
  std::size_t value = 0;
  for (const Member& m : family) {
    if (IsMissingLevel(levels[m.var])) continue;
    const auto level = static_cast<std::size_t>(levels[m.var]);
    if (m.var == node) {
      value = level;
    } else {
      config += level * m.config_stride;
    }
  }
  std::vector<std::size_t> vars;
  std::vector<Level> cards;
  ScopeOdometer walk(config, value);
  for (const Member& m : family) {
    if (!IsMissingLevel(levels[m.var])) continue;
    const Level card = net.schema().domain_size(m.var);
    vars.push_back(m.var);
    cards.push_back(card);
    walk.AddVariable(card, m.config_stride, m.var == node ? 1 : 0);
  }
  Factor factor(std::move(vars), std::move(cards));
  for (std::size_t flat = 0; flat < factor.size(); ++flat) {
    factor.At(flat) =
        cpt.Prob(static_cast<Level>(walk.index1()), walk.index0());
    walk.Next();
  }
  return factor;
}

Status ValidateQuery(const BayesianNetwork& net, const Evidence& evidence,
                     std::size_t query) {
  if (query >= net.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (evidence.count(query) > 0) {
    return Status::InvalidArgument("query node is also evidence");
  }
  for (const auto& [node, value] : evidence) {
    if (node >= net.num_nodes()) {
      return Status::OutOfRange("evidence node out of range");
    }
    if (value < 0 || value >= net.schema().domain_size(node)) {
      return Status::OutOfRange(StrFormat(
          "evidence value %d outside domain of node %zu", value, node));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> VariableElimination(const BayesianNetwork& net,
                                                const Evidence& evidence,
                                                std::size_t query) {
  BAYESCROWD_RETURN_NOT_OK(ValidateQuery(net, evidence, query));
  VeQueries()->Increment();
  const std::size_t n = net.num_nodes();
  const Dag& dag = net.structure();
  std::vector<Level> levels(n, kMissingLevel);
  for (const auto& [node, value] : evidence) levels[node] = value;

  // Relevant set: the query plus the unobserved nodes it reaches in the
  // moral graph (edges undirected, co-parents linked) without crossing an
  // observed node. A CPT factor outside it touches only observed nodes
  // and nodes cut off from the query by them, so eliminating it yields a
  // constant the final normalization divides out; it is never built.
  std::vector<char> relevant(n, 0);
  std::vector<std::size_t> frontier = {query};
  relevant[query] = 1;
  const auto reach = [&](std::size_t v) {
    if (relevant[v] || !IsMissingLevel(levels[v])) return;
    relevant[v] = 1;
    frontier.push_back(v);
  };
  while (!frontier.empty()) {
    const std::size_t v = frontier.back();
    frontier.pop_back();
    for (std::size_t parent : dag.parents(v)) reach(parent);
    for (std::size_t child : dag.children(v)) {
      reach(child);
      for (std::size_t co_parent : dag.parents(child)) reach(co_parent);
    }
  }

  // The CPT factors touching the relevant set, reduced to the evidence,
  // in node order. The unobserved members of a family are pairwise
  // linked in the moral graph, so such a factor lies inside the set.
  std::vector<Factor> factors;
  std::set<std::size_t> hidden;  // Relevant nodes to eliminate.
  for (std::size_t node = 0; node < n; ++node) {
    bool touches = relevant[node] != 0;
    for (std::size_t parent : dag.parents(node)) {
      touches = touches || relevant[parent] != 0;
    }
    if (touches) factors.push_back(CptFactor(net, node, levels));
    if (relevant[node] && node != query) hidden.insert(node);
  }

  while (!hidden.empty()) {
    // Min-degree heuristic: eliminate the variable whose combined factor
    // scope is smallest.
    std::size_t best_var = 0;
    std::size_t best_scope = static_cast<std::size_t>(-1);
    for (std::size_t var : hidden) {
      std::set<std::size_t> scope;
      for (const Factor& f : factors) {
        if (!f.ContainsVariable(var)) continue;
        scope.insert(f.variables().begin(), f.variables().end());
      }
      if (scope.size() < best_scope) {
        best_scope = scope.size();
        best_var = var;
      }
    }

    // Multiply the factors mentioning best_var, sum it out.
    Factor combined;
    bool have = false;
    std::vector<Factor> remaining;
    remaining.reserve(factors.size());
    for (Factor& f : factors) {
      if (f.ContainsVariable(best_var)) {
        if (have) {
          combined = Factor::Product(combined, f);
          FactorProducts()->Increment();
        } else {
          combined = std::move(f);
        }
        have = true;
      } else {
        remaining.push_back(std::move(f));
      }
    }
    if (have) {
      remaining.push_back(combined.Marginalize(best_var));
      Marginalizations()->Increment();
    }
    factors = std::move(remaining);
    hidden.erase(best_var);
  }

  // Multiply what is left; everything is now over {query} (or empty).
  Factor result({query}, {net.schema().domain_size(query)});
  for (std::size_t i = 0; i < result.size(); ++i) result.At(i) = 1.0;
  for (const Factor& f : factors) {
    if (f.variables().empty()) continue;  // Normalization divides it out.
    result = Factor::Product(result, f);
    FactorProducts()->Increment();
  }
  result.Normalize();

  std::vector<double> out(
      static_cast<std::size_t>(net.schema().domain_size(query)));
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = result.At(v);
  }
  return out;
}

}  // namespace bayescrowd

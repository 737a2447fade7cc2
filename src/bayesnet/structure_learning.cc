#include "bayesnet/structure_learning.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/random.h"
#include "obs/metrics.h"

namespace bayescrowd {
namespace {

// Process-wide counters (structure learning runs below the framework
// layer; see obs/metrics.h on registry scoping).
obs::Counter* ScoreEvals() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("bayesnet.score_evals");
  return counter;
}

obs::Counter* ScoreCacheHits() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter(
          "bayesnet.score_cache_hits");
  return counter;
}

// Computes the BIC family score of `node` with parent set `parents`
// (sorted): available-case log-likelihood minus the BIC complexity
// penalty.
double FamilyScore(const Table& data, std::size_t node,
                   const std::vector<std::size_t>& parents) {
  const Schema& schema = data.schema();
  const auto card = static_cast<std::size_t>(schema.domain_size(node));
  std::size_t num_configs = 1;
  for (std::size_t p : parents) {
    num_configs *= static_cast<std::size_t>(schema.domain_size(p));
  }

  std::vector<double> counts(num_configs * card, 0.0);
  std::vector<double> config_totals(num_configs, 0.0);
  std::size_t rows_used = 0;
  for (std::size_t i = 0; i < data.num_objects(); ++i) {
    const Level value = data.At(i, node);
    if (IsMissingLevel(value)) continue;
    std::size_t config = 0;
    bool usable = true;
    for (std::size_t p : parents) {
      const Level pv = data.At(i, p);
      if (IsMissingLevel(pv)) {
        usable = false;
        break;
      }
      config = config * static_cast<std::size_t>(schema.domain_size(p)) +
               static_cast<std::size_t>(pv);
    }
    if (!usable) continue;
    counts[config * card + static_cast<std::size_t>(value)] += 1.0;
    config_totals[config] += 1.0;
    ++rows_used;
  }
  if (rows_used == 0) return 0.0;

  double log_likelihood = 0.0;
  for (std::size_t c = 0; c < num_configs; ++c) {
    if (config_totals[c] <= 0.0) continue;
    for (std::size_t v = 0; v < card; ++v) {
      const double n = counts[c * card + v];
      if (n > 0.0) log_likelihood += n * std::log(n / config_totals[c]);
    }
  }
  const double penalty = 0.5 * std::log(static_cast<double>(rows_used)) *
                         static_cast<double>((card - 1) * num_configs);
  return log_likelihood - penalty;
}

// Memoizes family scores across hill-climbing iterations and restarts.
class ScoreCache {
 public:
  explicit ScoreCache(const Table& data) : data_(data) {}

  double Get(std::size_t node, std::vector<std::size_t> parents) {
    std::sort(parents.begin(), parents.end());
    const auto key = std::make_pair(node, std::move(parents));
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ScoreCacheHits()->Increment();
      return it->second;
    }
    ScoreEvals()->Increment();
    const double score = FamilyScore(data_, key.first, key.second);
    cache_.emplace(key, score);
    return score;
  }

 private:
  const Table& data_;
  std::map<std::pair<std::size_t, std::vector<std::size_t>>, double> cache_;
};

struct Move {
  enum class Kind { kAdd, kRemove, kReverse } kind;
  std::size_t from;
  std::size_t to;
  double delta;
};

// One greedy run from `dag`, mutating it in place; returns final score.
double HillClimbFrom(const Table& data, ScoreCache& cache, Dag& dag,
                     const StructureLearningOptions& options) {
  const std::size_t d = data.num_attributes();
  std::vector<double> node_score(d);
  for (std::size_t v = 0; v < d; ++v) {
    node_score[v] = cache.Get(v, dag.parents(v));
  }

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    Move best{Move::Kind::kAdd, 0, 0, 0.0};
    bool found = false;

    auto consider = [&](Move::Kind kind, std::size_t from, std::size_t to,
                        double delta) {
      if (delta > options.epsilon && (!found || delta > best.delta)) {
        best = {kind, from, to, delta};
        found = true;
      }
    };

    for (std::size_t from = 0; from < d; ++from) {
      for (std::size_t to = 0; to < d; ++to) {
        if (from == to) continue;
        if (dag.HasEdge(from, to)) {
          // Remove from->to.
          std::vector<std::size_t> reduced = dag.parents(to);
          reduced.erase(std::find(reduced.begin(), reduced.end(), from));
          const double remove_delta =
              cache.Get(to, reduced) - node_score[to];
          consider(Move::Kind::kRemove, from, to, remove_delta);

          // Reverse from->to (to->from must stay acyclic after removal;
          // conservatively require no other path from `from` to `to`).
          if (dag.parents(from).size() < options.max_parents) {
            Dag trial = dag;
            BAYESCROWD_CHECK_OK(trial.RemoveEdge(from, to));
            if (trial.CanAddEdge(to, from)) {
              std::vector<std::size_t> from_parents = dag.parents(from);
              from_parents.push_back(to);
              const double delta =
                  (cache.Get(to, reduced) - node_score[to]) +
                  (cache.Get(from, from_parents) - node_score[from]);
              consider(Move::Kind::kReverse, from, to, delta);
            }
          }
        } else if (dag.parents(to).size() < options.max_parents &&
                   dag.CanAddEdge(from, to)) {
          std::vector<std::size_t> extended = dag.parents(to);
          extended.push_back(from);
          const double add_delta = cache.Get(to, extended) - node_score[to];
          consider(Move::Kind::kAdd, from, to, add_delta);
        }
      }
    }

    if (!found) break;
    switch (best.kind) {
      case Move::Kind::kAdd:
        BAYESCROWD_CHECK_OK(dag.AddEdge(best.from, best.to));
        break;
      case Move::Kind::kRemove:
        BAYESCROWD_CHECK_OK(dag.RemoveEdge(best.from, best.to));
        break;
      case Move::Kind::kReverse:
        BAYESCROWD_CHECK_OK(dag.RemoveEdge(best.from, best.to));
        BAYESCROWD_CHECK_OK(dag.AddEdge(best.to, best.from));
        node_score[best.from] = cache.Get(best.from, dag.parents(best.from));
        break;
    }
    node_score[best.to] = cache.Get(best.to, dag.parents(best.to));
  }

  double total = 0.0;
  for (std::size_t v = 0; v < d; ++v) total += node_score[v];
  return total;
}

}  // namespace

Result<double> BicScore(const Table& data, const Dag& dag) {
  if (dag.num_nodes() != data.num_attributes()) {
    return Status::InvalidArgument("DAG size does not match table");
  }
  double total = 0.0;
  for (std::size_t v = 0; v < dag.num_nodes(); ++v) {
    std::vector<std::size_t> parents = dag.parents(v);
    std::sort(parents.begin(), parents.end());
    total += FamilyScore(data, v, parents);
  }
  return total;
}

Result<Dag> HillClimbStructure(const Table& data,
                               const StructureLearningOptions& options) {
  if (data.num_objects() == 0 || data.num_attributes() == 0) {
    return Status::InvalidArgument("empty table");
  }
  const std::size_t d = data.num_attributes();
  ScoreCache cache(data);

  Dag best(d);
  double best_score = HillClimbFrom(data, cache, best, options);

  Rng rng(options.seed);
  for (std::size_t r = 0; r < options.num_restarts; ++r) {
    // Random initial DAG: a handful of random edges under a random node
    // permutation (guaranteeing acyclicity).
    Dag dag(d);
    std::vector<std::size_t> perm(d);
    for (std::size_t i = 0; i < d; ++i) perm[i] = i;
    rng.Shuffle(perm);
    const std::size_t tries = d * 2;
    for (std::size_t t = 0; t < tries; ++t) {
      const std::size_t i = rng.NextBelow(d);
      const std::size_t j = rng.NextBelow(d);
      if (i >= j) continue;
      if (dag.parents(perm[j]).size() >= options.max_parents) continue;
      (void)dag.AddEdge(perm[i], perm[j]);  // AlreadyExists is fine.
    }
    const double score = HillClimbFrom(data, cache, dag, options);
    if (score > best_score) {
      best_score = score;
      best = dag;
    }
  }
  return best;
}

Result<Dag> ChowLiuStructure(const Table& data) {
  const std::size_t d = data.num_attributes();
  if (data.num_objects() == 0 || d == 0) {
    return Status::InvalidArgument("empty table");
  }
  const Schema& schema = data.schema();

  // Pairwise mutual information over available cases.
  std::vector<std::vector<double>> mi(d, std::vector<double>(d, 0.0));
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = a + 1; b < d; ++b) {
      const auto ca = static_cast<std::size_t>(schema.domain_size(a));
      const auto cb = static_cast<std::size_t>(schema.domain_size(b));
      std::vector<double> joint(ca * cb, 0.0);
      std::vector<double> ma(ca, 0.0);
      std::vector<double> mb(cb, 0.0);
      double n = 0.0;
      for (std::size_t i = 0; i < data.num_objects(); ++i) {
        const Level va = data.At(i, a);
        const Level vb = data.At(i, b);
        if (IsMissingLevel(va) || IsMissingLevel(vb)) continue;
        joint[static_cast<std::size_t>(va) * cb +
              static_cast<std::size_t>(vb)] += 1.0;
        ma[static_cast<std::size_t>(va)] += 1.0;
        mb[static_cast<std::size_t>(vb)] += 1.0;
        n += 1.0;
      }
      if (n == 0.0) continue;
      double info = 0.0;
      for (std::size_t x = 0; x < ca; ++x) {
        for (std::size_t y = 0; y < cb; ++y) {
          const double pxy = joint[x * cb + y] / n;
          if (pxy <= 0.0) continue;
          info += pxy * std::log(pxy * n * n / (ma[x] * mb[y]));
        }
      }
      mi[a][b] = mi[b][a] = info;
    }
  }

  // Prim's maximum spanning tree from node 0, directing edges outward.
  Dag dag(d);
  std::vector<bool> in_tree(d, false);
  std::vector<double> best_weight(d, -1.0);
  std::vector<std::size_t> best_parent(d, 0);
  in_tree[0] = true;
  for (std::size_t v = 1; v < d; ++v) {
    best_weight[v] = mi[0][v];
    best_parent[v] = 0;
  }
  for (std::size_t step = 1; step < d; ++step) {
    std::size_t pick = d;
    double pick_weight = -1.0;
    for (std::size_t v = 0; v < d; ++v) {
      if (!in_tree[v] && best_weight[v] > pick_weight) {
        pick_weight = best_weight[v];
        pick = v;
      }
    }
    if (pick == d) break;
    in_tree[pick] = true;
    BAYESCROWD_RETURN_NOT_OK(dag.AddEdge(best_parent[pick], pick));
    for (std::size_t v = 0; v < d; ++v) {
      if (!in_tree[v] && mi[pick][v] > best_weight[v]) {
        best_weight[v] = mi[pick][v];
        best_parent[v] = pick;
      }
    }
  }
  return dag;
}

}  // namespace bayescrowd

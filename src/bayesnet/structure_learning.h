// Bayesian-network structure learning.
//
// Stand-in for the Banjo framework the paper uses: score-based greedy
// hill-climbing over DAGs with the BIC score (add / delete / reverse
// moves, optional random restarts), plus a Chow-Liu tree learner as a
// fast alternative. Rows with missing entries in a family are skipped
// when scoring that family (available-case analysis), so learning works
// directly on incomplete tables too.

#ifndef BAYESCROWD_BAYESNET_STRUCTURE_LEARNING_H_
#define BAYESCROWD_BAYESNET_STRUCTURE_LEARNING_H_

#include <cstdint>

#include "bayesnet/dag.h"
#include "common/result.h"
#include "data/table.h"

namespace bayescrowd {

struct StructureLearningOptions {
  std::size_t max_parents = 3;     // Parent-set size cap per node.
  std::size_t max_iterations = 200;  // Hill-climbing step cap.
  std::size_t num_restarts = 0;    // Extra random-restart runs.
  std::uint64_t seed = 42;         // Restart randomization seed.
  double epsilon = 1e-9;           // Minimum score improvement to move.
};

/// BIC score of a full DAG on `data` (sum of family scores). Exposed for
/// tests and diagnostics.
Result<double> BicScore(const Table& data, const Dag& dag);

/// Greedy hill-climbing structure search maximizing BIC.
Result<Dag> HillClimbStructure(const Table& data,
                               const StructureLearningOptions& options = {});

/// Chow-Liu: maximum-spanning-tree over pairwise mutual information,
/// rooted at node 0, edges directed away from the root.
Result<Dag> ChowLiuStructure(const Table& data);

}  // namespace bayescrowd

#endif  // BAYESCROWD_BAYESNET_STRUCTURE_LEARNING_H_

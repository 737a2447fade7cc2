// Complete-data skyline algorithms. Used to compute the ground truth
// the paper evaluates F1 against ("the query result derived based on the
// corresponding complete data is regarded as the ground truth").

#ifndef BAYESCROWD_SKYLINE_ALGORITHMS_H_
#define BAYESCROWD_SKYLINE_ALGORITHMS_H_

#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace bayescrowd {

/// Block-nested-loops skyline (Borzsonyi et al.). The table must be
/// complete. Returns ascending object ids.
Result<std::vector<std::size_t>> SkylineBnl(const Table& table);

/// Sort-filter skyline: objects are pre-sorted by descending attribute
/// sum so that no later object can dominate an earlier one; a single
/// window pass suffices. Same output as SkylineBnl, usually faster.
Result<std::vector<std::size_t>> SkylineSfs(const Table& table);

}  // namespace bayescrowd

#endif  // BAYESCROWD_SKYLINE_ALGORITHMS_H_

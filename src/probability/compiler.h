// CircuitCompiler: knowledge compilation of one condition into a
// CompiledCircuit (see circuit.h) by mirroring ADPLL's recursion.
//
// The compile walks the exact decision order of AdpllSearch::Recurse —
// decided constants, the independent-conjunct product, the star fast
// path, component decomposition, then branching on the same heuristic's
// variable — but records structure instead of computing numbers, and
// compiles *every* value branch (a branch that is zero-probability
// today can carry mass under tomorrow's posteriors). A node budget
// makes blowup degrade instead of failing: exceeding it aborts the
// compile with ResourceExhausted and the evaluator keeps using the
// governed ADPLL ladder for that condition.

#ifndef BAYESCROWD_PROBABILITY_COMPILER_H_
#define BAYESCROWD_PROBABILITY_COMPILER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "ctable/condition.h"
#include "probability/adpll.h"
#include "probability/circuit.h"
#include "probability/distributions.h"

namespace bayescrowd {

enum class CompileMode : std::uint8_t {
  kOff = 0,   // Never compile; every evaluation re-runs the solver.
  kAuto = 1,  // Compile when the configuration is eligible (default).
};

const char* CompileModeToString(CompileMode mode);
bool ParseCompileMode(const std::string& name, CompileMode* mode);

struct CompileOptions {
  CompileMode mode = CompileMode::kAuto;

  /// Compile budget: total circuit cost (nodes, plus the enumeration
  /// spaces of star and naive leaves) before the compile aborts with
  /// ResourceExhausted and the condition stays on the ADPLL ladder.
  std::uint64_t max_nodes = 1ull << 16;
};

/// Compiles `condition` against the structure of `dists` (arities only;
/// no posterior values are baked in) under the ADPLL options' search
/// shape. Errors: ResourceExhausted when `compile.max_nodes` is
/// exceeded or a correlated conjunct's enumeration space exceeds the
/// inner Naive budget; InvalidArgument for the random branch heuristic
/// (its order is not value-independent); NotFound for an unregistered
/// variable.
Result<CompiledCircuit> CompileCondition(const Condition& condition,
                                         const DistributionMap& dists,
                                         const AdpllOptions& adpll,
                                         const CompileOptions& compile);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_COMPILER_H_

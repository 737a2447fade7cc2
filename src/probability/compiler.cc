#include "probability/compiler.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "probability/naive.h"

namespace bayescrowd {
namespace {

class CircuitCompiler {
 public:
  CircuitCompiler(const DistributionMap& dists, const AdpllOptions& adpll,
                  std::uint64_t max_nodes)
      : dists_(dists), adpll_(adpll), max_nodes_(max_nodes) {}

  Result<CompiledCircuit> Compile(const Condition& condition) {
    if (adpll_.heuristic == BranchHeuristic::kRandom) {
      return Status::InvalidArgument(
          "cannot compile under the random branch heuristic");
    }
    circuit_.max_conjunct_assignments = adpll_.max_conjunct_assignments;
    BAYESCROWD_ASSIGN_OR_RETURN(circuit_.root, CompileNode(condition));
    circuit_.cost = cost_;
    return std::move(circuit_);
  }

 private:
  Status Charge(std::uint64_t units) {
    cost_ += units;
    if (cost_ > max_nodes_) {
      return Status::ResourceExhausted(StrFormat(
          "circuit compilation exceeded %llu nodes",
          static_cast<unsigned long long>(max_nodes_)));
    }
    return Status::OK();
  }

  /// Interns one distribution slot (first-reference order) and extends
  /// the SoA layout with its arity.
  Result<std::int32_t> VarSlot(const CellRef& var) {
    const PackedVar packed = PackVar(var);
    const auto it = var_slot_.find(packed);
    if (it != var_slot_.end()) return it->second;
    const std::vector<double>* dist = dists_.Find(var);
    if (dist == nullptr) {
      return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                        var.object, var.attribute));
    }
    const std::int32_t slot = static_cast<std::int32_t>(circuit_.vars.size());
    circuit_.vars.push_back(var);
    circuit_.var_sizes.push_back(static_cast<std::uint32_t>(dist->size()));
    circuit_.var_offsets.push_back(
        static_cast<std::uint32_t>(circuit_.soa_slots));
    circuit_.soa_slots += dist->size();
    var_slot_.emplace(packed, slot);
    return slot;
  }

  Result<std::uint32_t> Emit(CircuitNode node) {
    BAYESCROWD_RETURN_NOT_OK(Charge(1));
    const std::uint32_t id =
        static_cast<std::uint32_t>(circuit_.nodes.size());
    circuit_.nodes.push_back(node);
    return id;
  }

  Result<std::uint32_t> EmitConst(double value) {
    CircuitNode node;
    node.kind = CircuitNodeKind::kConst;
    node.constant = value;
    return Emit(node);
  }

  Result<std::uint32_t> EmitRange(CircuitNodeKind kind, std::uint32_t first,
                                  std::uint32_t count,
                                  std::int32_t var_slot = -1) {
    CircuitNode node;
    node.kind = kind;
    node.first = first;
    node.count = count;
    node.var_slot = var_slot;
    return Emit(node);
  }

  Result<std::uint32_t> AppendExpr(const Expression& e) {
    BAYESCROWD_ASSIGN_OR_RETURN(const std::int32_t ls, VarSlot(e.lhs));
    std::int32_t rs = -1;
    if (e.rhs_is_var) {
      BAYESCROWD_ASSIGN_OR_RETURN(rs, VarSlot(e.rhs_var));
    }
    circuit_.exprs.push_back(e);
    circuit_.expr_lhs_slot.push_back(ls);
    circuit_.expr_rhs_slot.push_back(rs);
    return static_cast<std::uint32_t>(circuit_.exprs.size() - 1);
  }

  /// Distinct-variable conjunct: the disjunctive-rule leaf.
  Result<std::uint32_t> EmitLeafConjunct(const Conjunct& conjunct) {
    BAYESCROWD_RETURN_NOT_OK(Charge(conjunct.size()));
    const std::uint32_t first =
        static_cast<std::uint32_t>(circuit_.exprs.size());
    for (const Expression& e : conjunct) {
      BAYESCROWD_RETURN_NOT_OK(AppendExpr(e).status());
    }
    return EmitRange(CircuitNodeKind::kConjunct, first,
                     static_cast<std::uint32_t>(conjunct.size()));
  }

  /// Correlated conjunct: exact enumeration at eval time. The compile
  /// pre-pays the enumeration space so an eval can never hit the inner
  /// Naive budget (compiled evaluation must not start failing later).
  Result<std::uint32_t> EmitLeafNaive(const Conjunct& conjunct) {
    const std::uint64_t inner_max =
        adpll_.max_conjunct_assignments > 0 ? adpll_.max_conjunct_assignments
                                            : NaiveOptions{}.max_assignments;
    seen_vars_.clear();
    std::uint64_t space = 1;
    const auto fold_var = [this, inner_max,
                           &space](const CellRef& var) -> Status {
      for (const CellRef& v : seen_vars_) {
        if (v == var) return Status::OK();
      }
      seen_vars_.push_back(var);
      const std::vector<double>* dist = dists_.Find(var);
      if (dist == nullptr) {
        return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                          var.object, var.attribute));
      }
      if (space > inner_max / dist->size()) {
        return Status::ResourceExhausted(
            "conjunct enumeration space exceeds the inner Naive budget");
      }
      space *= dist->size();
      return Status::OK();
    };
    for (const Expression& e : conjunct) {
      BAYESCROWD_RETURN_NOT_OK(fold_var(e.lhs));
      if (e.rhs_is_var) {
        BAYESCROWD_RETURN_NOT_OK(fold_var(e.rhs_var));
      }
    }
    BAYESCROWD_RETURN_NOT_OK(Charge(space));
    const std::uint32_t first =
        static_cast<std::uint32_t>(circuit_.exprs.size());
    for (const Expression& e : conjunct) {
      BAYESCROWD_RETURN_NOT_OK(AppendExpr(e).status());
    }
    return EmitRange(CircuitNodeKind::kNaive, first,
                     static_cast<std::uint32_t>(conjunct.size()));
  }

  Result<std::uint32_t> EmitProduct(const std::vector<std::uint32_t>& kids) {
    const std::uint32_t first =
        static_cast<std::uint32_t>(circuit_.children.size());
    circuit_.children.insert(circuit_.children.end(), kids.begin(),
                             kids.end());
    return EmitRange(CircuitNodeKind::kProduct, first,
                     static_cast<std::uint32_t>(kids.size()));
  }

  // Mirrors AdpllSearch::Recurse decision for decision: same rule order,
  // same branch variable, but every value child is compiled (a value
  // with zero mass today can carry mass under a future posterior; at
  // eval time zero-mass branches are skipped exactly like ADPLL's).
  Result<std::uint32_t> CompileNode(const Condition& condition) {
    if (condition.IsTrue()) return EmitConst(1.0);
    if (condition.IsFalse()) return EmitConst(0.0);

    // Special conjunctive rule: variable-disjoint conjuncts multiply.
    if (condition.ConjunctsAreIndependent()) {
      std::vector<std::uint32_t> leaves;
      leaves.reserve(condition.conjuncts().size());
      for (const Conjunct& conjunct : condition.conjuncts()) {
        // The same distinct-variable scan as ConjunctProbability.
        bool distinct = true;
        seen_vars_.clear();
        const auto note = [this](const CellRef& var) {
          for (const CellRef& v : seen_vars_) {
            if (v == var) return false;
          }
          seen_vars_.push_back(var);
          return true;
        };
        for (const Expression& e : conjunct) {
          if (!note(e.lhs) || (e.rhs_is_var && !note(e.rhs_var))) {
            distinct = false;
            break;
          }
        }
        BAYESCROWD_ASSIGN_OR_RETURN(const std::uint32_t leaf,
                                    distinct ? EmitLeafConjunct(conjunct)
                                             : EmitLeafNaive(conjunct));
        leaves.push_back(leaf);
      }
      return EmitProduct(leaves);
    }

    // Star fast path: store the plan; tables are refilled per eval.
    if (adpll_.star_fast_path) {
      StarPlan plan;
      Status status = Status::OK();
      if (BuildStarPlan(condition, dists_, adpll_.max_hub_space, &plan,
                        &star_scratch_, &status)) {
        BAYESCROWD_RETURN_NOT_OK(status);
        BAYESCROWD_RETURN_NOT_OK(Charge(plan.space));
        const std::int32_t index =
            static_cast<std::int32_t>(circuit_.stars.size());
        circuit_.stars.push_back(std::move(plan));
        return EmitRange(CircuitNodeKind::kStar, 0, 0, index);
      }
    }

    // Refinement: split variable-disjoint *groups* of conjuncts.
    if (adpll_.component_decomposition) {
      const auto components = condition.ConjunctComponents();
      if (components.size() > 1) {
        std::vector<std::uint32_t> kids;
        kids.reserve(components.size());
        for (const auto& indices : components) {
          std::vector<Conjunct> sub;
          sub.reserve(indices.size());
          for (std::size_t c : indices) {
            sub.push_back(condition.conjuncts()[c]);
          }
          BAYESCROWD_ASSIGN_OR_RETURN(
              const std::uint32_t child,
              CompileNode(Condition::Cnf(std::move(sub))));
          kids.push_back(child);
        }
        return EmitProduct(kids);
      }
    }

    // Branch on the heuristic's variable, over its full domain.
    const CellRef var = adpll_.heuristic == BranchHeuristic::kFirst
                            ? condition.Variables().front()
                            : condition.MostFrequentVariable();
    BAYESCROWD_ASSIGN_OR_RETURN(const std::int32_t slot, VarSlot(var));
    const std::size_t size =
        circuit_.var_sizes[static_cast<std::size_t>(slot)];
    std::vector<std::uint32_t> kids;
    kids.reserve(size);
    for (std::size_t value = 0; value < size; ++value) {
      BAYESCROWD_ASSIGN_OR_RETURN(
          const std::uint32_t child,
          CompileNode(condition.SubstituteVariable(
              var, static_cast<Level>(value))));
      kids.push_back(child);
    }
    const std::uint32_t first =
        static_cast<std::uint32_t>(circuit_.children.size());
    circuit_.children.insert(circuit_.children.end(), kids.begin(),
                             kids.end());
    return EmitRange(CircuitNodeKind::kDecision, first,
                     static_cast<std::uint32_t>(size), slot);
  }

  const DistributionMap& dists_;
  const AdpllOptions& adpll_;
  const std::uint64_t max_nodes_;
  CompiledCircuit circuit_;
  std::uint64_t cost_ = 0;
  std::unordered_map<PackedVar, std::int32_t> var_slot_;
  std::vector<CellRef> seen_vars_;
  StarScratch star_scratch_;
};

}  // namespace

const char* CompileModeToString(CompileMode mode) {
  switch (mode) {
    case CompileMode::kOff:
      return "off";
    case CompileMode::kAuto:
      return "auto";
  }
  return "?";
}

bool ParseCompileMode(const std::string& name, CompileMode* mode) {
  if (name == "off") {
    *mode = CompileMode::kOff;
  } else if (name == "auto") {
    *mode = CompileMode::kAuto;
  } else {
    return false;
  }
  return true;
}

Result<CompiledCircuit> CompileCondition(const Condition& condition,
                                         const DistributionMap& dists,
                                         const AdpllOptions& adpll,
                                         const CompileOptions& compile) {
  CircuitCompiler compiler(dists, adpll, compile.max_nodes);
  return compiler.Compile(condition);
}

}  // namespace bayescrowd

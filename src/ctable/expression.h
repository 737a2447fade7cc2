// Expressions: the atomic inequalities of c-table conditions.
//
// An expression (the paper also calls it a "task") is a strict
// inequality between a variable Var(o, a) and either a constant or
// another variable:
//
//   Var(o5, a2) < 2          (variable vs constant)
//   Var(o5, a2) > Var(o2,a2) (variable vs variable)
//
// Crowdsourcing an expression asks the triple-choice question "is the
// left operand larger than / smaller than / equal to the right operand?"

#ifndef BAYESCROWD_CTABLE_EXPRESSION_H_
#define BAYESCROWD_CTABLE_EXPRESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/value.h"

namespace bayescrowd {

/// Three-valued logic for partially-known conditions.
enum class Truth : std::uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

inline Truth TruthOf(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

/// Strict comparison operators used in conditions (Definition 1 only ever
/// needs "strictly better", i.e. > and its mirror <).
enum class CmpOp : std::uint8_t { kGreater, kLess };

/// Dense integer encoding of a variable for hash-map keys on hot paths.
/// Supports up to 2^44 objects and 2^20 attributes.
using PackedVar = std::uint64_t;

inline PackedVar PackVar(const CellRef& var) {
  return (static_cast<std::uint64_t>(var.object) << 20) |
         static_cast<std::uint64_t>(var.attribute);
}

/// Dense integer encoding of a canonicalized expression (two 64-bit
/// words). Equal expressions (including mirrored var-var forms) share a
/// key.
using PackedExpr = std::pair<std::uint64_t, std::uint64_t>;

struct PackedExprHash {
  std::size_t operator()(const PackedExpr& key) const {
    std::uint64_t h = key.first * 0x9E3779B97F4A7C15ULL;
    h ^= key.second + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

inline CmpOp Mirror(CmpOp op) {
  return op == CmpOp::kGreater ? CmpOp::kLess : CmpOp::kGreater;
}

/// One inequality. `lhs` is always a variable (a missing cell).
struct Expression {
  CellRef lhs;
  CmpOp op = CmpOp::kGreater;
  bool rhs_is_var = false;
  CellRef rhs_var;          // Valid when rhs_is_var.
  Level rhs_const = 0;      // Valid when !rhs_is_var.

  static Expression VarConst(CellRef var, CmpOp op, Level constant) {
    Expression e;
    e.lhs = var;
    e.op = op;
    e.rhs_is_var = false;
    e.rhs_const = constant;
    return e;
  }

  static Expression VarVar(CellRef lhs, CmpOp op, CellRef rhs) {
    Expression e;
    e.lhs = lhs;
    e.op = op;
    e.rhs_is_var = true;
    e.rhs_var = rhs;
    return e;
  }

  /// The variables this expression mentions (1 or 2).
  std::vector<CellRef> Variables() const;

  bool InvolvesVariable(const CellRef& var) const;

  /// Truth value under a concrete value for `var`; expressions not
  /// mentioning `var` stay themselves. A var-var expression with one side
  /// assigned degrades to a var-const expression (the mechanism ADPLL
  /// uses when branching).
  /// Returned pair: (decided truth or kUnknown, replacement expression if
  /// still undecided).
  std::pair<Truth, std::optional<Expression>> Substitute(
      const CellRef& var, Level value) const;

  /// Truth under a *complete* assignment of both operands.
  Truth EvaluateComplete(Level lhs_value, Level rhs_value) const;

  /// Canonical text: "Var(o5,a2) < 2" with names taken from `table`.
  std::string ToString(const Table& table) const;

  /// Canonical key for frequency counting / deduplication. Two
  /// expressions that are logically identical (including the mirrored
  /// var-var form) share a key.
  std::string Key() const;

  /// Allocation-free canonical key (same equivalence as Key()).
  PackedExpr PackedKey() const;

  friend bool operator==(const Expression& a, const Expression& b);
};

/// Puts a var-var expression into canonical orientation (smaller CellRef
/// on the left), mirroring the operator if needed. Var-const expressions
/// are returned unchanged.
Expression Canonicalize(const Expression& e);

/// Binary codec shared by checkpoints and the answer log: u64 object,
/// u64 attribute, u8 operator, u8 rhs flag, then u64 object + u64
/// attribute or an i32 constant. Read refuses an out-of-domain operator
/// or flag byte with OutOfRange.
void WriteExpression(BinWriter* w, const Expression& e);
Status ReadExpression(BinReader* r, Expression* e);

/// Smallest encoded expression: 2 u64 + op + flag + i32.
inline constexpr std::size_t kMinExpressionBytes = 22;

}  // namespace bayescrowd

#endif  // BAYESCROWD_CTABLE_EXPRESSION_H_

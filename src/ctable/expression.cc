#include "ctable/expression.h"

#include "common/string_util.h"

namespace bayescrowd {

std::vector<CellRef> Expression::Variables() const {
  std::vector<CellRef> out = {lhs};
  if (rhs_is_var) out.push_back(rhs_var);
  return out;
}

bool Expression::InvolvesVariable(const CellRef& var) const {
  return lhs == var || (rhs_is_var && rhs_var == var);
}

std::pair<Truth, std::optional<Expression>> Expression::Substitute(
    const CellRef& var, Level value) const {
  const bool hits_lhs = (lhs == var);
  const bool hits_rhs = rhs_is_var && (rhs_var == var);
  if (!hits_lhs && !hits_rhs) return {Truth::kUnknown, *this};

  if (!rhs_is_var) {
    // Var op const with Var assigned.
    const bool truth = (op == CmpOp::kGreater) ? (value > rhs_const)
                                               : (value < rhs_const);
    return {TruthOf(truth), std::nullopt};
  }

  if (hits_lhs && hits_rhs) {
    // Same variable on both sides: strictly false (v > v is false).
    return {Truth::kFalse, std::nullopt};
  }
  if (hits_lhs) {
    // value op rhs_var  ->  rhs_var mirror(op) value.
    return {Truth::kUnknown,
            Expression::VarConst(rhs_var, Mirror(op), value)};
  }
  // lhs op value.
  return {Truth::kUnknown, Expression::VarConst(lhs, op, value)};
}

Truth Expression::EvaluateComplete(Level lhs_value, Level rhs_value) const {
  const bool truth = (op == CmpOp::kGreater) ? (lhs_value > rhs_value)
                                             : (lhs_value < rhs_value);
  return TruthOf(truth);
}

std::string Expression::ToString(const Table& table) const {
  const char* op_text = (op == CmpOp::kGreater) ? ">" : "<";
  const auto var_text = [&table](const CellRef& v) {
    return StrFormat("Var(%s,%s)", table.object_name(v.object).c_str(),
                     table.schema().attribute(v.attribute).name.c_str());
  };
  if (rhs_is_var) {
    return StrFormat("%s %s %s", var_text(lhs).c_str(), op_text,
                     var_text(rhs_var).c_str());
  }
  return StrFormat("%s %s %d", var_text(lhs).c_str(), op_text, rhs_const);
}

std::string Expression::Key() const {
  const Expression c = Canonicalize(*this);
  const char op_char = (c.op == CmpOp::kGreater) ? '>' : '<';
  if (c.rhs_is_var) {
    return StrFormat("v%zu.%zu%cv%zu.%zu", c.lhs.object, c.lhs.attribute,
                     op_char, c.rhs_var.object, c.rhs_var.attribute);
  }
  return StrFormat("v%zu.%zu%c%d", c.lhs.object, c.lhs.attribute, op_char,
                   c.rhs_const);
}

PackedExpr Expression::PackedKey() const {
  const Expression c = Canonicalize(*this);
  // Word 1: lhs | op | rhs-kind. Word 2: rhs payload.
  const std::uint64_t word1 =
      (PackVar(c.lhs) << 2) |
      (static_cast<std::uint64_t>(c.op) << 1) |
      (c.rhs_is_var ? 1u : 0u);
  const std::uint64_t word2 =
      c.rhs_is_var ? PackVar(c.rhs_var)
                   : static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(c.rhs_const));
  return {word1, word2};
}

bool operator==(const Expression& a, const Expression& b) {
  const Expression ca = Canonicalize(a);
  const Expression cb = Canonicalize(b);
  if (ca.lhs != cb.lhs || ca.op != cb.op || ca.rhs_is_var != cb.rhs_is_var) {
    return false;
  }
  return ca.rhs_is_var ? ca.rhs_var == cb.rhs_var
                       : ca.rhs_const == cb.rhs_const;
}

Expression Canonicalize(const Expression& e) {
  if (!e.rhs_is_var || e.lhs <= e.rhs_var) return e;
  return Expression::VarVar(e.rhs_var, Mirror(e.op), e.lhs);
}

void WriteExpression(BinWriter* w, const Expression& e) {
  w->WriteU64(e.lhs.object);
  w->WriteU64(e.lhs.attribute);
  w->WriteU8(static_cast<std::uint8_t>(e.op));
  w->WriteBool(e.rhs_is_var);
  if (e.rhs_is_var) {
    w->WriteU64(e.rhs_var.object);
    w->WriteU64(e.rhs_var.attribute);
  } else {
    w->WriteI32(e.rhs_const);
  }
}

Status ReadExpression(BinReader* r, Expression* e) {
  std::uint64_t object = 0;
  std::uint64_t attribute = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&object));
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&attribute));
  e->lhs = {static_cast<std::size_t>(object),
            static_cast<std::size_t>(attribute)};
  std::uint8_t op = 0;
  std::uint8_t rhs_is_var = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU8(&op));
  BAYESCROWD_RETURN_NOT_OK(r->ReadU8(&rhs_is_var));
  if (op > static_cast<std::uint8_t>(CmpOp::kLess)) {
    return Status::OutOfRange("expression: bad comparison operator");
  }
  if (rhs_is_var > 1) {
    return Status::OutOfRange("expression: bad operand flag");
  }
  e->op = static_cast<CmpOp>(op);
  e->rhs_is_var = rhs_is_var != 0;
  if (e->rhs_is_var) {
    BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&object));
    BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&attribute));
    e->rhs_var = {static_cast<std::size_t>(object),
                  static_cast<std::size_t>(attribute)};
  } else {
    BAYESCROWD_RETURN_NOT_OK(r->ReadI32(&e->rhs_const));
  }
  return Status::OK();
}

}  // namespace bayescrowd

#include "crowd/task.h"

#include "common/string_util.h"

namespace bayescrowd {

std::string Task::QuestionText(const Table& table) const {
  const auto var_text = [&table](const CellRef& v) {
    return StrFormat("the %s of %s",
                     table.schema().attribute(v.attribute).name.c_str(),
                     table.object_name(v.object).c_str());
  };
  const std::string lhs = var_text(expression.lhs);
  const std::string rhs =
      expression.rhs_is_var
          ? var_text(expression.rhs_var)
          : StrFormat("%d", expression.rhs_const);
  return StrFormat("Is %s larger than, smaller than, or equal to %s?",
                   lhs.c_str(), rhs.c_str());
}

bool TasksConflict(const Task& a, const Task& b) {
  for (const CellRef& va : a.expression.Variables()) {
    for (const CellRef& vb : b.expression.Variables()) {
      if (va == vb) return true;
    }
  }
  return false;
}

}  // namespace bayescrowd

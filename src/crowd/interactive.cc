#include "crowd/interactive.h"

#include <string>

#include "common/string_util.h"

namespace bayescrowd {
namespace {

bool ParseAnswer(std::string_view text, Ordering* out) {
  const std::string_view t = Trim(text);
  if (t == "l" || t == "larger" || t == ">" || t == "L") {
    *out = Ordering::kGreater;
    return true;
  }
  if (t == "s" || t == "smaller" || t == "<" || t == "S") {
    *out = Ordering::kLess;
    return true;
  }
  if (t == "e" || t == "equal" || t == "=" || t == "E") {
    *out = Ordering::kEqual;
    return true;
  }
  return false;
}

}  // namespace

void InteractiveCrowdPlatform::SaveState(std::string* out) const {
  BinWriter w(out);
  w.WriteU8('I');
  w.WriteU64(total_tasks_);
  w.WriteU64(total_rounds_);
}

Status InteractiveCrowdPlatform::LoadState(BinReader* reader) {
  std::uint8_t tag = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&tag));
  if (tag != 'I') {
    return Status::InvalidArgument(
        "platform state: expected interactive-platform chunk");
  }
  std::uint64_t tasks = 0;
  std::uint64_t rounds = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&rounds));
  total_tasks_ = static_cast<std::size_t>(tasks);
  total_rounds_ = static_cast<std::size_t>(rounds);
  return Status::OK();
}

Result<std::vector<TaskAnswer>> InteractiveCrowdPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  if (tasks.empty()) return Status::InvalidArgument("empty batch");
  out_ << "--- round " << (total_rounds_ + 1) << ": " << tasks.size()
       << " task(s) ---\n";
  std::vector<TaskAnswer> answers;
  answers.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const std::string question = tasks[t].QuestionText(table_);
    Ordering relation = Ordering::kEqual;
    bool parsed = false;
    for (int attempt = 0; attempt < 3 && !parsed; ++attempt) {
      out_ << "[" << (t + 1) << "/" << tasks.size() << "] " << question
           << "\n  answer (l)arger / (s)maller / (e)qual: " << std::flush;
      std::string line;
      if (!std::getline(in_, line)) {
        return Status::IOError("input stream closed mid-batch");
      }
      parsed = ParseAnswer(line, &relation);
      if (!parsed) out_ << "  could not parse '" << line << "'\n";
    }
    if (!parsed) {
      return Status::InvalidArgument("three unparseable answers in a row");
    }
    answers.push_back({relation});
  }
  total_tasks_ += tasks.size();
  ++total_rounds_;
  return answers;
}

}  // namespace bayescrowd

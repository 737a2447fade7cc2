#include "crowd/platform.h"

#include <utility>

#include "common/string_util.h"

namespace bayescrowd {

SimulatedCrowdPlatform::SimulatedCrowdPlatform(
    Table ground_truth, SimulatedPlatformOptions options)
    : ground_truth_(std::move(ground_truth)),
      options_(options),
      rng_(options.seed) {}

void SimulatedCrowdPlatform::SaveState(std::string* out) const {
  BinWriter w(out);
  w.WriteU8('S');
  for (const std::uint64_t word : rng_.SaveState()) w.WriteU64(word);
  w.WriteU64(total_tasks_);
  w.WriteU64(total_rounds_);
}

Status SimulatedCrowdPlatform::LoadState(BinReader* reader) {
  std::uint8_t tag = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&tag));
  if (tag != 'S') {
    return Status::InvalidArgument(
        "platform state: expected simulated-platform chunk");
  }
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&word));
  }
  std::uint64_t tasks = 0;
  std::uint64_t rounds = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&rounds));
  rng_.LoadState(rng_state);
  total_tasks_ = static_cast<std::size_t>(tasks);
  total_rounds_ = static_cast<std::size_t>(rounds);
  return Status::OK();
}

Result<Ordering> SimulatedCrowdPlatform::TrueRelation(
    const Expression& expression) const {
  const Level lhs =
      ground_truth_.At(expression.lhs.object, expression.lhs.attribute);
  if (IsMissingLevel(lhs)) {
    return Status::FailedPrecondition(
        "ground-truth table is missing the asked cell");
  }
  Level rhs = expression.rhs_const;
  if (expression.rhs_is_var) {
    rhs = ground_truth_.At(expression.rhs_var.object,
                           expression.rhs_var.attribute);
    if (IsMissingLevel(rhs)) {
      return Status::FailedPrecondition(
          "ground-truth table is missing the asked cell");
    }
  }
  if (lhs < rhs) return Ordering::kLess;
  if (lhs > rhs) return Ordering::kGreater;
  return Ordering::kEqual;
}

Ordering SimulatedCrowdPlatform::WorkerVote(Ordering truth) {
  const double accuracy =
      options_.accuracy_pool.empty()
          ? options_.worker_accuracy
          : options_.accuracy_pool[rng_.NextBelow(
                options_.accuracy_pool.size())];
  if (rng_.NextBool(accuracy)) return truth;
  // Uniform over the two wrong choices.
  constexpr Ordering kAll[] = {Ordering::kLess, Ordering::kEqual,
                               Ordering::kGreater};
  Ordering wrong[2];
  int w = 0;
  for (Ordering o : kAll) {
    if (o != truth) wrong[w++] = o;
  }
  return wrong[rng_.NextBelow(2)];
}

Result<std::vector<TaskAnswer>> SimulatedCrowdPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  if (tasks.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  std::vector<TaskAnswer> answers;
  answers.reserve(tasks.size());
  for (const Task& task : tasks) {
    BAYESCROWD_ASSIGN_OR_RETURN(const Ordering truth,
                                TrueRelation(task.expression));
    // Majority vote, ties broken toward the first-listed tied option —
    // the same deterministic rule as quality.h's MajorityVote.
    int votes[3] = {0, 0, 0};
    for (int w = 0; w < options_.workers_per_task; ++w) {
      votes[static_cast<int>(WorkerVote(truth))] += 1;
    }
    int best = 0;
    for (int o = 1; o < 3; ++o) {
      if (votes[o] > votes[best]) best = o;
    }
    answers.push_back({static_cast<Ordering>(best)});
  }
  total_tasks_ += tasks.size();
  ++total_rounds_;
  return answers;
}

}  // namespace bayescrowd

#include "crowd/platform.h"

#include <utility>

#include "crowd/quality.h"

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

Result<std::vector<TaskAnswer>> SimulatedCrowdPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  if (tasks.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  std::vector<TaskAnswer> answers;
  answers.reserve(tasks.size());
  std::vector<Ordering> votes;
  for (const Task& task : tasks) {
    BAYESCROWD_ASSIGN_OR_RETURN(const Ordering truth,
                                TrueRelation(ground_truth_, task.expression));
    votes.clear();
    for (int w = 0; w < options_.workers_per_task; ++w) {
      // A fresh worker per vote: from the pool when there is one.
      const double accuracy =
          options_.accuracy_pool.empty()
              ? options_.worker_accuracy
              : options_.accuracy_pool[rng_.NextBelow(
                    options_.accuracy_pool.size())];
      votes.push_back(NoisyVote(truth, accuracy, rng_));
    }
    answers.emplace_back().relation = MajorityVote(votes);
  }
  total_tasks_ += tasks.size();
  ++total_rounds_;
  return answers;
}

}  // namespace bayescrowd

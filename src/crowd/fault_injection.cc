#include "crowd/fault_injection.h"

#include <utility>

namespace bayescrowd {

FaultOptions FaultOptions::Profile(double rate, std::uint64_t seed) {
  FaultOptions out;
  out.transient_failure_rate = rate;
  out.abstain_rate = rate;
  out.partial_batch_rate = rate / 2.0;
  out.seed = seed;
  return out;
}

FaultInjectingPlatform::FaultInjectingPlatform(CrowdPlatform& inner,
                                               FaultOptions options)
    : inner_(inner), options_(std::move(options)), rng_(options_.seed) {}

void FaultInjectingPlatform::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    ins_ = Instruments{};
    return;
  }
  ins_.transient_failures =
      registry->GetCounter("fault.transient_failures");
  ins_.timeouts = registry->GetCounter("fault.timeouts");
  ins_.abstained_tasks = registry->GetCounter("fault.abstained_tasks");
  ins_.partial_batches = registry->GetCounter("fault.partial_batches");
  ins_.dropped_tail_tasks =
      registry->GetCounter("fault.dropped_tail_tasks");
}

void FaultInjectingPlatform::SaveState(std::string* out) const {
  BinWriter w(out);
  w.WriteU8('F');
  for (const std::uint64_t word : rng_.SaveState()) w.WriteU64(word);
  w.WriteU64(stats_.transient_failures);
  w.WriteU64(stats_.timeouts);
  w.WriteU64(stats_.abstained_tasks);
  w.WriteU64(stats_.partial_batches);
  w.WriteU64(stats_.dropped_tail_tasks);
  w.WriteU64(stats_.batches_attempted);
  w.WriteU64(stats_.batches_delivered);
  inner_.SaveState(out);
}

Status FaultInjectingPlatform::LoadState(BinReader* reader) {
  std::uint8_t tag = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&tag));
  if (tag != 'F') {
    return Status::InvalidArgument(
        "platform state: expected fault-injector chunk");
  }
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) {
    BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&word));
  }
  FaultStats stats;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.transient_failures));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.timeouts));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.abstained_tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.partial_batches));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.dropped_tail_tasks));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.batches_attempted));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&stats.batches_delivered));
  rng_.LoadState(rng_state);
  stats_ = stats;
  return inner_.LoadState(reader);
}

Result<std::vector<TaskAnswer>> FaultInjectingPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  ++stats_.batches_attempted;
  // Share of injected failures reported as batch timeouts (a distinct
  // counter, the same retry handling downstream).
  constexpr double kTimeoutFraction = 0.25;

  // The draw order is fixed (failure, timeout split, partial, then one
  // abstain draw per task) so the schedule depends only on the seed and
  // the sequence of batch sizes, never on answer content.
  if (rng_.NextBool(options_.transient_failure_rate)) {
    if (rng_.NextBool(kTimeoutFraction)) {
      ++stats_.timeouts;
      if (ins_.timeouts != nullptr) ins_.timeouts->Increment();
      return Status::Unavailable("injected batch timeout");
    }
    ++stats_.transient_failures;
    if (ins_.transient_failures != nullptr) {
      ins_.transient_failures->Increment();
    }
    return Status::Unavailable("injected transient platform failure");
  }

  BAYESCROWD_ASSIGN_OR_RETURN(std::vector<TaskAnswer> answers,
                              inner_.PostBatch(tasks));
  ++stats_.batches_delivered;

  if (rng_.NextBool(options_.partial_batch_rate) && answers.size() > 1) {
    // Drop a non-empty proper tail: the platform returned the round
    // half-finished.
    const std::size_t tail_start =
        1 + static_cast<std::size_t>(rng_.NextBelow(answers.size() - 1));
    ++stats_.partial_batches;
    if (ins_.partial_batches != nullptr) ins_.partial_batches->Increment();
    for (std::size_t i = tail_start; i < answers.size(); ++i) {
      answers[i].answered = false;
      ++stats_.dropped_tail_tasks;
      if (ins_.dropped_tail_tasks != nullptr) {
        ins_.dropped_tail_tasks->Increment();
      }
    }
  }

  for (TaskAnswer& answer : answers) {
    const bool abstain = rng_.NextBool(options_.abstain_rate);
    if (abstain && answer.answered) {
      answer.answered = false;
      ++stats_.abstained_tasks;
      if (ins_.abstained_tasks != nullptr) {
        ins_.abstained_tasks->Increment();
      }
    }
  }
  return answers;
}

}  // namespace bayescrowd

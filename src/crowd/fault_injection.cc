#include "crowd/fault_injection.h"

#include <utility>

namespace bayescrowd {
namespace {

void Bump(obs::Counter* counter, std::uint64_t delta = 1) {
  if (counter != nullptr) counter->Increment(delta);
}

}  // namespace

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
  BAYESCROWD_RETURN_NOT_OK(DrawAttempt());
  BAYESCROWD_ASSIGN_OR_RETURN(std::vector<TaskAnswer> answers,
                              inner_.PostBatch(tasks));
  DropAnswers(&answers);
  return answers;
}

void FaultInjectingPlatform::SyncReplayed(const std::vector<Task>& tasks,
                                          bool delivered) {
  // The draws follow the schedule, not `delivered`: a replay that
  // matches the recorded run draws a failure exactly where it recorded
  // one.
  (void)delivered;
  if (tasks.empty() || !DrawAttempt().ok()) return;
  inner_.SyncReplayed(tasks, /*delivered=*/true);
  std::vector<TaskAnswer> answers(tasks.size());
  DropAnswers(&answers);
}

// The draw order is fixed (failure, timeout split, partial, then one
// abstain draw per task) so the schedule depends only on the seed and
// the sequence of batch sizes, never on answer content.
Status FaultInjectingPlatform::DrawAttempt() {
  ++stats_.batches_attempted;
  // Share of injected failures reported as batch timeouts (a distinct
  // counter, the same retry handling downstream).
  constexpr double kTimeoutFraction = 0.25;
  if (!rng_.NextBool(options_.transient_failure_rate)) return Status::OK();
  if (rng_.NextBool(kTimeoutFraction)) {
    ++stats_.timeouts;
    Bump(ins_.timeouts);
    return Status::Unavailable("injected batch timeout");
  }
  ++stats_.transient_failures;
  Bump(ins_.transient_failures);
  return Status::Unavailable("injected transient platform failure");
}

void FaultInjectingPlatform::DropAnswers(std::vector<TaskAnswer>* answers) {
  ++stats_.batches_delivered;
  const std::size_t n = answers->size();
  std::size_t kept = n;
  if (rng_.NextBool(options_.partial_batch_rate) && n > 1) {
    // Drop a non-empty proper tail: the platform returned the round
    // half-finished.
    kept = 1 + static_cast<std::size_t>(rng_.NextBelow(n - 1));
    ++stats_.partial_batches;
    stats_.dropped_tail_tasks += n - kept;
    Bump(ins_.partial_batches);
    Bump(ins_.dropped_tail_tasks, n - kept);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool abstain = rng_.NextBool(options_.abstain_rate) && i < kept;
    if (abstain) {
      ++stats_.abstained_tasks;
      Bump(ins_.abstained_tasks);
    }
    if (abstain || i >= kept) (*answers)[i].answered = false;
  }
}

}  // namespace bayescrowd

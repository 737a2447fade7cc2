#include "core/session.h"

#include <utility>

#include "common/string_util.h"

namespace bayescrowd {

std::uint64_t HashBytes(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t ConfigFingerprint(const BayesCrowdOptions& options,
                                std::string_view dataset_bytes,
                                std::string_view platform_config) {
  // Canonical text of every option that changes query behavior.
  // `threads` and `metrics` are excluded on purpose; extend the string
  // (never reorder it) when options grow.
  std::string canon = StrFormat(
      "v1|budget=%zu|latency=%zu|threshold=%.17g|confidence=%.17g|"
      "strategy=%d|m=%zu|alpha=%.17g|fastdom=%d|"
      "method=%d|memoize=%d|sseed=%llu|"
      "retry=%zu,%.17g,%.17g,%.17g,%.17g,%zu",
      options.budget, options.latency, options.answer_threshold,
      options.confidence_stop_entropy,
      static_cast<int>(options.strategy.kind), options.strategy.m,
      options.ctable.alpha, options.ctable.use_fast_dominators ? 1 : 0,
      static_cast<int>(options.probability.method),
      options.probability.memoize ? 1 : 0,
      static_cast<unsigned long long>(options.probability.sampling_seed),
      options.retry.max_attempts, options.retry.attempt_seconds,
      options.retry.backoff_initial_seconds,
      options.retry.backoff_multiplier,
      options.retry.round_deadline_seconds,
      options.retry.max_barren_rounds);
  // Governed runs append the budget configuration: a resume under a
  // different budget would replay a different ladder. The wall-clock
  // deadline is excluded by design — it only degrades, never changes
  // values — and inert governors append nothing, so pre-governor
  // checkpoints keep their fingerprints.
  const GovernorOptions& governor = options.probability.governor;
  if (governor.enabled()) {
    canon += StrFormat(
        "|governor=%llu,%llu,%d,%zu,%.17g|breaker=%zu|pessimistic=%d",
        static_cast<unsigned long long>(governor.max_nodes),
        static_cast<unsigned long long>(governor.max_components),
        static_cast<int>(governor.ladder), governor.interval_samples,
        governor.confidence_z, options.breaker_threshold,
        options.strategy.pessimistic ? 1 : 0);
  }
  std::uint64_t hash = HashBytes(canon);
  hash = HashBytes(dataset_bytes, hash);
  hash = HashBytes(platform_config, hash);
  // 0 means "skip the check" to RecoverSession; never emit it.
  return hash == 0 ? 1 : hash;
}

Status SessionCheckpointSink::Write(const SessionState& state) {
  SessionState stamped = state;
  stamped.answer_log_offset =
      base_log_offset_ +
      (recorder_ != nullptr ? recorder_->log().entries.size() : 0);
  stamped.config_fingerprint = config_fingerprint_;
  return store_->Write(stamped);
}

Result<RecoveredSession> RecoverSession(const std::string& checkpoint_dir,
                                        const std::string& answer_log_path,
                                        std::uint64_t expected_fingerprint,
                                        const std::string& session_id) {
  RecoveredSession out;

  // The durable log bounds which snapshots are usable. A missing file
  // reads as an empty log; a torn final line (killed mid-append) is
  // dropped and the file rewritten so later appends start clean.
  AnswerLog log;
  Result<AnswerLog> loaded =
      LoadAnswerLogTolerant(answer_log_path, &out.dropped_torn_tail);
  if (loaded.ok()) {
    log = std::move(loaded).value();
  } else if (!loaded.status().IsIOError()) {
    return loaded.status();  // Malformed beyond the torn tail: corrupt.
  }
  if (out.dropped_torn_tail) {
    BAYESCROWD_RETURN_NOT_OK(SaveAnswerLog(log, answer_log_path));
  }
  out.durable_entries = log.entries.size();

  CheckpointStore store({.dir = checkpoint_dir, .session_id = session_id});
  Result<SessionState> latest =
      store.LoadLatest(out.durable_entries, &out.fallbacks);
  if (!latest.ok()) {
    // No usable snapshot. If answers were bought, the session is still
    // recoverable from scratch: default state + full log replay (the
    // kill-before-first-checkpoint case). With nothing durable at all,
    // there is no session to resume.
    if (!latest.status().IsNotFound() || log.entries.empty()) {
      return latest.status();
    }
    out.from_scratch = true;
    out.state = SessionState();
    out.replay_tail = std::move(log);
    return out;
  }
  out.state = std::move(latest).value();

  if (expected_fingerprint != 0 && out.state.config_fingerprint != 0 &&
      out.state.config_fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "resume: checkpoint was written under a different configuration "
        "(options, dataset, posterior model or platform setup changed)");
  }

  out.replay_tail.entries.assign(
      log.entries.begin() +
          static_cast<std::ptrdiff_t>(out.state.answer_log_offset),
      log.entries.end());
  return out;
}

}  // namespace bayescrowd

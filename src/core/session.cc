#include "core/session.h"

#include <utility>

#include "common/string_util.h"

namespace bayescrowd {
namespace {

CheckpointStore::Options StoreOptions(const std::string& dir,
                                      std::size_t keep, FileIo* io) {
  CheckpointStore::Options options;
  options.dir = dir;
  options.keep = keep;
  options.io = io;
  return options;
}

}  // namespace

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
  // `threads` and `metrics` are excluded on purpose. No term is kept for
  // a retired option: the checkpoint version refuses every older
  // checkpoint before any fingerprint is compared, so a change to this
  // string only has to come with a kCheckpointVersion bump.
  std::string canon = StrFormat(
      "v1|budget=%zu|latency=%zu|threshold=%.17g|confidence=%.17g|"
      "strategy=%d|m=%zu|alpha=%.17g|method=%d|sseed=%llu|"
      "retry=%zu,%.17g,%.17g,%.17g,%.17g,%zu",
      options.budget, options.latency, options.answer_threshold,
      options.confidence_stop_entropy,
      static_cast<int>(options.strategy.kind), options.strategy.m,
      options.ctable.alpha,
      static_cast<int>(options.probability.method),
      static_cast<unsigned long long>(options.probability.sampling_seed),
      options.retry.max_attempts, options.retry.attempt_seconds,
      options.retry.backoff_initial_seconds,
      options.retry.backoff_multiplier,
      options.retry.round_deadline_seconds,
      options.retry.max_barren_rounds);
  // Governed runs append the budget configuration: a resume under a
  // different budget would replay a different ladder. The wall-clock
  // deadline is excluded by design — it only degrades, never changes
  // values — and inert governors append nothing.
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

Result<RecoveredSession> RecoverSession(const std::string& checkpoint_dir,
                                        const std::string& answer_log_path,
                                        std::uint64_t expected_fingerprint,
                                        FileIo* io) {
  RecoveredSession out;

  // The durable log bounds which snapshots are usable. A torn tail
  // (killed mid-append) is dropped, and the file atomically rewritten
  // without it so later appends start clean.
  BAYESCROWD_ASSIGN_OR_RETURN(
      AnswerLog log,
      LoadAnswerLog(answer_log_path, &out.dropped_torn_tail, io));
  if (out.dropped_torn_tail) {
    std::vector<std::string> payloads;
    payloads.reserve(log.entries.size());
    for (const AnswerLogEntry& entry : log.entries) {
      payloads.push_back(EncodeAnswerLogEntry(entry));
    }
    BAYESCROWD_RETURN_NOT_OK(
        JournalWriter(io, answer_log_path, kAnswerLogFormat)
            .Rewrite(payloads));
  }
  out.durable_entries = log.entries.size();

  const CheckpointStore store(
      StoreOptions(checkpoint_dir, /*keep=*/1, io));  // Loads never prune.
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

DurableSession::DurableSession(const Options& options)
    : options_(options),
      store_(StoreOptions(options.dir, options.keep, nullptr)),
      journal_(nullptr, options.dir + "/answers.log", kAnswerLogFormat) {}

Result<std::unique_ptr<DurableSession>> DurableSession::Open(
    const Options& options, CrowdPlatform& live, BayesCrowdOptions* run) {
  BAYESCROWD_RETURN_NOT_OK(RealFileIo()->CreateDirs(options.dir));
  std::unique_ptr<DurableSession> session(new DurableSession(options));
  const std::string& log_path = session->journal_.path();
  CrowdPlatform* below_recorder = &live;
  std::size_t already_durable = 0;
  if (options.resume) {
    BAYESCROWD_ASSIGN_OR_RETURN(
        RecoveredSession recovered,
        RecoverSession(options.dir, log_path, options.fingerprint));
    session->recovered_ =
        std::make_unique<RecoveredSession>(std::move(recovered));
    const RecoveredSession& r = *session->recovered_;
    session->base_log_offset_ = r.state.answer_log_offset;
    // The recorder re-records the replayed tail, which the log holds.
    already_durable = r.durable_entries - r.state.answer_log_offset;
    session->replayer_ =
        std::make_unique<ReplayingPlatform>(r.replay_tail, &live);
    session->replayer_->SetBaseTotals(r.state.platform_tasks,
                                      r.state.platform_rounds);
    below_recorder = session->replayer_.get();
    // A from-scratch recovery (killed before the first checkpoint) has
    // no state to restore; the full-log replay rebuilds it.
    if (!r.from_scratch) run->resume = &r.state;
    if (run->metrics != nullptr) {
      obs::MetricsRegistry& metrics = *run->metrics;
      metrics.GetCounter("recovery.resumed")->Increment();
      metrics.GetCounter("recovery.fallback")->Increment(r.fallbacks);
      metrics.GetCounter("recovery.replayed_entries")
          ->Increment(r.replay_tail.entries.size());
      if (r.dropped_torn_tail) {
        metrics.GetCounter("recovery.dropped_torn_tail")->Increment();
      }
    }
  } else {
    // A fresh run owns an empty directory: truncating another session's
    // log would orphan its generations, and pruning could then delete
    // this run's own snapshots in their favour.
    bool torn = false;
    BAYESCROWD_ASSIGN_OR_RETURN(const AnswerLog existing,
                                LoadAnswerLog(log_path, &torn));
    if (!existing.entries.empty() ||
        !session->store_.ListGenerations().empty()) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint dir %s already holds a session: continue it with "
          "--resume or start in an empty directory",
          options.dir.c_str()));
    }
    BAYESCROWD_RETURN_NOT_OK(session->journal_.Rewrite({}));
  }
  session->recorder_ = std::make_unique<RecordingPlatform>(
      *below_recorder, &session->journal_, already_durable);
  run->checkpoint_sink = session.get();
  return session;
}

Status DurableSession::Write(const SessionState& state) {
  // Every entry the recorder holds is durable by the time a round
  // boundary is reached (it appends per batch).
  SessionState stamped = state;
  stamped.answer_log_offset =
      base_log_offset_ + recorder_->log().entries.size();
  stamped.config_fingerprint = options_.fingerprint;
  CheckpointSink* sink =
      options_.sink != nullptr ? options_.sink : &store_;
  return sink->Write(stamped);
}

}  // namespace bayescrowd

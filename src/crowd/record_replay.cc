#include "crowd/record_replay.h"

#include "common/binio.h"
#include "common/string_util.h"

namespace bayescrowd {
namespace {

// One encoded vote: u32 worker + u8 answer + f64 work seconds.
constexpr std::size_t kVoteBytes = 13;

}  // namespace

std::string EncodeAnswerLogEntry(const AnswerLogEntry& entry) {
  std::string out;
  BinWriter w(&out);
  w.WriteU8(static_cast<std::uint8_t>(entry.kind));
  w.WriteU64(entry.round);
  if (entry.kind == AnswerLogEntry::Kind::kFailure) return out;
  WriteExpression(&w, entry.expression);
  w.WriteU8(static_cast<std::uint8_t>(entry.relation));
  w.WriteU32(static_cast<std::uint32_t>(entry.votes.size()));
  for (const VoteRecord& vote : entry.votes) {
    w.WriteU32(vote.worker);
    w.WriteU8(static_cast<std::uint8_t>(vote.answer));
    w.WriteDouble(vote.work_seconds);
  }
  return out;
}

Status DecodeAnswerLogEntry(std::string_view payload,
                            AnswerLogEntry* entry) {
  BinReader r(payload);
  *entry = AnswerLogEntry();
  std::uint8_t kind = 0;
  std::uint64_t round = 0;
  BAYESCROWD_RETURN_NOT_OK(r.ReadU8(&kind));
  BAYESCROWD_RETURN_NOT_OK(r.ReadU64(&round));
  if (kind > static_cast<std::uint8_t>(AnswerLogEntry::Kind::kFailure)) {
    return Status::OutOfRange("answer log: bad entry kind");
  }
  entry->kind = static_cast<AnswerLogEntry::Kind>(kind);
  entry->round = static_cast<std::size_t>(round);
  if (entry->kind != AnswerLogEntry::Kind::kFailure) {
    BAYESCROWD_RETURN_NOT_OK(ReadExpression(&r, &entry->expression));
    BAYESCROWD_RETURN_NOT_OK(ReadOrdering(&r, &entry->relation));
    std::uint32_t votes = 0;
    BAYESCROWD_RETURN_NOT_OK(r.ReadU32(&votes));
    if (votes > r.remaining() / kVoteBytes) {
      return Status::OutOfRange("answer log: vote count exceeds payload");
    }
    entry->votes.resize(votes);
    for (VoteRecord& vote : entry->votes) {
      BAYESCROWD_RETURN_NOT_OK(r.ReadU32(&vote.worker));
      BAYESCROWD_RETURN_NOT_OK(ReadOrdering(&r, &vote.answer));
      BAYESCROWD_RETURN_NOT_OK(r.ReadDouble(&vote.work_seconds));
    }
  }
  if (!r.AtEnd()) {
    return Status::OutOfRange("answer log: trailing bytes in entry");
  }
  return Status::OK();
}

Result<AnswerLog> LoadAnswerLog(const std::string& path, bool* torn,
                                FileIo* io) {
  BAYESCROWD_ASSIGN_OR_RETURN(const JournalLoad journal,
                              LoadJournal(io, path, kAnswerLogFormat));
  *torn = journal.torn;
  AnswerLog log;
  log.entries.resize(journal.records.size());
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    const Status decoded =
        DecodeAnswerLogEntry(journal.records[i], &log.entries[i]);
    if (!decoded.ok()) {
      return Status(decoded.code(),
                    StrFormat("%s: entry %zu: %s", path.c_str(), i,
                              decoded.message().c_str()));
    }
  }
  return log;
}

Status RecordingPlatform::Persist(std::size_t first) {
  if (journal_ == nullptr) return Status::OK();
  std::vector<std::string> payloads;
  for (std::size_t i = first; i < log_.entries.size(); ++i) {
    if (skip_ > 0) {
      --skip_;
      continue;
    }
    payloads.push_back(EncodeAnswerLogEntry(log_.entries[i]));
  }
  return journal_->Append(payloads);
}

Result<std::vector<TaskAnswer>> RecordingPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  auto posted = inner_.PostBatch(tasks);
  if (!posted.ok()) {
    // Transient failures are part of the transcript: replaying them
    // drives the framework through the identical retry/backoff path.
    // Fatal errors are not recorded — a resumed query re-hits them.
    if (posted.status().IsUnavailable()) {
      AnswerLogEntry entry;
      entry.kind = AnswerLogEntry::Kind::kFailure;
      entry.round = inner_.total_rounds() + 1;  // The round being retried.
      log_.entries.push_back(entry);
      BAYESCROWD_RETURN_NOT_OK(Persist(log_.entries.size() - 1));
    }
    return posted.status();
  }
  const std::vector<TaskAnswer>& answers = posted.value();
  const std::size_t first = log_.entries.size();
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    AnswerLogEntry entry;
    entry.kind = answers[t].answered ? AnswerLogEntry::Kind::kAnswer
                                     : AnswerLogEntry::Kind::kAbstain;
    entry.expression = tasks[t].expression;
    entry.relation = answers[t].relation;
    entry.round = inner_.total_rounds();
    entry.votes = answers[t].votes;
    log_.entries.push_back(std::move(entry));
  }
  BAYESCROWD_RETURN_NOT_OK(Persist(first));
  return posted;
}

Result<std::vector<TaskAnswer>> ReplayingPlatform::PostBatch(
    const std::vector<Task>& tasks) {
  if (tasks.empty()) return Status::InvalidArgument("empty batch");

  // A failure marker at the batch boundary replays a whole-batch
  // transient error: the framework retried this batch in the recorded
  // session and will retry it again now.
  if (cursor_ < log_.entries.size() &&
      log_.entries[cursor_].kind == AnswerLogEntry::Kind::kFailure) {
    ++cursor_;
    // Keep the live platform's schedule aligned: the recorded session
    // drew this failure from its fault stream.
    if (fallback_ != nullptr) fallback_->SyncReplayed(tasks, false);
    return Status::Unavailable("replayed transient platform failure");
  }

  // Replay prefix: serve from the transcript while it matches. A batch
  // may straddle the log boundary (the recorded session's final round
  // was trimmed by its smaller budget), in which case the matching
  // prefix comes from the log and the rest goes live.
  std::vector<TaskAnswer> answers;
  answers.reserve(tasks.size());
  std::size_t served = 0;
  while (served < tasks.size() && cursor_ < log_.entries.size()) {
    const AnswerLogEntry& entry = log_.entries[cursor_];
    if (entry.kind == AnswerLogEntry::Kind::kFailure) {
      // Attempts are whole batches, so a marker can only sit between
      // them; hitting one mid-batch means the resumed query's batching
      // diverged from the recorded session.
      return Status::FailedPrecondition(StrFormat(
          "resumed query hit a mid-batch failure marker at entry %zu",
          cursor_));
    }
    if (!(entry.expression == tasks[served].expression)) {
      return Status::FailedPrecondition(StrFormat(
          "resumed query diverged from the recorded transcript at "
          "entry %zu",
          cursor_));
    }
    TaskAnswer answer;
    answer.relation = entry.relation;
    answer.answered = entry.kind == AnswerLogEntry::Kind::kAnswer;
    answer.votes = entry.votes;
    answers.push_back(answer);
    ++cursor_;
    ++served;
  }

  // Mirror the replayed prefix's draws on the live platform so its RNG
  // streams reach the recorded session's position by the time the log
  // is exhausted. (If a torn log splits a batch, the prefix sync plus
  // the live tail below draw two batch-level schedules where the
  // recorded run drew one — accepted: the resumed session is
  // self-consistent from here on, just not bit-identical to the
  // uninterrupted one. Whole-batch appends make this unreachable
  // outside deliberate mid-batch log corruption.)
  if (served > 0 && fallback_ != nullptr) {
    const std::vector<Task> prefix(
        tasks.begin(),
        tasks.begin() + static_cast<std::ptrdiff_t>(served));
    fallback_->SyncReplayed(prefix, true);
  }

  if (served < tasks.size()) {
    // Live tail.
    if (fallback_ == nullptr) {
      return Status::FailedPrecondition(
          "answer log exhausted and no live platform attached");
    }
    const std::vector<Task> tail(tasks.begin() +
                                     static_cast<std::ptrdiff_t>(served),
                                 tasks.end());
    BAYESCROWD_ASSIGN_OR_RETURN(const std::vector<TaskAnswer> live,
                                fallback_->PostBatch(tail));
    answers.insert(answers.end(), live.begin(), live.end());
  }
  total_tasks_ += tasks.size();
  ++total_rounds_;
  return answers;
}

}  // namespace bayescrowd

#include "core/checkpoint.h"

#include <algorithm>
#include <utility>

#include "common/journal.h"
#include "common/string_util.h"

namespace bayescrowd {
namespace {

constexpr JournalFormat kCheckpointFormat = {"BCKP", kCheckpointVersion,
                                             "checkpoint"};

// ------------------------------------------------------------------ //
// Component serializers. Each Read* validates enum domains and element
// counts; BinReader bounds-checks every access, so corrupt payloads
// fail with a Status instead of undefined behavior.
// ------------------------------------------------------------------ //

void WriteAnswer(BinWriter* w, const FoldedAnswer& answer) {
  WriteExpression(w, answer.expression);
  w->WriteU8(static_cast<std::uint8_t>(answer.relation));
}

Status ReadAnswer(BinReader* r, FoldedAnswer* answer) {
  BAYESCROWD_RETURN_NOT_OK(ReadExpression(r, &answer->expression));
  return ReadOrdering(r, &answer->relation);
}

void WriteRoundLog(BinWriter* w, const RoundLog& log) {
  w->WriteU64(log.round);
  w->WriteU64(log.tasks);
  w->WriteDouble(log.seconds);
  w->WriteDouble(log.select_seconds);
  w->WriteDouble(log.update_seconds);
  w->WriteU64(log.attempts);
  w->WriteU64(log.answered);
  w->WriteU64(log.unanswered);
  w->WriteDouble(log.cost_refunded);
  w->WriteDouble(log.backoff_seconds);
  w->WriteDouble(log.simulated_seconds);
  w->WriteBool(log.abandoned);
}

Status ReadRoundLog(BinReader* r, RoundLog* log) {
  std::uint64_t u = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  log->round = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  log->tasks = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->seconds));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->select_seconds));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->update_seconds));
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  log->attempts = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  log->answered = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  log->unanswered = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->cost_refunded));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->backoff_seconds));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&log->simulated_seconds));
  return r->ReadBool(&log->abandoned);
}

// Minimum serialized round log: 5 u64 + 6 double + bool = 89 bytes.
constexpr std::size_t kMinRoundLogBytes = 89;

void WriteMetricsSnapshot(BinWriter* w, const obs::MetricsSnapshot& m) {
  w->WriteU64(m.counters.size());
  for (const auto& [name, value] : m.counters) {
    w->WriteString(name);
    w->WriteU64(value);
  }
  w->WriteU64(m.gauges.size());
  for (const auto& [name, value] : m.gauges) {
    w->WriteString(name);
    w->WriteDouble(value);
  }
  w->WriteU64(m.histograms.size());
  for (const auto& [name, hist] : m.histograms) {
    w->WriteString(name);
    w->WriteU64(hist.bounds.size());
    for (const double b : hist.bounds) w->WriteDouble(b);
    w->WriteU64(hist.bucket_counts.size());
    for (const std::uint64_t c : hist.bucket_counts) w->WriteU64(c);
    w->WriteU64(hist.count);
    w->WriteDouble(hist.sum);
  }
}

Status ReadMetricsSnapshot(BinReader* r, obs::MetricsSnapshot* m) {
  std::uint64_t n = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadCount(&n, 16));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    BAYESCROWD_RETURN_NOT_OK(r->ReadString(&name));
    BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&value));
    m->counters[std::move(name)] = value;
  }
  BAYESCROWD_RETURN_NOT_OK(r->ReadCount(&n, 16));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0.0;
    BAYESCROWD_RETURN_NOT_OK(r->ReadString(&name));
    BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&value));
    m->gauges[std::move(name)] = value;
  }
  BAYESCROWD_RETURN_NOT_OK(r->ReadCount(&n, 40));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    BAYESCROWD_RETURN_NOT_OK(r->ReadString(&name));
    obs::HistogramSnapshot hist;
    std::uint64_t count = 0;
    BAYESCROWD_RETURN_NOT_OK(r->ReadCount(&count, 8));
    hist.bounds.resize(count);
    for (double& b : hist.bounds) {
      BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&b));
    }
    BAYESCROWD_RETURN_NOT_OK(r->ReadCount(&count, 8));
    hist.bucket_counts.resize(count);
    for (std::uint64_t& c : hist.bucket_counts) {
      BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&c));
    }
    BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&hist.count));
    BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&hist.sum));
    m->histograms[std::move(name)] = std::move(hist);
  }
  return Status::OK();
}

void WriteBreakerRecord(BinWriter* w, const SolverBreakerRecord& b) {
  w->WriteU64(b.object);
  w->WriteU64(b.fingerprint.first);
  w->WriteU64(b.fingerprint.second);
  w->WriteU64(b.consecutive);
  w->WriteBool(b.open);
  w->WriteDouble(b.last.lo);
  w->WriteDouble(b.last.hi);
  w->WriteU8(static_cast<std::uint8_t>(b.last.quality));
}

Status ReadBreakerRecord(BinReader* r, SolverBreakerRecord* b) {
  std::uint64_t u = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  b->object = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&b->fingerprint.first));
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&b->fingerprint.second));
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  b->consecutive = static_cast<std::size_t>(u);
  BAYESCROWD_RETURN_NOT_OK(r->ReadBool(&b->open));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&b->last.lo));
  BAYESCROWD_RETURN_NOT_OK(r->ReadDouble(&b->last.hi));
  std::uint8_t quality = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU8(&quality));
  if (quality > static_cast<std::uint8_t>(ProbQuality::kUnknown)) {
    return Status::OutOfRange("checkpoint: bad breaker interval quality");
  }
  b->last.quality = static_cast<ProbQuality>(quality);
  if (!(b->last.lo >= 0.0 && b->last.lo <= b->last.hi &&
        b->last.hi <= 1.0)) {
    return Status::OutOfRange("checkpoint: breaker interval out of [0,1]");
  }
  return Status::OK();
}

// Minimum serialized breaker record: 4 u64 + 2 double + bool + u8.
constexpr std::size_t kMinBreakerBytes = 50;

Status ReadSize(BinReader* r, std::size_t* out) {
  std::uint64_t u = 0;
  BAYESCROWD_RETURN_NOT_OK(r->ReadU64(&u));
  *out = static_cast<std::size_t>(u);
  return Status::OK();
}

// ------------------------------------------------------------------ //
// File helpers.
// ------------------------------------------------------------------ //

/// Parses "ckpt-NNNNNNNN.bin" (empty `session_id`) or
/// "ckpt-<session_id>-NNNNNNNN.bin" (non-empty); returns false for
/// anything else — tmp files left by a killed write, and any other
/// session's namespace. The two forms never match each other: the
/// legacy parse requires a digit right after "ckpt-", and the
/// namespaced parse requires its exact session prefix.
bool ParseGenerationName(const std::string& name,
                         const std::string& session_id,
                         std::size_t* rounds) {
  std::string prefix = "ckpt-";
  if (!session_id.empty()) prefix += session_id + "-";
  constexpr std::string_view kSuffix = ".bin";
  if (name.size() != prefix.size() + 8 + kSuffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                   kSuffix) != 0) {
    return false;
  }
  std::size_t value = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *rounds = value;
  return true;
}

}  // namespace

std::size_t SessionState::consecutive_barren() const {
  std::size_t barren = 0;
  for (auto it = round_logs.rbegin();
       it != round_logs.rend() && it->answered == 0; ++it) {
    ++barren;
  }
  return barren;
}

void SerializeSessionState(const SessionState& state, std::string* out) {
  BinWriter w(out);
  w.WriteDouble(state.budget_left);
  w.WriteDouble(state.cost_spent);
  w.WriteU64(state.round_logs.size());
  for (const RoundLog& log : state.round_logs) WriteRoundLog(&w, log);
  w.WriteU64(state.answers.size());
  for (const FoldedAnswer& answer : state.answers) WriteAnswer(&w, answer);
  WriteMetricsSnapshot(&w, state.metrics);
  w.WriteString(state.platform_state);
  w.WriteU64(state.platform_tasks);
  w.WriteU64(state.platform_rounds);
  w.WriteU64(state.answer_log_offset);
  w.WriteU64(state.config_fingerprint);
  w.WriteU64(state.solver_breakers.size());
  for (const SolverBreakerRecord& b : state.solver_breakers) {
    WriteBreakerRecord(&w, b);
  }
}

Status DeserializeSessionState(BinReader* reader, SessionState* out) {
  BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&out->budget_left));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadDouble(&out->cost_spent));
  std::uint64_t count = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&count, kMinRoundLogBytes));
  out->round_logs.resize(count);
  for (RoundLog& log : out->round_logs) {
    BAYESCROWD_RETURN_NOT_OK(ReadRoundLog(reader, &log));
  }
  BAYESCROWD_RETURN_NOT_OK(
      reader->ReadCount(&count, kMinExpressionBytes + 1));
  out->answers.resize(count);
  for (FoldedAnswer& answer : out->answers) {
    BAYESCROWD_RETURN_NOT_OK(ReadAnswer(reader, &answer));
  }
  BAYESCROWD_RETURN_NOT_OK(ReadMetricsSnapshot(reader, &out->metrics));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadString(&out->platform_state));
  BAYESCROWD_RETURN_NOT_OK(ReadSize(reader, &out->platform_tasks));
  BAYESCROWD_RETURN_NOT_OK(ReadSize(reader, &out->platform_rounds));
  BAYESCROWD_RETURN_NOT_OK(ReadSize(reader, &out->answer_log_offset));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU64(&out->config_fingerprint));
  BAYESCROWD_RETURN_NOT_OK(reader->ReadCount(&count, kMinBreakerBytes));
  out->solver_breakers.resize(count);
  std::size_t last_object = 0;
  for (std::size_t i = 0; i < out->solver_breakers.size(); ++i) {
    SolverBreakerRecord& b = out->solver_breakers[i];
    BAYESCROWD_RETURN_NOT_OK(ReadBreakerRecord(reader, &b));
    if (i > 0 && b.object <= last_object) {
      return Status::OutOfRange(
          "checkpoint: breaker records not ascending by object");
    }
    last_object = b.object;
  }
  if (!reader->AtEnd()) {
    return Status::OutOfRange(
        "checkpoint: trailing bytes after session state");
  }
  return Status::OK();
}

Result<std::string> WrapCheckpoint(const std::string& payload) {
  std::string file = JournalHeader(kCheckpointFormat);
  BAYESCROWD_RETURN_NOT_OK(EncodeJournalRecord(payload, &file));
  return file;
}

Result<std::string> UnwrapCheckpoint(const std::string& file_bytes) {
  BAYESCROWD_ASSIGN_OR_RETURN(JournalLoad load,
                              ParseJournal(file_bytes, kCheckpointFormat));
  // Any damage falls back a generation: exactly one intact record.
  if (load.torn || load.records.size() != 1) {
    return Status::IOError("checkpoint corrupt: torn or truncated");
  }
  return std::move(load.records.front());
}

CheckpointStore::CheckpointStore(Options options)
    : options_(std::move(options)) {
  if (options_.keep == 0) options_.keep = 1;
  if (options_.io == nullptr) options_.io = RealFileIo();
}

std::vector<std::string> CheckpointStore::ListGenerations() const {
  std::vector<std::string> names;
  auto listed = options_.io->ListDir(options_.dir);
  if (!listed.ok()) return names;
  for (const std::string& name : listed.value()) {
    std::size_t rounds = 0;
    if (ParseGenerationName(name, options_.session_id, &rounds)) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status CheckpointStore::Write(const SessionState& state) {
  std::string payload;
  SerializeSessionState(state, &payload);
  BAYESCROWD_ASSIGN_OR_RETURN(const std::string file,
                              WrapCheckpoint(payload));
  const std::string name =
      options_.session_id.empty()
          ? StrFormat("ckpt-%08zu.bin", state.rounds())
          : StrFormat("ckpt-%s-%08zu.bin", options_.session_id.c_str(),
                      state.rounds());
  BAYESCROWD_RETURN_NOT_OK(WriteFileAtomic(options_.io,
                                           options_.dir + "/" + name, file,
                                           options_.pre_rename_hook));

  // Prune beyond `keep`, oldest first. A failed unlink is not fatal —
  // extra generations only cost disk.
  std::vector<std::string> names = ListGenerations();
  while (names.size() > options_.keep) {
    (void)options_.io->RemoveFile(options_.dir + "/" + names.front());
    names.erase(names.begin());
  }
  return Status::OK();
}

Result<SessionState> CheckpointStore::LoadLatest(
    std::size_t max_valid_log_entries, std::size_t* fallbacks) const {
  if (fallbacks != nullptr) *fallbacks = 0;
  const std::vector<std::string> names = ListGenerations();
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const std::string path = options_.dir + "/" + *it;
    const auto attempt = [&]() -> Result<SessionState> {
      BAYESCROWD_ASSIGN_OR_RETURN(const std::string bytes,
                                  options_.io->ReadFile(path));
      BAYESCROWD_ASSIGN_OR_RETURN(const std::string payload,
                                  UnwrapCheckpoint(bytes));
      SessionState state;
      BinReader reader(payload);
      BAYESCROWD_RETURN_NOT_OK(DeserializeSessionState(&reader, &state));
      if (state.answer_log_offset > max_valid_log_entries) {
        return Status::FailedPrecondition(StrFormat(
            "checkpoint %s references %zu answer-log entries but only "
            "%zu survived",
            it->c_str(), state.answer_log_offset, max_valid_log_entries));
      }
      return state;
    }();
    if (attempt.ok()) return attempt;
    if (fallbacks != nullptr) ++*fallbacks;
  }
  return Status::NotFound("no usable checkpoint generation in " +
                          options_.dir);
}

}  // namespace bayescrowd

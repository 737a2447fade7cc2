#include "obs/flight.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "obs/json.h"

namespace bayescrowd::obs {

const char* FlightEventKindToString(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kDegradation: return "degradation";
    case FlightEventKind::kBreakerTrip: return "breaker_trip";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kRoundAbandoned: return "round_abandoned";
    case FlightEventKind::kCheckpointWrite: return "checkpoint_write";
    case FlightEventKind::kBudgetExhausted: return "budget_exhausted";
    case FlightEventKind::kResume: return "resume";
    case FlightEventKind::kNote: return "note";
    case FlightEventKind::kAdmission: return "admission";
    case FlightEventKind::kEviction: return "eviction";
    case FlightEventKind::kQosDegrade: return "qos_degrade";
    case FlightEventKind::kQuarantine: return "quarantine";
    case FlightEventKind::kOverload: return "overload";
    case FlightEventKind::kRecovery: return "recovery";
    case FlightEventKind::kKappaCollapse: return "kappa_collapse";
    case FlightEventKind::kWorkerQuarantine: return "worker_quarantine";
  }
  return "unknown";
}

bool ParseFlightEventKind(const std::string& name, FlightEventKind* out) {
  if (name == "unknown") return false;  // The unassigned values' name.
  for (int i = 0;
       i <= static_cast<int>(FlightEventKind::kWorkerQuarantine); ++i) {
    const auto kind = static_cast<FlightEventKind>(i);
    if (name == FlightEventKindToString(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(FlightEventKind kind, std::uint64_t round,
                            std::int64_t object, double sim_seconds,
                            double value, std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent event;
  event.seq = total_++;
  event.kind = kind;
  event.round = round;
  event.object = object;
  event.sim_seconds = sim_seconds;
  event.value = value;
  event.detail = std::move(detail);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[event.seq % capacity_] = std::move(event);
  }
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out = ring_;
  } else {
    // The ring wrapped: oldest retained event is at total_ % capacity_.
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(total_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_ = 0;
}

namespace {

JsonValue EventToJson(const FlightEvent& event) {
  JsonValue line = JsonValue::Object();
  line["seq"] = event.seq;
  line["kind"] = FlightEventKindToString(event.kind);
  line["round"] = event.round;
  line["object"] = event.object;
  line["sim_seconds"] = event.sim_seconds;
  line["value"] = event.value;
  line["detail"] = event.detail;
  return line;
}

}  // namespace

Status FlightRecorder::WriteJsonl(const std::string& path) const {
  const std::vector<FlightEvent> events = Events();
  std::uint64_t total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = total_;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError(StrFormat("cannot write flight log %s: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  JsonValue header = JsonValue::Object();
  header["kind"] = "flight_header";
  header["schema_version"] = 1;
  header["total_recorded"] = total;
  header["retained"] = events.size();
  std::string text = header.Dump() + "\n";
  for (const FlightEvent& event : events) {
    text += EventToJson(event).Dump();
    text += '\n';
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) {
    return Status::IOError(
        StrFormat("short write to flight log %s", path.c_str()));
  }
  return Status::OK();
}

Status CheckFlightLogPath(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("needs a file path");
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) {
    return Status::IOError(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  std::fclose(probe);
  return Status::OK();
}

Result<FlightLoad> LoadFlightJsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError(
        StrFormat("cannot read flight log %s", path.c_str()));
  }
  FlightLoad load;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Result<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      ++load.corrupt_lines;  // Torn tail or stray garbage: skip.
      continue;
    }
    const JsonValue& doc = parsed.value();
    const JsonValue* kind = doc.Find("kind");
    if (kind == nullptr) {
      ++load.corrupt_lines;
      continue;
    }
    if (kind->AsString() == "flight_header") {
      const JsonValue* total = doc.Find("total_recorded");
      if (total != nullptr) {
        load.total_recorded = static_cast<std::uint64_t>(total->AsInt());
      }
      continue;
    }
    FlightEvent event;
    if (!ParseFlightEventKind(kind->AsString(), &event.kind)) {
      ++load.corrupt_lines;
      continue;
    }
    if (const JsonValue* v = doc.Find("seq")) {
      event.seq = static_cast<std::uint64_t>(v->AsInt());
    }
    if (const JsonValue* v = doc.Find("round")) {
      event.round = static_cast<std::uint64_t>(v->AsInt());
    }
    if (const JsonValue* v = doc.Find("object")) event.object = v->AsInt();
    if (const JsonValue* v = doc.Find("sim_seconds")) {
      event.sim_seconds = v->AsDouble();
    }
    if (const JsonValue* v = doc.Find("value")) event.value = v->AsDouble();
    if (const JsonValue* v = doc.Find("detail")) event.detail = v->AsString();
    load.events.push_back(std::move(event));
  }
  return load;
}

}  // namespace bayescrowd::obs

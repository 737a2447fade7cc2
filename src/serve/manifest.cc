#include "serve/manifest.h"

#include <utility>

#include "common/binio.h"

namespace bayescrowd::serve {
namespace {

constexpr JournalFormat kManifestFormat = {"BSMN", 1, "serve manifest"};

std::string EncodePayload(const ManifestEvent& event) {
  std::string payload;
  BinWriter writer(&payload);
  writer.WriteU8(static_cast<std::uint8_t>(event.kind));
  writer.WriteString(event.session_id);
  writer.WriteString(event.tenant);
  writer.WriteU64(event.rounds);
  writer.WriteU64(event.qos_level);
  writer.WriteU64(event.spec_fingerprint);
  writer.WriteString(event.checkpoint_dir);
  writer.WriteU64(event.checkpoint_keep);
  writer.WriteString(event.spec_blob);
  writer.WriteString(event.detail);
  return payload;
}

bool IsKnownKind(std::uint8_t raw_kind) {
  switch (static_cast<ManifestEventKind>(raw_kind)) {
    case ManifestEventKind::kCreate:
    case ManifestEventKind::kFinish:
    case ManifestEventKind::kEvict:
    case ManifestEventKind::kQuarantine:
      return true;
  }
  return false;
}

Status DecodePayload(std::string_view payload, ManifestEvent* event,
                     std::uint8_t* raw_kind) {
  BinReader reader(payload);
  BAYESCROWD_RETURN_NOT_OK(reader.ReadU8(raw_kind));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadString(&event->session_id));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadString(&event->tenant));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadU64(&event->rounds));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadU64(&event->qos_level));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadU64(&event->spec_fingerprint));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadString(&event->checkpoint_dir));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadU64(&event->checkpoint_keep));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadString(&event->spec_blob));
  BAYESCROWD_RETURN_NOT_OK(reader.ReadString(&event->detail));
  return Status::OK();
}

ManifestLoad DecodeEvents(const JournalLoad& journal) {
  ManifestLoad load;
  load.torn_tail_records = journal.torn ? 1 : 0;
  for (const std::string& payload : journal.records) {
    ManifestEvent event;
    std::uint8_t raw_kind = 0;
    if (!DecodePayload(payload, &event, &raw_kind).ok()) {
      // Framing and CRC were intact, so this is a mis-encoded payload
      // rather than a torn tail; stop scanning all the same.
      load.torn_tail_records = 1;
      break;
    }
    if (!IsKnownKind(raw_kind)) {
      // A retired kind or a newer writer's: skip it, keep scanning.
      ++load.unknown_kind_records;
      continue;
    }
    event.kind = static_cast<ManifestEventKind>(raw_kind);
    load.events.push_back(std::move(event));
  }
  return load;
}

}  // namespace

Result<std::string> EncodeManifestRecord(const ManifestEvent& event) {
  std::string record;
  BAYESCROWD_RETURN_NOT_OK(EncodeJournalRecord(EncodePayload(event), &record));
  return record;
}

std::string ManifestHeader() { return JournalHeader(kManifestFormat); }

Result<ManifestLoad> ParseManifest(std::string_view bytes) {
  BAYESCROWD_ASSIGN_OR_RETURN(const JournalLoad journal,
                              ParseJournal(bytes, kManifestFormat));
  return DecodeEvents(journal);
}

Result<ManifestLoad> LoadManifest(FileIo* io, const std::string& path) {
  BAYESCROWD_ASSIGN_OR_RETURN(const JournalLoad journal,
                              LoadJournal(io, path, kManifestFormat));
  return DecodeEvents(journal);
}

ServeManifest::ServeManifest(const Options& options)
    : journal_(options.io, options.path, kManifestFormat) {}

Status ServeManifest::Append(const ManifestEvent& event) {
  return journal_.Append({EncodePayload(event)});
}

Status ServeManifest::Rewrite(const std::vector<ManifestEvent>& events) {
  std::vector<std::string> payloads;
  payloads.reserve(events.size());
  for (const ManifestEvent& event : events) {
    payloads.push_back(EncodePayload(event));
  }
  return journal_.Rewrite(payloads);
}

}  // namespace bayescrowd::serve

// Durable serve manifest: the append-only journal that makes the
// *server* crash-only, the way `core/checkpoint` makes one session
// crash-only.
//
// The manager appends one record per session lifecycle event (create /
// finish / evict / quarantine). On restart, replaying the journal
// reconstructs exactly which sessions were live, under which tenant,
// with which spec fingerprint and checkpoint namespace — enough to
// mass-resume every one of them from its newest valid checkpoint
// without any per-session bookkeeping surviving the crash. How far a
// session got is its checkpoints' business, not the manifest's.
//
// The file is a journal (common/journal.h) with magic "BSMN", version
// 1, and one record per event. Each payload is a fixed field tuple
// (kind, id, tenant, rounds, qos_level, spec fingerprint, checkpoint
// namespace, spec blob, detail) regardless of kind. The journal's load
// rule drops a torn tail and refuses a foreign or other-version file;
// on top of it, a record that does not decode ends the scan like a torn
// one, and a record with an unknown kind byte is skipped with a counter
// so newer writers don't brick older readers, and journals that still
// hold the retired progress kinds load as before.

#ifndef BAYESCROWD_SERVE_MANIFEST_H_
#define BAYESCROWD_SERVE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/journal.h"
#include "common/result.h"
#include "common/status.h"

namespace bayescrowd::serve {

enum class ManifestEventKind : std::uint8_t {
  kCreate = 0,
  // 1 and 2 (advance, checkpoint) are retired and stay unassigned: a
  // journal that still holds them loads with them skipped as unknown.
  kFinish = 3,
  kEvict = 4,
  kQuarantine = 5,
};

/// One session lifecycle record. Every kind carries the full tuple so a
/// single surviving record is enough to rebuild the session's identity.
struct ManifestEvent {
  ManifestEventKind kind = ManifestEventKind::kCreate;
  std::string session_id;
  std::string tenant;
  std::uint64_t rounds = 0;       // Rounds completed at event time.
  std::uint64_t qos_level = 0;    // Governor rung at event time.
  std::uint64_t spec_fingerprint = 0;
  std::string checkpoint_dir;     // Namespaced checkpoint directory.
  std::uint64_t checkpoint_keep = 0;
  std::string spec_blob;          // Opaque spec payload (serve stores the
                                  // original create-request JSON line).
  std::string detail;             // Free-form context (reason strings).
};

/// Outcome of a manifest load.
struct ManifestLoad {
  std::vector<ManifestEvent> events;
  std::uint64_t torn_tail_records = 0;    // Torn or undecodable tail.
  std::uint64_t unknown_kind_records = 0; // Skipped, framing intact.
};

/// Encodes one framed record (len | payload | crc) ready to append.
/// Exposed for the fuzz tests, which splice hand-built records into
/// journals.
Result<std::string> EncodeManifestRecord(const ManifestEvent& event);

/// The 8-byte file header ("BSMN" + version).
std::string ManifestHeader();

/// Parses manifest bytes under the journal load rule: a damaged tail
/// is counted, a foreign or other-version file refused.
Result<ManifestLoad> ParseManifest(std::string_view bytes);

/// Reads and parses `path`; a missing file loads empty.
Result<ManifestLoad> LoadManifest(FileIo* io, const std::string& path);

/// Append-side handle over the manifest's journal.
class ServeManifest {
 public:
  struct Options {
    std::string path;
    FileIo* io = nullptr;  // null = RealFileIo().
  };

  explicit ServeManifest(const Options& options);

  /// Appends one record durably (framed write + sync).
  Status Append(const ManifestEvent& event);

  /// Atomically replaces the journal with exactly `events` (compaction
  /// after recovery): tmp + durable write + rename + dir sync. The
  /// append handle reopens on the next Append.
  Status Rewrite(const std::vector<ManifestEvent>& events);

  const std::string& path() const { return journal_.path(); }

 private:
  JournalWriter journal_;
};

}  // namespace bayescrowd::serve

#endif  // BAYESCROWD_SERVE_MANIFEST_H_

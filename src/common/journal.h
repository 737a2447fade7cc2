// The one framing every durable file uses: checkpoint generations, the
// serve manifest and the answer log.
//
// File layout (little-endian):
//
//   magic (4 bytes) | u32 version
//   repeated records:  u32 payload_len | payload | u32 crc32(payload)
//
// The load rule is the same for every file:
//  * records after the first frame that is truncated or fails its CRC
//    are untrusted: the scan stops there and reports the tail as torn
//    (a kill mid-append leaves exactly this);
//  * a file that is a proper prefix of its header is a torn first
//    write and loads empty;
//  * a foreign magic is refused with IOError and another version with
//    InvalidArgument naming it "older" or "newer". A refused file is
//    never rewritten.
//
// Appends are batched: one buffered write and one sync per batch.
// Rewrites are atomic: tmp + durable write + rename + directory sync.
// All IO flows through the injectable FileIo seam.

#ifndef BAYESCROWD_COMMON_JOURNAL_H_
#define BAYESCROWD_COMMON_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fileio.h"
#include "common/result.h"
#include "common/status.h"

namespace bayescrowd {

/// Identifies one kind of journal file.
struct JournalFormat {
  const char* magic;       // Exactly 4 bytes.
  std::uint32_t version;   // The only version this build reads.
  const char* what;        // Names the file kind in error messages.
};

/// The 8-byte file header: magic + version.
std::string JournalHeader(const JournalFormat& format);

/// Appends one framed payload (len | payload | crc) to `*out`. A
/// payload too long for the u32 length field is refused, never
/// truncated.
Status EncodeJournalRecord(std::string_view payload, std::string* out);

/// The trusted records of a journal, in append order.
struct JournalLoad {
  std::vector<std::string> records;
  /// True when the scan stopped at a truncated or CRC-failed frame (or
  /// a torn header), so bytes past the last record are untrusted.
  bool torn = false;
};

/// Applies the load rule to `bytes`.
Result<JournalLoad> ParseJournal(std::string_view bytes,
                                 const JournalFormat& format);

/// Reads and parses `path`; a missing file loads empty. Refusals carry
/// the path.
Result<JournalLoad> LoadJournal(FileIo* io, const std::string& path,
                                const JournalFormat& format);

/// Atomically replaces `path` with `bytes`: creates the parent
/// directory, writes `path`.tmp durably, calls `before_rename` (a test
/// hook; non-OK aborts), renames and syncs the directory. On failure the
/// old file is untouched and the tmp file is removed where possible.
Status WriteFileAtomic(
    FileIo* io, const std::string& path, std::string_view bytes,
    const std::function<Status(const std::string& tmp_path)>& before_rename =
        nullptr);

/// Append-side handle on one journal file. Opens lazily, writing the
/// header when the file is empty. After a failed append, or over a file
/// cut inside its header, the next Append first rewrites the trusted
/// records atomically, so later records never follow torn bytes.
class JournalWriter {
 public:
  /// `io` null = RealFileIo().
  JournalWriter(FileIo* io, std::string path, const JournalFormat& format);

  /// Appends the payloads as one buffered write + one sync.
  Status Append(const std::vector<std::string>& payloads);

  /// Atomically replaces the file with the header and exactly
  /// `payloads` (WriteFileAtomic). The append handle reopens on the
  /// next Append.
  Status Rewrite(const std::vector<std::string>& payloads);

  const std::string& path() const { return path_; }

 private:
  Status EnsureOpen();

  FileIo* io_;
  std::string path_;
  JournalFormat format_;
  std::unique_ptr<AppendFile> file_;
  bool repair_ = false;  // The file may end in torn bytes.
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_COMMON_JOURNAL_H_

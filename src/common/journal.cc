#include "common/journal.h"

#include <filesystem>
#include <limits>
#include <utility>

#include "common/binio.h"
#include "common/crc32.h"
#include "common/string_util.h"

namespace bayescrowd {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // Magic + u32 version.
constexpr std::size_t kFrameBytes = 8;   // u32 length + u32 CRC.

std::string ParentDir(const std::string& path) {
  return std::filesystem::path(path).parent_path().string();
}

}  // namespace

std::string JournalHeader(const JournalFormat& format) {
  std::string header(format.magic, 4);
  BinWriter(&header).WriteU32(format.version);
  return header;
}

Status EncodeJournalRecord(std::string_view payload, std::string* out) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(StrFormat(
        "journal record of %zu bytes exceeds its u32 length field",
        payload.size()));
  }
  out->reserve(out->size() + payload.size() + kFrameBytes);
  BinWriter writer(out);
  writer.WriteU32(static_cast<std::uint32_t>(payload.size()));
  out->append(payload);
  writer.WriteU32(Crc32(payload));
  return Status::OK();
}

Result<JournalLoad> ParseJournal(std::string_view bytes,
                                 const JournalFormat& format) {
  JournalLoad load;
  const std::string header = JournalHeader(format);
  if (bytes.size() < kHeaderBytes &&
      std::string_view(header).substr(0, bytes.size()) == bytes) {
    load.torn = !bytes.empty();  // A kill during the first write.
    return load;
  }
  if (bytes.size() < 4 || bytes.substr(0, 4) != header.substr(0, 4)) {
    return Status::IOError(StrFormat(
        "foreign file, not the %s format (bad magic)", format.what));
  }
  if (bytes.size() < kHeaderBytes) {
    return Status::IOError(StrFormat("%s header truncated", format.what));
  }
  std::uint32_t version = 0;
  (void)BinReader(bytes.substr(4)).ReadU32(&version);
  if (version != format.version) {
    return Status::InvalidArgument(StrFormat(
        "%s version %u is %s than this build supports (%u)", format.what,
        static_cast<unsigned>(version),
        version > format.version ? "newer" : "older",
        static_cast<unsigned>(format.version)));
  }
  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    BinReader frame(bytes.substr(pos));
    std::uint32_t len = 0;
    std::uint32_t stored_crc = 0;
    if (!frame.ReadU32(&len).ok() ||
        frame.remaining() < static_cast<std::size_t>(len) + 4) {
      load.torn = true;  // Truncated frame: a kill mid-append.
      break;
    }
    const std::string_view payload = bytes.substr(pos + 4, len);
    (void)BinReader(bytes.substr(pos + 4 + len)).ReadU32(&stored_crc);
    if (Crc32(payload) != stored_crc) {
      load.torn = true;
      break;
    }
    load.records.emplace_back(payload);
    pos += kFrameBytes + len;
  }
  return load;
}

Result<JournalLoad> LoadJournal(FileIo* io, const std::string& path,
                                const JournalFormat& format) {
  if (io == nullptr) io = RealFileIo();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return JournalLoad{};
  BAYESCROWD_ASSIGN_OR_RETURN(const std::string bytes, io->ReadFile(path));
  Result<JournalLoad> load = ParseJournal(bytes, format);
  if (!load.ok()) {
    return Status(load.status().code(),
                  path + ": " + load.status().message());
  }
  return load;
}

Status WriteFileAtomic(
    FileIo* io, const std::string& path, std::string_view bytes,
    const std::function<Status(const std::string& tmp_path)>& before_rename) {
  const std::string dir = ParentDir(path);
  if (!dir.empty()) BAYESCROWD_RETURN_NOT_OK(io->CreateDirs(dir));
  const std::string tmp = path + ".tmp";
  Status status = io->WriteFileDurable(tmp, bytes);
  if (status.ok() && before_rename) status = before_rename(tmp);
  if (status.ok()) status = io->Rename(tmp, path);
  if (!status.ok()) {
    // A short write may have left a torn tmp file; the old file is
    // still the one under `path`.
    (void)io->RemoveFile(tmp);
    return status;
  }
  return dir.empty() ? Status::OK() : io->SyncDir(dir);
}

JournalWriter::JournalWriter(FileIo* io, std::string path,
                             const JournalFormat& format)
    : io_(io != nullptr ? io : RealFileIo()),
      path_(std::move(path)),
      format_(format) {}

Status JournalWriter::EnsureOpen() {
  if (file_ != nullptr) return Status::OK();
  const std::string dir = ParentDir(path_);
  if (!dir.empty()) BAYESCROWD_RETURN_NOT_OK(io_->CreateDirs(dir));
  if (repair_) {
    // A failed append may have left a partial header or frame; records
    // appended after torn bytes would never load. Put the trusted
    // records back atomically first (a foreign file is refused as is).
    BAYESCROWD_ASSIGN_OR_RETURN(const JournalLoad load,
                                LoadJournal(io_, path_, format_));
    if (load.torn) BAYESCROWD_RETURN_NOT_OK(Rewrite(load.records));
    repair_ = false;
  }
  BAYESCROWD_ASSIGN_OR_RETURN(file_, io_->OpenAppend(path_, false));
  BAYESCROWD_ASSIGN_OR_RETURN(const std::uint64_t size, file_->Size());
  if (size == 0) return file_->Append(JournalHeader(format_));
  if (size < kHeaderBytes) {
    // Cut inside its header: a kill during the first write.
    file_.reset();
    repair_ = true;
    return EnsureOpen();
  }
  return Status::OK();
}

Status JournalWriter::Append(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return Status::OK();
  std::string batch;
  for (const std::string& payload : payloads) {
    BAYESCROWD_RETURN_NOT_OK(EncodeJournalRecord(payload, &batch));
  }
  Status status = EnsureOpen();
  if (status.ok()) status = file_->Append(batch);
  if (status.ok()) status = file_->Sync();
  if (!status.ok()) {
    // The handle is kept only while everything on disk is whole.
    file_.reset();
    repair_ = true;
  }
  return status;
}

Status JournalWriter::Rewrite(const std::vector<std::string>& payloads) {
  file_.reset();  // The handle would hold the replaced inode open.
  std::string bytes = JournalHeader(format_);
  for (const std::string& payload : payloads) {
    BAYESCROWD_RETURN_NOT_OK(EncodeJournalRecord(payload, &bytes));
  }
  return WriteFileAtomic(io_, path_, bytes);
}

}  // namespace bayescrowd

// Benchmark-side instrumentation: a span recorder and decorators around
// the public interfaces the library already accepts (PosteriorProvider,
// CrowdPlatform, FileIo). Nothing here reaches into the library; every
// number is taken at a call boundary the benchmark itself crosses.
//
// Untraced runs keep only what the end-to-end metrics need: PostBatch
// call/return timestamps and the FileIo byte counters. Traced runs also
// record a span per call and per-layer busy time.
//
// All calls arrive on the benchmark's single client thread (the library
// calls posteriors and the platform from the thread that drives
// Init/Step, and the serve manager does its file IO on the caller's
// thread). A decorator invoked from any other thread still counts, but
// records no span, so the span stack never mixes threads.

#ifndef BAYESCROWD_PERFBENCH_PROBES_H_
#define BAYESCROWD_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/fileio.h"
#include "crowd/platform.h"

namespace perfbench {

using namespace bayescrowd;  // NOLINT: benchmark-local convenience.

/// Seconds on the monotonic clock since the first call.
inline double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;  // Seconds (Now()).
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root.
  std::int64_t query = 0;   // Shared by every span of one query.
};

/// In-memory span recorder. Disabled, Begin/End cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  bool OnOwnerThread() const {
    return std::this_thread::get_id() == owner_;
  }

  /// Spans opened from now on carry `query` as their query id.
  void SetQuery(std::int64_t query) { query_ = query; }

  /// Opens a span under the innermost open span; returns its index + 1
  /// (0 when disabled or off the owner thread).
  std::int64_t Begin(const char* name) {
    if (!enabled_ || !OnOwnerThread()) return 0;
    const std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back(Span{name, Now(), 0.0, id,
                          stack_.empty() ? 0 : stack_.back(), query_});
    stack_.push_back(id);
    return id;
  }

  void End(std::int64_t id) {
    if (id == 0) return;
    spans_[static_cast<std::size_t>(id - 1)].end = Now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%lld,\"parent\":%lld,\"query\":%lld}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.query));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::thread::id owner_ = std::this_thread::get_id();
  std::int64_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Work and busy time seen at the decorated interfaces. Busy times are
/// only taken when tracing; counts always.
struct LayerTally {
  std::uint64_t posterior_calls = 0;
  double posterior_s = 0.0;
  std::uint64_t post_batches = 0;
  std::uint64_t post_tasks = 0;
  double post_s = 0.0;
  std::uint64_t bytes_written = 0;
  std::uint64_t durable_writes = 0;
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  double write_s = 0.0;
};

/// Times a busy interval into `*seconds` and a span, when tracing.
class Busy {
 public:
  Busy(Tracer& tracer, const char* name, double* seconds)
      : span_(tracer, name),
        seconds_(tracer.enabled() ? seconds : nullptr),
        start_(seconds_ != nullptr ? Now() : 0.0) {}
  ~Busy() {
    if (seconds_ != nullptr) *seconds_ += Now() - start_;
  }
  Busy(const Busy&) = delete;
  Busy& operator=(const Busy&) = delete;

 private:
  ScopedSpan span_;
  double* seconds_;
  double start_;
};

class TimedPosteriors : public PosteriorProvider {
 public:
  TimedPosteriors(std::unique_ptr<PosteriorProvider> base, Tracer& tracer,
                  LayerTally& tally)
      : base_(std::move(base)), tracer_(tracer), tally_(tally) {}

  Result<std::vector<double>> Posterior(const CellRef& cell) override {
    ++tally_.posterior_calls;
    Busy busy(tracer_, "bayesnet.posterior", &tally_.posterior_s);
    return base_->Posterior(cell);
  }

 private:
  std::unique_ptr<PosteriorProvider> base_;
  Tracer& tracer_;
  LayerTally& tally_;
};

/// Forwards to a platform, keeping every PostBatch's call and return
/// time (the crowd-facing latency metrics are built from these).
class TimedPlatform : public CrowdPlatform {
 public:
  TimedPlatform(CrowdPlatform& base, Tracer& tracer, LayerTally& tally)
      : base_(base), tracer_(tracer), tally_(tally) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    ++tally_.post_batches;
    tally_.post_tasks += tasks.size();
    const double called = Now();
    Result<std::vector<TaskAnswer>> answers = [&] {
      Busy busy(tracer_, "crowd.post", &tally_.post_s);
      return base_.PostBatch(tasks);
    }();
    posts_.emplace_back(called, Now());
    return answers;
  }

  std::size_t total_tasks() const override { return base_.total_tasks(); }
  std::size_t total_rounds() const override { return base_.total_rounds(); }
  void SaveState(std::string* out) const override { base_.SaveState(out); }
  Status LoadState(BinReader* reader) override {
    return base_.LoadState(reader);
  }
  void SyncReplayed(const std::vector<Task>& tasks, bool delivered) override {
    base_.SyncReplayed(tasks, delivered);
  }

  /// (call, return) times of every PostBatch, in order.
  const std::vector<std::pair<double, double>>& posts() const {
    return posts_;
  }

 private:
  CrowdPlatform& base_;
  Tracer& tracer_;
  LayerTally& tally_;
  std::vector<std::pair<double, double>> posts_;
};

class CountingAppendFile : public AppendFile {
 public:
  CountingAppendFile(std::unique_ptr<AppendFile> base, Tracer& tracer,
                     LayerTally& tally)
      : base_(std::move(base)), tracer_(tracer), tally_(tally) {}

  Status Append(std::string_view bytes) override {
    ++tally_.appends;
    tally_.bytes_written += bytes.size();
    Busy busy(tracer_, "fileio.append", &tally_.write_s);
    return base_->Append(bytes);
  }
  Status Sync() override {
    ++tally_.syncs;
    Busy busy(tracer_, "fileio.sync", &tally_.write_s);
    return base_->Sync();
  }
  Result<std::uint64_t> Size() override { return base_->Size(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<AppendFile> base_;
  Tracer& tracer_;
  LayerTally& tally_;
};

/// Counts every durable byte the serving stack writes through the IO
/// seam, forwarding to the real filesystem.
class CountingFileIo : public FileIo {
 public:
  CountingFileIo(Tracer& tracer, LayerTally& tally)
      : base_(RealFileIo()), tracer_(tracer), tally_(tally) {}

  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Status WriteFileDurable(const std::string& path,
                          std::string_view bytes) override {
    ++tally_.durable_writes;
    tally_.bytes_written += bytes.size();
    Busy busy(tracer_, "fileio.write", &tally_.write_s);
    return base_->WriteFileDurable(path, bytes);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    ++tally_.syncs;
    Busy busy(tracer_, "fileio.sync", &tally_.write_s);
    return base_->SyncDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool truncate) override {
    Result<std::unique_ptr<AppendFile>> file =
        base_->OpenAppend(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<AppendFile>(std::make_unique<CountingAppendFile>(
        std::move(file).value(), tracer_, tally_));
  }

 private:
  FileIo* base_;
  Tracer& tracer_;
  LayerTally& tally_;
};

}  // namespace perfbench

#endif  // BAYESCROWD_PERFBENCH_PROBES_H_

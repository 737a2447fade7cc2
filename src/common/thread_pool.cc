#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

#include "common/string_util.h"

namespace bayescrowd {

std::size_t ThreadPool::ResolveThreads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : lane_accum_(ResolveThreads(threads)) {
  const std::size_t lanes = lane_accum_.size();
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

namespace {

/// Converts the in-flight exception (call inside a catch block) to a
/// Status. Shared by the pool-global Submit path and ParallelFor's
/// per-call error slot.
Status CurrentExceptionToStatus() {
  try {
    throw;
  } catch (const std::exception& e) {
    return Status::Internal(StrFormat("pool task threw: %s", e.what()));
  } catch (...) {
    return Status::Internal("pool task threw a non-exception object");
  }
}

}  // namespace

void ThreadPool::RecordException() {
  Status error = CurrentExceptionToStatus();
  std::unique_lock<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = std::move(error);
}

Status ThreadPool::TakeError() {
  std::unique_lock<std::mutex> lock(error_mu_);
  Status out = std::move(first_error_);
  first_error_ = Status::OK();
  return out;
}

bool ThreadPool::RunOne(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  lock.unlock();
  // The lane boundary: an escaping exception would unwind into the
  // worker's start function and terminate the process, so convert it
  // to the pool's first-error Status instead.
  try {
    task();
  } catch (...) {
    RecordException();
  }
  lock.lock();
  --in_flight_;
  if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
  return true;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (RunOne(lock)) continue;
    if (stopping_) return;
    task_ready_.wait(
        lock, [this] { return stopping_ || !queue_.empty(); });
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (RunOne(lock)) continue;
    if (in_flight_ == 0) return;
    all_done_.wait(
        lock, [this] { return !queue_.empty() || in_flight_ == 0; });
  }
}

Status ThreadPool::ParallelFor(
    std::size_t count,
    const std::function<void(std::size_t lane, std::size_t index)>& fn) {
  if (count == 0) return Status::OK();
  const std::size_t lanes = std::min(size(), count);
  // One shared cursor; every lane pulls the next unclaimed index. The
  // body outlives every Submit because Wait() below is a barrier. Each
  // lane accounts its item count and body wall-clock once per call. A
  // throwing body poisons the loop: the exception becomes the returned
  // Status and the remaining unclaimed indices are skipped. Index 0 is
  // claimed for the caller before any worker is woken, so lane 0 always
  // runs an item even when the workers could drain the rest first.
  std::atomic<std::size_t> next{1};
  std::atomic<bool> poisoned{false};
  // The error slot is local to this call, not the pool: a co-resident
  // caller's failure (a different serve session sharing the pool) must
  // never surface here, and this call's failure must never latch the
  // pool for later callers. The pool-global first_error_ slot remains
  // for raw Submit()/Wait() users only.
  std::mutex call_error_mu;
  Status call_error = Status::OK();
  const auto record_call_error = [&call_error_mu, &call_error]() {
    Status error = CurrentExceptionToStatus();
    std::unique_lock<std::mutex> lock(call_error_mu);
    if (call_error.ok()) call_error = std::move(error);
  };
  const auto body = [this, &next, &poisoned, &record_call_error, count,
                     &fn](std::size_t lane, std::size_t first) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    for (std::size_t i = first;
         i < count && !poisoned.load(std::memory_order_relaxed);
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(lane, i);
      } catch (...) {
        record_call_error();
        poisoned.store(true, std::memory_order_relaxed);
      }
      ++executed;
    }
    const auto busy = std::chrono::steady_clock::now() - start;
    lane_accum_[lane].tasks.fetch_add(executed, std::memory_order_relaxed);
    lane_accum_[lane].busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                .count()),
        std::memory_order_relaxed);
  };
  if (lanes <= 1) {
    body(0, 0);
    return call_error;
  }
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    // body() catches everything itself, so these wrappers never throw
    // and never touch the pool-global error slot.
    Submit([&body, &next, lane] {
      body(lane, next.fetch_add(1, std::memory_order_relaxed));
    });
  }
  body(0, 0);
  Wait();
  return call_error;
}

std::vector<ThreadPool::LaneStats> ThreadPool::lane_stats() const {
  std::vector<LaneStats> out(lane_accum_.size());
  for (std::size_t lane = 0; lane < lane_accum_.size(); ++lane) {
    out[lane].tasks =
        lane_accum_[lane].tasks.load(std::memory_order_relaxed);
    out[lane].busy_seconds =
        static_cast<double>(
            lane_accum_[lane].busy_ns.load(std::memory_order_relaxed)) /
        1e9;
  }
  return out;
}

}  // namespace bayescrowd

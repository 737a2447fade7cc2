// ThreadPool: a fixed-size worker pool with a submit/wait and a
// parallel-for API, shared by the batch probability evaluator and the
// benchmark harness.
//
// Design constraints (see DESIGN.md, "Concurrency model"):
//  * The calling thread participates as lane 0, so a pool of size 1
//    never spawns a thread and ParallelFor degenerates to a plain loop —
//    the single-threaded path stays bit-identical to the pre-pool code.
//  * Work items receive (lane, index). Writing results into
//    per-index slots (and accumulating statistics per lane, merged after
//    the barrier) keeps outputs deterministic for any pool size: the
//    schedule may vary, the values may not.
//  * Expected error handling flows through Status/Result values stored
//    into per-index slots. A task that *throws* anyway is caught at the
//    lane boundary — never allowed to unwind into a worker thread's
//    start function, which would terminate the process. ParallelFor
//    surfaces the first exception of *that call* as its returned Status
//    (the error slot is per-call, so a failing caller can never latch
//    the shared pool for co-resident callers); raw Submit/Wait users
//    poll the pool-global TakeError().

#ifndef BAYESCROWD_COMMON_THREAD_POOL_H_
#define BAYESCROWD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace bayescrowd {

class ThreadPool {
 public:
  /// `threads` is the total number of execution lanes including the
  /// caller; 0 resolves to the hardware concurrency. A pool of size 1
  /// spawns no threads at all.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (worker threads + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Resolves a thread-count knob the way the pool constructor does.
  static std::size_t ResolveThreads(std::size_t threads);

  /// Enqueues one task for the worker threads. Pair with Wait().
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished; the calling thread
  /// helps drain the queue while waiting.
  void Wait();

  /// Runs fn(lane, index) for every index in [0, count), spreading
  /// indices over the lanes via a shared atomic counter, and returns
  /// after all indices completed. lane is in [0, size()); the caller
  /// executes as lane 0 and index 0 is always claimed for it, so lane 0
  /// takes part in every call however fast the workers drain the rest.
  /// If any invocation throws, the first exception *of this call* is
  /// converted to an Internal Status (remaining unclaimed indices are
  /// skipped); OK otherwise. Errors never cross calls: concurrent or
  /// later ParallelFor callers on the same pool are unaffected, and
  /// exceptions recorded by raw Submit() tasks are never returned here.
  Status ParallelFor(std::size_t count,
                     const std::function<void(std::size_t lane,
                                              std::size_t index)>& fn);

  /// Returns and clears the first error recorded since the last call:
  /// an exception thrown by a raw Submit()ed task (caught at the lane
  /// boundary instead of terminating the process). OK when none.
  /// ParallelFor does not feed this slot — its errors are per-call.
  Status TakeError();

  /// Cumulative per-lane utilization across every ParallelFor on this
  /// pool: work items executed and wall-clock spent inside the loop
  /// body, attributed to the *logical* lane (the caller is lane 0).
  /// Cheap to record — one clock pair and two relaxed atomic adds per
  /// lane per ParallelFor call, nothing per index.
  struct LaneStats {
    std::uint64_t tasks = 0;       // Work items executed by the lane.
    double busy_seconds = 0.0;     // Time inside ParallelFor bodies.
  };
  std::vector<LaneStats> lane_stats() const;

 private:
  void WorkerLoop();
  /// Pops and runs one task if available. `lock` must hold mu_; it is
  /// released while the task runs and re-acquired after. Returns false
  /// when the queue was empty.
  bool RunOne(std::unique_lock<std::mutex>& lock);
  /// Records the currently in-flight exception as the pool's first
  /// error (later ones are dropped).
  void RecordException();

  struct LaneAccum {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  std::vector<std::thread> workers_;
  std::vector<LaneAccum> lane_accum_;  // size() entries, fixed at ctor.
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  // Popped but not yet finished.
  bool stopping_ = false;

  std::mutex error_mu_;
  Status first_error_ = Status::OK();  // Guarded by error_mu_.
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_COMMON_THREAD_POOL_H_

// Shared worker-thread pool for the simulation subsystem.
//
// Monte-Carlo cells, experiment grids, and sweeps all decompose into
// independent chunks of runs.  Before this pool existed every
// `run_cell` call spawned and joined its own std::thread set; now one
// process-wide set of persistent workers drains a single task queue,
// so a whole table sweep is one flat queue instead of N sequential
// cells each paying thread start-up.
//
// Concurrency model ("work-stealing-lite"):
//  * ThreadPool owns the workers and a FIFO queue of tasks, each
//    tagged with the TaskGroup that submitted it.
//  * TaskGroup tracks completion of its own tasks.  `wait()` does not
//    just block: the waiting thread first *helps*, executing queued
//    tasks of its own group.  This keeps nested use safe — a task
//    running on a worker may itself create a group, submit, and wait
//    without deadlocking, even on a single-worker pool.
//  * The first exception thrown by a group's task is captured and
//    rethrown from `wait()`; remaining tasks still run to completion.
//
// Determinism: the pool never reorders results — callers index output
// slots by task, so the merge order (and therefore floating-point
// rounding) is independent of which worker ran what.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adacheck::util {

class TaskGroup;

class ThreadPool {
 public:
  /// Starts `threads` persistent workers; 0 means default_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency clamped to >= 1.
  static int default_concurrency() noexcept;

  /// Process-wide pool shared by run_cell / run_cells_ex / run_sweep.
  /// Its first use fixes the worker count: a set_shared_size() request
  /// if one was made, else the ADACHECK_THREADS environment variable,
  /// else default_concurrency().  Statistics never depend on the
  /// choice — chunking and merge order are thread-count independent —
  /// so resizing only trades wall-clock for cores.
  static ThreadPool& shared();

  /// Requests the shared() pool's worker count before its first use
  /// (the --threads plumbing of examples and the adacheck
  /// driver).  threads <= 0 means "keep the default" and is always
  /// accepted.  Once shared() exists its size is fixed: re-requesting
  /// the current size is a no-op, any other size throws
  /// std::logic_error.
  static void set_shared_size(int threads);

  /// Parses a thread-count override ("6" -> 6).  Returns 0 — meaning
  /// "use the default" — for null, empty, non-numeric, or
  /// non-positive text.  Used for ADACHECK_THREADS; exposed for tests.
  static int parse_thread_override(const char* text) noexcept;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    /// obs::now_micros() at enqueue when telemetry is enabled, else 0;
    /// execute() derives pool.task_wait_us from it.
    std::uint64_t enqueued_us = 0;
  };

  void enqueue(Task task);
  /// Pops and executes one queued task belonging to `group` (any task
  /// when null).  Returns false when no matching task was queued.
  bool try_run_one(const TaskGroup* group);
  static void execute(Task task) noexcept;
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Completion tracker for one batch of tasks.  Not reusable across
/// pools; a group may be reused for further batches after wait().
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) noexcept : pool_(pool) {}
  /// Blocks until all submitted tasks finished (exceptions swallowed —
  /// call wait() explicitly to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one task to the pool under this group.
  void run(std::function<void()> fn);

  /// Helps execute this group's queued tasks, then blocks until every
  /// submitted task completed.  Rethrows the first captured exception.
  void wait();

 private:
  friend class ThreadPool;
  void finish(std::exception_ptr error) noexcept;
  void wait_pending() noexcept;

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
};

/// Runs body(lo, hi) over [begin, end) in blocks of `grain`, claimed
/// dynamically by an atomic cursor so fast workers take more blocks.
/// Blocks may execute concurrently and in any order; `body` must be
/// thread-safe.  Rethrows the first exception a block throws.
/// `max_parallelism` caps concurrency (0 = pool width + the helping
/// caller).  Returns the parallelism actually applied: the number of
/// claimant tasks, min(blocks, cap, pool width + 1).
int parallel_for(ThreadPool& pool, int begin, int end, int grain,
                 const std::function<void(int, int)>& body,
                 int max_parallelism = 0);

}  // namespace adacheck::util

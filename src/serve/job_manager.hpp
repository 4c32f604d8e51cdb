// The jobs/queueing layer behind `adacheck serve`.
//
// A JobManager turns validated scenario documents into *jobs*: each
// submission enters a bounded queue (backpressure — a full queue
// rejects the submit instead of buffering without limit), worker
// threads pick the highest-priority oldest queued job (FIFO within a
// priority level), and every job executes as one scenario sweep on the
// process-wide shared ThreadPool with an optional per-job parallelism
// budget (JobRequest::threads caps the job's chunk concurrency without
// affecting its results).
//
// Lifecycle: kQueued -> kRunning -> one of kDone / kFailed /
// kCancelled.  A job submitted with an invalid document never runs —
// record_invalid() registers it directly as kFailed so "job <id>"
// stays a valid handle for debugging multi-job sessions.
//
// Results are the point: a job's JSONL stream is produced by the exact
// harness::JsonlCellStream + harness::run_sweep pipeline, over one
// bind of the document, that `adacheck run --jsonl` uses, so the
// accumulated bytes are byte-identical to a batch run of the same
// document at any thread count (pinned by serve_test).  The stream is
// observable live: stream_wait() blocks until the job has bytes past
// an offset or reaches a terminal state, which is what the `stream`
// protocol request loops on.
//
// Cancellation is cooperative and prompt: cancel() flips the job's
// sim::CancellationToken, workers drain the sweep's remaining chunks
// without simulating, and the job lands in kCancelled with its JSONL a
// clean prefix (cells 0..k in index order) of the full stream.  No
// cell completion is ever reported after the cancel took effect.
//
// History is bounded: the manager retains every queued and running job
// plus the kMaxFinishedJobs most recently finished ones; older terminal
// jobs are evicted and their ids become unknown.  Jobs are shared-owned,
// so a worker executing a job or a streamer holding a JobHandle keeps
// reading it safely after its eviction.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/spec.hpp"
#include "sim/observer.hpp"

namespace adacheck::serve {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Terminal jobs a JobManager retains; when one more job finishes, the
/// job that finished earliest is evicted (its id then answers "unknown
/// job").  Queued and running jobs are never evicted, so the manager
/// holds at most kMaxFinishedJobs + max_queued + workers jobs however
/// long the daemon runs.
inline constexpr std::size_t kMaxFinishedJobs = 256;

/// "queued" | "running" | "done" | "failed" | "cancelled".
const char* to_string(JobState state);

/// True for kDone / kFailed / kCancelled — the states a job can never
/// leave.
bool is_terminal(JobState state) noexcept;

/// Thrown by submit() when the bounded queue is at capacity; the
/// protocol layer translates it into a "queue_full" error response so
/// clients can back off and retry.
class QueueFull : public std::runtime_error {
 public:
  explicit QueueFull(std::size_t limit)
      : std::runtime_error("submission queue full (" +
                           std::to_string(limit) +
                           " jobs queued); retry later"),
        limit_(limit) {}
  std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t limit_;
};

/// One validated submission.
struct JobRequest {
  scenario::ScenarioSpec scenario;
  /// Higher values run earlier; equal priorities run in submit order.
  int priority = 0;
  /// Per-job parallelism cap (overrides the scenario's config.threads
  /// when > 0).  Purely a scheduling budget — results are identical
  /// for every value.
  int threads = 0;
  /// Where the document came from, for error messages and `list`
  /// ("inline", a file path, a client label).
  std::string source;
};

/// Point-in-time snapshot of one job, safe to read without holding any
/// manager lock.
struct JobInfo {
  std::uint64_t id = 0;
  std::string name;    ///< scenario name ("" for invalid submissions)
  std::string source;
  JobState state = JobState::kQueued;
  int priority = 0;
  std::size_t cells_total = 0;  ///< flat (row, scheme) cells of the sweep
  std::size_t cells_done = 0;
  long long runs_done = 0;      ///< executed runs so far (live)
  long long runs_executed = 0;  ///< final total (terminal jobs)
  std::size_t jsonl_bytes = 0;  ///< accumulated stream size
  std::string error;            ///< what() for failed jobs
  double wall_seconds = 0.0;    ///< running/terminal: time since start
};

struct JobManagerOptions {
  /// Queued-job bound; submits past it throw QueueFull.
  std::size_t max_queued = 64;
  /// Concurrent job executions (each internally parallel on the
  /// shared pool).  Clamped to >= 1.
  int workers = 2;
  /// Test seam, called on the worker right before a job's sweep
  /// starts; a throw fails the job.
  std::function<void(std::uint64_t)> before_job;
};

class JobManager {
  struct Job;

 public:
  using Options = JobManagerOptions;
  /// A counted reference to one job.  It keeps the job — and its JSONL
  /// stream — alive after eviction, so a streamer that resolved an id
  /// once can always read to the end of the stream.
  using JobHandle = std::shared_ptr<const Job>;

  explicit JobManager(Options options = {});
  /// Cancels everything still pending and joins the workers.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates the request by binding its document and checking every
  /// bound spec (throws std::invalid_argument on an invalid in-memory
  /// spec, such as an unknown name on an environment axis), then
  /// enqueues it with the bound specs, which its worker runs as they
  /// are (the document is bound once per job).
  /// Throws QueueFull when the queue is at the bound.  Returns the job
  /// id (ids are assigned in submit order, starting at 1).
  std::uint64_t submit(JobRequest request);

  /// Registers a job that failed validation before it could be
  /// enqueued, so the error stays addressable as "job <id>".  Never
  /// throws QueueFull — failed records are terminal and occupy no
  /// queue slot.
  std::uint64_t record_invalid(std::string source, std::string error);

  /// Snapshot of one job; nullopt for unknown (or evicted) ids.
  std::optional<JobInfo> status(std::uint64_t id) const;

  /// Snapshots of every retained job, in id (= submission) order.
  std::vector<JobInfo> list() const;

  /// Requests cancellation: a queued job is marked kCancelled on the
  /// spot, a running job's CancellationToken is flipped (the job lands
  /// in kCancelled when its workers drain).  Returns the job's state
  /// right after the request, or nullopt for unknown ids; terminal jobs
  /// are left untouched.
  std::optional<JobState> cancel(std::uint64_t id);

  /// The job behind `id`, or null for unknown (or evicted) ids.
  JobHandle find(std::uint64_t id) const;

  /// One live slice of a job's JSONL stream: bytes past `offset`
  /// (empty when the job is already terminal and fully read).
  struct StreamChunk {
    std::string bytes;
    JobState state = JobState::kQueued;
    /// True when no further bytes can ever appear: the job is terminal
    /// AND `offset + bytes.size()` reached the end of its stream.
    bool terminal = false;
  };

  /// Blocks until the job (a non-null handle from find()) has stream
  /// bytes past `offset`, reaches a terminal state, or the manager
  /// shuts down; then returns the available slice.  Works whether or
  /// not the job is still retained.
  StreamChunk stream_wait(const JobHandle& job, std::size_t offset) const;

  /// Cancels every queued and running job, wakes all waiters, and
  /// joins the workers.  Idempotent.
  void shutdown();

  /// Jobs currently waiting in the queue (diagnostics / tests).
  std::size_t queued() const;

 private:
  class SweepAdapter;
  /// Queue order: highest priority first (the key holds -priority),
  /// FIFO by id within a level.
  using QueueKey = std::pair<long long, std::uint64_t>;

  static QueueKey queue_key(const Job& job);
  void worker_loop();
  JobInfo info_locked(const Job& job) const;
  /// Parks a job in a terminal state: counts it, retires it into the
  /// finished history (evicting the earliest-finished job past
  /// kMaxFinishedJobs), and wakes stream waiters.
  void finish_locked(Job& job, JobState state);
  void execute(Job& job);
  /// Appends freshly emitted stream bytes / progress to the job and
  /// wakes stream waiters.  Called from observer callbacks (already
  /// serialized per sweep by the runner).
  void publish(Job& job, std::string bytes, bool cell_done);
  void progress(Job& job, const sim::SweepProgress& progress);

  Options options_;
  mutable std::mutex mu_;
  mutable std::condition_variable queue_cv_;   ///< workers wait here
  mutable std::condition_variable stream_cv_;  ///< stream_wait blocks here
  /// Every retained job: all queued and running ones plus the finished
  /// ones still listed in finished_.
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::map<QueueKey, std::shared_ptr<Job>> queue_;  ///< the queued jobs
  std::deque<std::uint64_t> finished_;  ///< retained terminal ids, oldest first
  std::uint64_t next_id_ = 1;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace adacheck::serve

#include "serve/job_manager.hpp"

#include <sstream>
#include <utility>

#include "harness/stream_report.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/binder.hpp"

namespace adacheck::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Telemetry handles (gated on Registry::enabled(); see obs/registry.hpp).
struct ServeMetrics {
  obs::Counter& jobs_submitted;
  obs::Counter& jobs_done;
  obs::Counter& jobs_failed;
  obs::Counter& jobs_cancelled;
  obs::Counter& rejected_queue_full;
  obs::Gauge& queue_depth;

  static ServeMetrics& get() {
    static ServeMetrics* const metrics = new ServeMetrics{
        obs::Registry::instance().counter("serve.jobs_submitted"),
        obs::Registry::instance().counter("serve.jobs_done"),
        obs::Registry::instance().counter("serve.jobs_failed"),
        obs::Registry::instance().counter("serve.jobs_cancelled"),
        obs::Registry::instance().counter("serve.rejected_queue_full"),
        obs::Registry::instance().gauge("serve.queue_depth")};
    return *metrics;
  }
};

/// Terminal-state accounting shared by every path that parks a job in
/// done/failed/cancelled (worker finish, queued cancel, shutdown,
/// invalid submission).
void count_terminal(JobState state) {
  if (!obs::Registry::instance().enabled()) return;
  auto& metrics = ServeMetrics::get();
  switch (state) {
    case JobState::kDone: metrics.jobs_done.add(1); break;
    case JobState::kFailed: metrics.jobs_failed.add(1); break;
    case JobState::kCancelled: metrics.jobs_cancelled.add(1); break;
    default: break;
  }
}

void set_queue_depth(std::size_t depth) {
  if (obs::Registry::instance().enabled()) {
    ServeMetrics::get().queue_depth.set(static_cast<long long>(depth));
  }
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

struct JobManager::Job {
  std::uint64_t id = 0;
  JobRequest request;
  /// The document as bound at submit; the worker takes and runs these.
  std::vector<harness::ExperimentSpec> specs;
  std::vector<harness::GraphExperimentSpec> graphs;
  std::vector<harness::SweepCellRef> refs;
  JobState state = JobState::kQueued;
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;
  long long runs_done = 0;
  long long runs_executed = 0;
  std::string jsonl;
  std::string error;
  sim::CancellationToken cancel;
  Clock::time_point started;
  double wall_seconds = 0.0;  ///< frozen at the terminal transition
  /// obs::now_micros() stamps for the lifecycle trace spans ("job N
  /// queued" from submit to pick, "job N run" from pick to terminal);
  /// 0 when telemetry was off at submit time.
  std::uint64_t submitted_us = 0;
  std::uint64_t run_start_us = 0;
};

/// Observer bridging one job's sweep to the manager: feeds the
/// JsonlCellStream, then moves every freshly completed line into the
/// job under the manager lock so stream_wait() sees it immediately.
/// Sweep callbacks are serialized by the runner, so the buffer needs
/// no locking of its own.
class JobManager::SweepAdapter final : public sim::ISweepObserver {
 public:
  SweepAdapter(JobManager& manager, Job& job,
               std::vector<harness::SweepCellRef> refs)
      : manager_(manager), job_(job), stream_(buffer_, std::move(refs)) {}

  void on_cell_done(std::size_t cell,
                    const sim::CellResult& result) override {
    stream_.on_cell_done(cell, result);
    std::string bytes = buffer_.str();
    buffer_.str(std::string());
    manager_.publish(job_, std::move(bytes), /*cell_done=*/true);
  }

  void on_progress(const sim::SweepProgress& progress) override {
    manager_.progress(job_, progress);
  }

 private:
  JobManager& manager_;
  Job& job_;
  std::ostringstream buffer_;
  harness::JsonlCellStream stream_;
};

JobManager::JobManager(Options options) : options_(std::move(options)) {
  if (options_.max_queued < 1) options_.max_queued = 1;
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobManager::~JobManager() { shutdown(); }

std::uint64_t JobManager::submit(JobRequest request) {
  // Bind outside the lock: binding and the cell refs validate the
  // document (they throw before a job exists); the job keeps all three
  // for its worker.
  auto specs = scenario::bind_experiments(request.scenario);
  auto graphs = scenario::bind_graphs(request.scenario);
  auto refs = harness::sweep_cell_refs(specs, graphs);

  const bool telemetry = obs::Registry::instance().enabled();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("job manager is shut down");
  if (queue_.size() >= options_.max_queued) {
    if (telemetry) ServeMetrics::get().rejected_queue_full.add(1);
    throw QueueFull(options_.max_queued);
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->request = std::move(request);
  job->specs = std::move(specs);
  job->graphs = std::move(graphs);
  job->cells_total = refs.size();
  job->refs = std::move(refs);
  if (telemetry) job->submitted_us = obs::now_micros();
  const std::uint64_t id = job->id;
  jobs_.emplace(id, job);
  queue_.emplace(queue_key(*job), std::move(job));
  if (telemetry) ServeMetrics::get().jobs_submitted.add(1);
  set_queue_depth(queue_.size());
  queue_cv_.notify_one();
  return id;
}

std::uint64_t JobManager::record_invalid(std::string source,
                                         std::string error) {
  std::unique_lock<std::mutex> lock(mu_);
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->request.source = std::move(source);
  job->error = std::move(error);
  const std::uint64_t id = job->id;
  jobs_.emplace(id, job);
  finish_locked(*job, JobState::kFailed);
  return id;
}

JobManager::QueueKey JobManager::queue_key(const Job& job) {
  return {-static_cast<long long>(job.request.priority), job.id};
}

JobManager::JobHandle JobManager::find(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobInfo JobManager::info_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.name = job.request.scenario.name;
  info.source = job.request.source;
  info.state = job.state;
  info.priority = job.request.priority;
  info.cells_total = job.cells_total;
  info.cells_done = job.cells_done;
  info.runs_done = job.runs_done;
  info.runs_executed = job.runs_executed;
  info.jsonl_bytes = job.jsonl.size();
  info.error = job.error;
  info.wall_seconds = job.state == JobState::kRunning
                          ? seconds_since(job.started)
                          : job.wall_seconds;
  return info;
}

std::optional<JobInfo> JobManager::status(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return info_locked(*it->second);
}

std::vector<JobInfo> JobManager::list() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<JobInfo> infos;
  infos.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) infos.push_back(info_locked(*job));
  return infos;
}

std::optional<JobState> JobManager::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  Job& job = *it->second;
  if (job.state == JobState::kQueued) {
    queue_.erase(queue_key(job));
    set_queue_depth(queue_.size());
    finish_locked(job, JobState::kCancelled);
  } else if (job.state == JobState::kRunning) {
    job.cancel.request_stop();
  }
  return job.state;
}

void JobManager::finish_locked(Job& job, JobState state) {
  job.state = state;
  count_terminal(state);
  finished_.push_back(job.id);
  while (finished_.size() > kMaxFinishedJobs) {
    jobs_.erase(finished_.front());  // streamers keep their own handle
    finished_.pop_front();
  }
  stream_cv_.notify_all();
}

JobManager::StreamChunk JobManager::stream_wait(const JobHandle& job,
                                                std::size_t offset) const {
  std::unique_lock<std::mutex> lock(mu_);
  stream_cv_.wait(lock, [&] {
    return stop_ || is_terminal(job->state) || job->jsonl.size() > offset;
  });
  StreamChunk chunk;
  chunk.state = job->state;
  if (offset < job->jsonl.size()) {
    chunk.bytes = job->jsonl.substr(offset);
  }
  chunk.terminal = is_terminal(job->state) &&
                   offset + chunk.bytes.size() >= job->jsonl.size();
  // A manager shutdown must not leave streamers spinning on a job that
  // will never progress again.
  if (stop_) chunk.terminal = true;
  return chunk;
}

std::size_t JobManager::queued() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

void JobManager::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      stop_ = true;
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) job->cancel.request_stop();
      }
      // Cancelling retires the queued jobs (which may evict finished
      // ones from jobs_), so this runs after the jobs_ walk.
      for (auto& [key, job] : std::exchange(queue_, {})) {
        finish_locked(*job, JobState::kCancelled);
      }
      set_queue_depth(0);
    }
    queue_cv_.notify_all();
    stream_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void JobManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Job> job = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    job->state = JobState::kRunning;
    job->started = Clock::now();
    set_queue_depth(queue_.size());
    if (obs::Registry::instance().enabled()) {
      job->run_start_us = obs::now_micros();
      if (job->submitted_us != 0) {
        // The queued phase of the job's lifecycle, now that it ended.
        obs::Tracer::instance().complete(
            "job " + std::to_string(job->id) + " queued", "serve",
            job->submitted_us, job->run_start_us - job->submitted_us);
      }
    }
    lock.unlock();
    execute(*job);  // `job` keeps it alive should it be evicted meanwhile
    lock.lock();
  }
}

void JobManager::execute(Job& job) {
  const auto finish = [&](JobState state, std::string error,
                          long long runs) {
    std::unique_lock<std::mutex> lock(mu_);
    job.error = std::move(error);
    job.runs_executed = runs;
    job.wall_seconds = seconds_since(job.started);
    if (job.run_start_us != 0 && obs::Registry::instance().enabled()) {
      obs::Tracer::instance().complete(
          "job " + std::to_string(job.id) + " run", "serve",
          job.run_start_us, obs::now_micros() - job.run_start_us);
    }
    finish_locked(job, state);
  };
  try {
    if (options_.before_job) options_.before_job(job.id);
    // The bound specs leave the job here, so a finished job no longer
    // holds them.
    const auto specs = std::move(job.specs);
    const auto graphs = std::move(job.graphs);
    sim::MonteCarloConfig config =
        scenario::monte_carlo_config(job.request.scenario);
    if (job.request.threads > 0) config.threads = job.request.threads;
    SweepAdapter adapter(*this, job, std::move(job.refs));
    harness::SweepOptions options;
    options.observer = &adapter;
    options.cancel = &job.cancel;
    const auto sweep = harness::run_sweep(specs, graphs, config, options);
    finish(JobState::kDone, "", sweep.perf.total_runs);
  } catch (const sim::SweepCancelled&) {
    finish(JobState::kCancelled, "", job.runs_done);
  } catch (const std::exception& e) {
    finish(JobState::kFailed,
           "job " + std::to_string(job.id) + ": " + e.what(), 0);
  }
}

void JobManager::publish(Job& job, std::string bytes, bool cell_done) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cell_done) ++job.cells_done;
  if (!bytes.empty()) {
    job.jsonl += bytes;
    stream_cv_.notify_all();
  }
}

void JobManager::progress(Job& job, const sim::SweepProgress& progress) {
  std::unique_lock<std::mutex> lock(mu_);
  job.runs_done = progress.runs_done;
}

}  // namespace adacheck::serve

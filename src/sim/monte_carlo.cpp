#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/validators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace adacheck::sim {

namespace {

/// Telemetry handles (gated on Registry::enabled(); see obs/registry.hpp).
struct SweepMetrics {
  obs::Counter& chunks;
  obs::Counter& runs;
  obs::Counter& budget_stops;

  static SweepMetrics& get() {
    static SweepMetrics* const metrics = new SweepMetrics{
        obs::Registry::instance().counter("sweep.chunks"),
        obs::Registry::instance().counter("sweep.runs"),
        obs::Registry::instance().counter("sweep.budget_stops")};
    return *metrics;
  }
};

/// One contiguous slice of one job's run indices.
struct Chunk {
  std::size_t job = 0;
  int begin = 0;
  int end = 0;
};

/// Per-job scheduling state.  Unbudgeted jobs place all their chunks
/// in round 0 and never revisit them; budgeted jobs grow in doubling
/// waves, absorbing each wave's chunks in index order at the round
/// boundary until the stop rule fires.  Everything here is a pure
/// function of the job's config — never of thread scheduling — which
/// is what makes budget outcomes bit-identical across thread counts.
struct JobPlan {
  bool budgeted = false;
  bool done = false;
  int max = 0;                         ///< resolved run cap (budgeted)
  int scheduled = 0;                   ///< runs scheduled so far
  std::size_t absorbed = 0;            ///< chunks folded into `prefix`
  std::vector<std::size_t> chunk_ids;  ///< into the chunk queue, in order
  MetricSet prefix;                    ///< merged completed-chunk prefix
  PrecisionRecorder precision;
};

MetricSet run_chunk(const SimSetup& setup, const PolicyFactory& factory,
                    const MonteCarloConfig& config, int begin, int end) {
  MetricSet metrics = MetricSet::for_cell(setup, config.metrics.get());
  EngineConfig engine_config;
  engine_config.record_trace = config.validate;
  const double base_freq = setup.processor.slowest().frequency;
  std::unique_ptr<ICheckpointPolicy> policy;
  for (int i = begin; i < end; ++i) {
    const std::uint64_t seed =
        util::derive_seed(config.seed, static_cast<std::uint64_t>(i));
    // Reuse the chunk's policy instance when it can re-arm itself;
    // otherwise pay the factory allocation per run.
    if (!policy || !policy->reset()) policy = factory();
    // The setup was validated once for the whole job (validate_job).
    const RunResult result =
        simulate_seeded_unchecked(setup, *policy, seed, engine_config);
    const bool validation_failed =
        config.validate && !validate_all(setup, result).empty();
    metrics.observe({setup, result, base_freq, validation_failed});
  }
  return metrics;
}

void validate_job(const CellJob& job) {
  if (job.config.runs <= 0) {
    throw std::invalid_argument("MonteCarloConfig: runs must be > 0");
  }
  job.config.budget.validate();
  // Custom-runner jobs own their workload; setup/factory are unused.
  if (job.runner) return;
  job.setup.validate();
  if (!job.factory) {
    throw std::invalid_argument("run_cell: null policy factory");
  }
}

/// Shared bookkeeping for the observer path of one run_cells_ex call.
/// Exists only when an observer or a cancellation token is present —
/// the null path never allocates or touches any of it.
struct SweepTracker {
  explicit SweepTracker(const std::vector<CellJob>& jobs,
                        const std::vector<JobPlan>& plans) {
    remaining.reserve(jobs.size());
    started.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      // Budgeted cells complete at round boundaries, not when a worker
      // finishes their last chunk; the sentinel keeps the worker-side
      // decrement from ever reaching zero for them.
      const int chunks_left =
          plans[j].budgeted ? INT_MAX
                            : static_cast<int>(plans[j].chunk_ids.size());
      remaining.push_back(std::make_unique<std::atomic<int>>(chunks_left));
      started.push_back(std::make_unique<std::atomic<bool>>(false));
      progress.runs_total += plans[j].scheduled;
    }
    progress.cells_total = jobs.size();
  }

  /// Serializes every observer callback: implementations never run
  /// concurrently (documented in sim/observer.hpp).
  std::mutex callback_mu;
  std::vector<std::unique_ptr<std::atomic<int>>> remaining;
  std::vector<std::unique_ptr<std::atomic<bool>>> started;
  SweepProgress progress;  ///< counters mutated under callback_mu
};

/// Aligns a run count up to the chunk grain, capped at `max`.  Wide
/// arithmetic so the doubling schedule cannot overflow near INT_MAX.
int align_runs(long long runs, int max) {
  const long long aligned =
      (runs + kRunChunk - 1) / kRunChunk * kRunChunk;
  return static_cast<int>(std::min<long long>(aligned, max));
}

}  // namespace

std::vector<CellResult> run_cells_ex(const std::vector<CellJob>& jobs,
                                     const RunCellsOptions& options) {
  for (const auto& job : jobs) validate_job(job);

  std::vector<Chunk> chunks;
  std::vector<JobPlan> plans(jobs.size());

  // Appends job `j`'s chunks covering run indices [plan.scheduled,
  // end) to the queue.  Chunk boundaries are always kRunChunk-aligned
  // (the cap is the only place a short chunk can appear), so a given
  // run index lands in the same chunk no matter how many waves it
  // took to get there.
  const auto schedule_runs = [&](std::size_t j, int end) {
    for (int b = plans[j].scheduled; b < end; b += kRunChunk) {
      plans[j].chunk_ids.push_back(chunks.size());
      chunks.push_back({j, b, std::min(end, b + kRunChunk)});
    }
    plans[j].scheduled = end;
  };

  // Round 0: every chunk of every unbudgeted job (job-major,
  // contiguous — the exact pre-budget queue layout) plus the first
  // wave of each budgeted job.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& config = jobs[j].config;
    if (config.budget.enabled()) {
      plans[j].budgeted = true;
      plans[j].max = config.budget.resolved_max(config.runs);
      plans[j].precision = PrecisionRecorder(config.budget, config.runs);
      schedule_runs(j, align_runs(config.budget.resolved_min(config.runs),
                                  plans[j].max));
    } else {
      schedule_runs(j, config.runs);
    }
  }

  // Partial metric sets are indexed by chunk, so every merge below —
  // whether at cell completion or after the queue drains — walks them
  // in run-index order no matter which worker produced them.
  std::vector<MetricSet> partials(chunks.size());
  std::vector<CellResult> results(jobs.size());

  std::unique_ptr<SweepTracker> tracker;
  if (options.observer != nullptr) {
    tracker = std::make_unique<SweepTracker>(jobs, plans);
  }

  // Any chunk body that throws flips `abort` so peers drain the rest
  // of the queue without simulating; `skipped` records that at least
  // one chunk never executed (cancellation must not return partial
  // results as if they were complete).
  std::atomic<bool> abort{false};
  std::atomic<bool> skipped{false};
  const auto stop_requested = [&] {
    return options.cancel != nullptr && options.cancel->stop_requested();
  };

  // Merges one completed unbudgeted cell's partials (all written,
  // ordered by the remaining-counter's acq_rel decrement) and reports
  // it.
  const auto complete_cell = [&](std::size_t job) {
    const auto& ids = plans[job].chunk_ids;
    MetricSet merged = std::move(partials[ids.front()]);
    for (std::size_t i = 1; i < ids.size(); ++i) {
      merged.merge(partials[ids[i]]);
    }
    results[job] = {merged.cell_stats(), merged.values()};
    std::lock_guard<std::mutex> lock(tracker->callback_mu);
    options.observer->on_cell_done(job, results[job]);
  };

  const auto process = [&](int lo, int hi) {
    for (int c = lo; c < hi; ++c) {
      if (abort.load(std::memory_order_relaxed)) {
        skipped.store(true, std::memory_order_relaxed);
        return;
      }
      if (stop_requested()) {
        abort.store(true, std::memory_order_relaxed);
        skipped.store(true, std::memory_order_relaxed);
        return;
      }
      const auto& chunk = chunks[static_cast<std::size_t>(c)];
      const auto& job = jobs[chunk.job];
      try {
        if (tracker &&
            !tracker->started[chunk.job]->exchange(
                true, std::memory_order_relaxed)) {
          std::lock_guard<std::mutex> lock(tracker->callback_mu);
          options.observer->on_cell_start(chunk.job);
        }
        {
          obs::Span span("chunk", "sweep");
          partials[static_cast<std::size_t>(c)] =
              job.runner
                  ? job.runner(job.config, chunk.begin, chunk.end)
                  : run_chunk(job.setup, job.factory, job.config, chunk.begin,
                              chunk.end);
        }
        if (obs::Registry::instance().enabled()) {
          auto& metrics = SweepMetrics::get();
          metrics.chunks.add(1);
          metrics.runs.add(chunk.end - chunk.begin);
        }
        if (tracker) {
          const bool cell_done =
              tracker->remaining[chunk.job]->fetch_sub(
                  1, std::memory_order_acq_rel) == 1;
          if (cell_done) complete_cell(chunk.job);
          std::lock_guard<std::mutex> lock(tracker->callback_mu);
          tracker->progress.runs_done += chunk.end - chunk.begin;
          if (cell_done) ++tracker->progress.cells_done;
          options.observer->on_progress(tracker->progress);
        }
      } catch (...) {
        // First exception wins (TaskGroup keeps the first it sees);
        // everyone else just drains.
        abort.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };

  // The round loop: execute the scheduled chunk range, then advance
  // every live budgeted job — absorb its newly completed chunks in
  // index order, evaluating the stop rule at each chunk boundary, and
  // either finalize the cell or schedule the next doubling wave.
  // Rounds end at barriers, so the stop decision only ever sees fully
  // completed prefixes; which worker ran which chunk is invisible.
  std::size_t round_begin = 0;
  int applied = 1;
  while (round_begin < chunks.size()) {
    const std::size_t round_end = chunks.size();
    {
      obs::Span wave("wave", "sweep");
      if (options.threads == 1) {
        // Fully serial in the calling thread — never touches (or even
        // constructs) the shared pool.
        process(static_cast<int>(round_begin), static_cast<int>(round_end));
      } else {
        applied = std::max(
            applied,
            util::parallel_for(util::ThreadPool::shared(),
                               static_cast<int>(round_begin),
                               static_cast<int>(round_end),
                               /*grain=*/1, process, options.threads));
      }
    }
    if (options.threads_used != nullptr) {
      *options.threads_used = std::max(applied, 1);
    }
    if (skipped.load(std::memory_order_relaxed)) throw SweepCancelled();

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      auto& plan = plans[j];
      if (!plan.budgeted || plan.done) continue;
      while (plan.absorbed < plan.chunk_ids.size()) {
        const std::size_t id = plan.chunk_ids[plan.absorbed];
        plan.precision.absorb(partials[id].cell_stats());
        if (plan.absorbed == 0) {
          plan.prefix = std::move(partials[id]);
        } else {
          plan.prefix.merge(partials[id]);
        }
        ++plan.absorbed;
        if (plan.precision.should_stop()) {
          // Later chunks of this wave (already executed) are discarded
          // unabsorbed: the result is the stopping prefix, which is
          // the same prefix at any thread count.
          plan.done = true;
          if (obs::Registry::instance().enabled()) {
            SweepMetrics::get().budget_stops.add(1);
            obs::Tracer::instance().instant("budget_stop", "sweep");
          }
          break;
        }
      }
      if (plan.done) {
        results[j] = {plan.prefix.cell_stats(), plan.prefix.values()};
        if (tracker) {
          std::lock_guard<std::mutex> lock(tracker->callback_mu);
          options.observer->on_cell_done(j, results[j]);
          ++tracker->progress.cells_done;
          options.observer->on_progress(tracker->progress);
        }
      } else {
        // Not stopped with the cap unreached: double the schedule.
        const int begin = plan.scheduled;
        schedule_runs(j, align_runs(2LL * plan.scheduled, plan.max));
        partials.resize(chunks.size());
        if (tracker) {
          std::lock_guard<std::mutex> lock(tracker->callback_mu);
          tracker->progress.runs_total += plan.scheduled - begin;
        }
      }
    }
    // Workers check the token only at chunk start, so a stop requested
    // after the last chunk was claimed (from the last on_cell_done, say,
    // which for budgeted cells fires just above) reaches none of them.
    if (stop_requested()) throw SweepCancelled();
    round_begin = round_end;
  }

  if (!tracker) {
    // Null / cancel-only path for unbudgeted cells: one pass of
    // in-order merges at the end, exactly the pre-observer
    // implementation.  (Budgeted cells were finalized by the round
    // loop either way.)
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (plans[j].budgeted) continue;
      const auto& ids = plans[j].chunk_ids;
      MetricSet merged = std::move(partials[ids.front()]);
      for (std::size_t i = 1; i < ids.size(); ++i) {
        merged.merge(partials[ids[i]]);
      }
      results[j] = {merged.cell_stats(), merged.values()};
    }
  }
  return results;
}

std::vector<CellStats> run_cells(const std::vector<CellJob>& jobs,
                                 int threads, int* threads_used) {
  RunCellsOptions options;
  options.threads = threads;
  options.threads_used = threads_used;
  auto results = run_cells_ex(jobs, options);
  std::vector<CellStats> stats;
  stats.reserve(results.size());
  for (auto& result : results) stats.push_back(std::move(result.stats));
  return stats;
}

CellResult run_cell_ex(const SimSetup& setup, const PolicyFactory& factory,
                       const MonteCarloConfig& config,
                       ISweepObserver* observer, CancellationToken* cancel) {
  std::vector<CellJob> jobs;
  jobs.push_back({setup, factory, config});
  RunCellsOptions options;
  options.threads = config.threads;
  options.observer = observer;
  options.cancel = cancel;
  return std::move(run_cells_ex(jobs, options)[0]);
}

CellStats run_cell(const SimSetup& setup, const PolicyFactory& factory,
                   const MonteCarloConfig& config) {
  return run_cell_ex(setup, factory, config).stats;
}

}  // namespace adacheck::sim

#include "harness/sweep.hpp"

#include <chrono>
#include <stdexcept>

namespace adacheck::harness {

SweepResult run_sweep(const std::vector<ExperimentSpec>& specs,
                      const std::vector<GraphExperimentSpec>& graphs,
                      const sim::MonteCarloConfig& config,
                      const SweepOptions& options) {
  if (specs.empty() && graphs.empty()) {
    throw std::invalid_argument("run_sweep: nothing to run");
  }
  // Flatten: [spec][row][scheme] then [graph][lambda][scheduler] ->
  // one job list, remembering where each spec's slice starts.
  std::vector<sim::CellJob> jobs;
  std::vector<std::size_t> offsets;
  offsets.reserve(specs.size());
  for (const auto& spec : specs) {
    offsets.push_back(jobs.size());
    auto spec_jobs = experiment_jobs(spec, config);
    jobs.insert(jobs.end(), std::make_move_iterator(spec_jobs.begin()),
                std::make_move_iterator(spec_jobs.end()));
  }
  std::vector<std::size_t> graph_offsets;
  graph_offsets.reserve(graphs.size());
  for (const auto& graph : graphs) {
    graph_offsets.push_back(jobs.size());
    auto graph_jobs = graph_experiment_jobs(graph, config);
    jobs.insert(jobs.end(), std::make_move_iterator(graph_jobs.begin()),
                std::make_move_iterator(graph_jobs.end()));
  }

  int threads_used = 1;
  std::size_t cells_shared = 0;
  sim::RunCellsOptions run_options;
  run_options.threads = config.threads;
  run_options.threads_used = &threads_used;
  run_options.cells_shared = &cells_shared;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;
  const auto t0 = std::chrono::steady_clock::now();
  const auto cell_results = sim::run_cells_ex(jobs, run_options);
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult result;
  result.config = config;
  result.experiments.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.experiments.push_back(
        assemble_experiment(specs[i], cell_results, offsets[i]));
  }
  result.graph_experiments.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    result.graph_experiments.push_back(assemble_graph_experiment(
        graphs[i], cell_results, graph_offsets[i]));
  }

  result.perf.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.perf.cells = jobs.size();
  result.perf.cells_shared = cells_shared;
  // Count the runs actually aggregated: for budgeted cells that is
  // where each one stopped, for fixed cells exactly cells x runs.
  result.perf.total_runs = 0;
  for (const auto& cell : cell_results) {
    result.perf.total_runs +=
        static_cast<long long>(cell.stats.completion.trials());
  }
  result.perf.runs_per_second =
      result.perf.wall_seconds > 0.0
          ? static_cast<double>(result.perf.total_runs) /
                result.perf.wall_seconds
          : 0.0;
  result.perf.threads = threads_used;
  return result;
}

SweepResult run_sweep(const std::vector<ExperimentSpec>& specs,
                      const sim::MonteCarloConfig& config,
                      const SweepOptions& options) {
  return run_sweep(specs, {}, config, options);
}

}  // namespace adacheck::harness

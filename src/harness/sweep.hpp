// Parallel experiment sweeps.
//
// run_sweep executes any number of experiment specs — a whole paper
// table set, or a custom parameter grid — as ONE flat chunk queue on
// the shared thread pool.  That is the difference from calling
// run_experiment in a loop pre-pool: there is no barrier between
// cells, so workers drain cheap and expensive cells alike with no
// idle tail, and thread start-up is paid once per process instead of
// once per cell.
//
// Results are bit-identical to sequential run_experiment calls with
// the same config: cells are seeded by (row, scheme) via cell_seed()
// and chunk merge order is thread-count independent.
//
// Each distinct cell runs once.  Every classic cell carries a result
// key (harness::cell_result_key): the exact bit patterns of every
// input its runs read, names excluded.  The queue executes the first
// cell of each key and copies its result to later cells with the same
// key (sim::run_cells_ex).  Because seeds depend only on (row, scheme),
// the paper's CCP-flavor tables 3-4 repeat the Poisson, k-f-t and A_D
// cells of the SCP-flavor tables 1-2: those schemes plan no inner
// checkpoint, so they read only c = t_s + t_cp = 22, and whether a
// scheme does is declared by policy::plans_inner_checkpoints next to
// make_policy.  scenarios/paper_tables.json thus executes 130 of its
// 208 cells.  Graph cells carry no key and never share.
#pragma once

#include <cstddef>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/graph_experiment.hpp"

namespace adacheck::harness {

/// Wall-clock and throughput metrics for one sweep execution.
struct SweepPerf {
  double wall_seconds = 0.0;
  /// Runs aggregated across all cells — cells x runs for fixed-count
  /// sweeps, the sum of per-cell stopping points for budgeted ones
  /// (wave overshoot past a stopping chunk is excluded).
  long long total_runs = 0;
  double runs_per_second = 0.0;  ///< total_runs / wall_seconds
  int threads = 0;               ///< parallelism cap actually applied
  std::size_t cells = 0;         ///< flat cells of the sweep
  /// Cells that took an earlier cell's result instead of executing
  /// (same result key); cells - cells_shared cells executed.
  std::size_t cells_shared = 0;
};

/// Every spec's measured cells plus the sweep's perf metrics.
struct SweepResult {
  std::vector<ExperimentResult> experiments;
  std::vector<GraphExperimentResult> graph_experiments;
  sim::MonteCarloConfig config;  ///< per-cell budget/seed actually used
  SweepPerf perf;
};

/// Runs all cells of all specs as one flat task queue.  The options'
/// observer sees flat cell indices in spec-major row-major order (the
/// order of sweep_cell_refs); its cancellation token aborts the queue
/// with sim::SweepCancelled.
SweepResult run_sweep(const std::vector<ExperimentSpec>& specs,
                      const sim::MonteCarloConfig& config = {},
                      const SweepOptions& options = {});

/// run_sweep with DAG experiments in the same flat queue: graph cells
/// are appended after every classic cell, spec-major with schedulers
/// innermost — the order of sweep_cell_refs(specs, graphs).  Either
/// list may be empty (but not both).
SweepResult run_sweep(const std::vector<ExperimentSpec>& specs,
                      const std::vector<GraphExperimentSpec>& graphs,
                      const sim::MonteCarloConfig& config = {},
                      const SweepOptions& options = {});

}  // namespace adacheck::harness

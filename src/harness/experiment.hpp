// Experiment descriptions and the runner that reproduces the paper's
// tables: a grid of (utilization, lambda) cells, each simulated under
// several schemes with a shared Monte-Carlo budget.
#pragma once

#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "model/speed.hpp"
#include "sim/monte_carlo.hpp"

namespace adacheck::harness {

/// The paper's reported numbers for one (cell, scheme) pair; E may be
/// NaN (the tables print NaN when no run succeeds).
struct PaperCell {
  double p = 0.0;
  double e = 0.0;
};

/// One table row: a (U, lambda) point with the paper's values per scheme.
struct ExperimentRow {
  double utilization = 0.0;  ///< U as defined by the table (see util_level)
  double lambda = 0.0;       ///< per-processor fault rate
  std::vector<PaperCell> paper;  ///< one entry per spec.schemes element
};

/// A full table ((a) and (b) sub-tables are separate specs).
struct ExperimentSpec {
  std::string id;     ///< e.g. "table1a"
  std::string title;
  model::CheckpointCosts costs;  ///< cycle units
  double deadline = 10'000.0;
  int fault_tolerance = 0;       ///< k
  double speed_ratio = 2.0;      ///< f2 / f1
  model::VoltageLaw voltage;     ///< energy calibration (DESIGN.md §3)
  /// Speed level whose frequency converts U to N (paper: U = N/(f*D))
  /// and at which the fixed baselines run: 0 = f1, 1 = f2.
  std::size_t util_level = 0;
  /// Fault-environment registry name applied to every cell (see
  /// model/fault_env.hpp); the default "poisson" reproduces the paper
  /// bit-for-bit.
  std::string environment = "poisson";
  /// Replicas sharing the fault process: 2 = the paper's DMR, 3 = TMR
  /// (single faults are voted away), up to model::kMaxProcessors.
  int processors = 2;
  /// Faults may also strike during checkpoint and rollback overhead
  /// (off in the paper, which exposes only computation windows).
  bool faults_during_overhead = false;
  /// Adaptive schemes also re-plan at every committed CSCP (off in the
  /// paper, which re-plans only after faults).
  bool recompute_at_commit = false;
  /// Per-experiment precision budget; when enabled it overrides the
  /// sweep config's budget for every cell of this spec (sequential
  /// stopping instead of the config's fixed run count — see
  /// sim::RunBudget).  Disabled by default.
  sim::RunBudget budget;
  std::vector<std::string> schemes;  ///< policy names (see policy/factory.hpp)
  std::vector<ExperimentRow> rows;

  void validate() const;
};

/// Observer/cancellation hooks threaded from the harness entry points
/// down to sim::run_cells_ex; both null = the zero-cost null path.
/// Cell indices reported to the observer are flat row-major positions
/// ((row * schemes + scheme), spec-major across a sweep) — the same
/// order as sweep_cell_refs (harness/stream_report.hpp).
struct SweepOptions {
  sim::ISweepObserver* observer = nullptr;
  sim::CancellationToken* cancel = nullptr;
};

/// Measured statistics for every (row, scheme) cell, same shape as
/// spec.rows x spec.schemes.
struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<std::vector<sim::CellStats>> cells;  ///< [row][scheme]
  /// Extra metric-recorder values per cell, same shape as `cells`;
  /// every entry is empty when the config named no MetricSuite.
  std::vector<std::vector<sim::MetricValues>> metrics;
};

/// Builds the SimSetup for one row of a spec (exposed for tests).
sim::SimSetup make_setup(const ExperimentSpec& spec,
                         const ExperimentRow& row);

/// The environment axis of a sweep: one copy of every spec per named
/// environment, ids suffixed "@<environment>" (e.g. "table1a@bursty-
/// orbit").  Cell seeds depend only on (row, scheme), so the same
/// master seed gives *paired* fault-process draws across environments
/// — cross-environment deltas are not seed noise.
std::vector<ExperimentSpec> with_environments(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<std::string>& environments);

/// Seed for the (row, scheme) cell: decorrelates cells while keeping
/// every cell reproducible.  Shared by run_experiment and run_sweep so
/// their results are interchangeable.
std::uint64_t cell_seed(std::uint64_t master, std::size_t row,
                        std::size_t scheme) noexcept;

/// The result key of one classic cell (see sim::CellJob::key): the
/// exact bit patterns of every input its runs read.  That is the task
/// without its name, every processor level, the fault model and
/// environment, the scheme, `util_level`, `recompute_at_commit`, and
/// the config's runs, seed, validate flag, budget and metric-suite
/// names (not `threads`).  For a scheme that never plans inner
/// checkpoints (policy::plans_inner_checkpoints) the key holds t_s +
/// t_cp and t_r; for every other scheme t_s, t_cp and t_r.  So a
/// baseline cell of an SCP-flavor table (t_s = 2, t_cp = 20) and its
/// CCP-flavor twin (t_s = 20, t_cp = 2) share one key.
std::string cell_result_key(const sim::SimSetup& setup,
                            const std::string& scheme,
                            std::size_t util_level, bool recompute_at_commit,
                            const sim::MonteCarloConfig& config);

/// The flat Monte-Carlo job list for every (row, scheme) cell of the
/// spec, in row-major order (exposed for run_sweep and tests).  Every
/// job carries its cell_result_key, so run_sweep executes each
/// distinct cell once.
std::vector<sim::CellJob> experiment_jobs(const ExperimentSpec& spec,
                                          const sim::MonteCarloConfig& config);

/// Reassembles a row-major flat cell-result slice (as produced by
/// running experiment_jobs) into the spec's [row][scheme] cell and
/// metrics grids.  `results` must hold at least offset + rows x
/// schemes entries.
ExperimentResult assemble_experiment(
    const ExperimentSpec& spec, const std::vector<sim::CellResult>& results,
    std::size_t offset = 0);

/// Runs every cell of the experiment as one flat task queue on the
/// shared thread pool (config.threads caps the parallelism).
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const sim::MonteCarloConfig& config = {},
                                const SweepOptions& options = {});

}  // namespace adacheck::harness

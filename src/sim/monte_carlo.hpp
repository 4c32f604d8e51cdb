// Monte-Carlo experiment harness.
//
// Repeats a scenario with independent fault streams and aggregates
// per-run results through the pluggable metric-recorder pipeline
// (sim/metrics.hpp): every cell gets a MetricSet — the built-in
// CellStats recorder plus whatever extra recorders the config's
// MetricSuite names.  By default a cell executes a fixed `runs` count
// (the paper's "repeated 10,000 times"); with a RunBudget configured
// it instead runs in doubling waves of kRunChunk-run chunks until the
// targeted confidence-interval half-widths are achieved or the hard
// cap is hit.  Either way runs are seeded per-index from the master
// seed and aggregated in fixed-size chunks merged in index order —
// and for budgets, the stop rule is evaluated only at chunk
// boundaries over that same index-ordered prefix — so all recorder
// values (and the budget's stopping point) are bit-identical
// regardless of thread count.
//
// Execution happens on the shared util::ThreadPool: one cell
// (`run_cell`) chunks its runs onto the persistent workers, and a
// whole batch of cells (`run_cells`) becomes a single flat task queue
// — the backbone of harness::run_sweep.  An ISweepObserver
// (sim/observer.hpp) can watch cell completion and progress, and a
// CancellationToken stops the queue cooperatively; both default to the
// zero-cost null path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "util/statistics.hpp"

namespace adacheck::sim {

/// Builds a fresh policy instance.  The run loop keeps one instance
/// per chunk alive and re-arms it between runs via
/// ICheckpointPolicy::reset(); the factory is the fallback for
/// policies that cannot reset (it is then invoked once per run).
using PolicyFactory = std::function<std::unique_ptr<ICheckpointPolicy>()>;

struct MonteCarloConfig {
  /// Fixed run count when no budget is enabled (the paper's "repeated
  /// 10,000 times"); with a budget it is only the fallback for caps
  /// the budget leaves unset (RunBudget::resolved_max).
  int runs = 10'000;
  std::uint64_t seed = 0x5EED5EED;
  int threads = 0;            ///< 0 = shared pool width; 1 = in-caller
  bool validate = false;      ///< run invariant validators on every run
  /// Precision-targeted sequential stopping; disabled (fixed `runs`)
  /// by default.  A budget with min_runs == max_runs == runs executes
  /// exactly the fixed path's chunks and reproduces its statistics
  /// bit-for-bit.
  RunBudget budget;
  /// Extra metric recorders instantiated per cell (see
  /// sim::make_metric_suite); null = the default CellStats only.
  std::shared_ptr<const MetricSuite> metrics;
};

/// Runs one experiment cell; returns the default statistics.  Throws
/// only on configuration errors; validation failures are counted, not
/// thrown (the property tests assert the count is zero).
CellStats run_cell(const SimSetup& setup, const PolicyFactory& factory,
                   const MonteCarloConfig& config = {});

/// run_cell with the full result (extra metric values included) and
/// optional observer/cancellation hooks.
CellResult run_cell_ex(const SimSetup& setup, const PolicyFactory& factory,
                       const MonteCarloConfig& config = {},
                       ISweepObserver* observer = nullptr,
                       CancellationToken* cancel = nullptr);

/// Executes one chunk [begin, end) of a cell's runs and returns the
/// fully-observed MetricSet for it.  Custom workloads (graph cells)
/// supply one of these instead of a SimSetup/PolicyFactory pair; the
/// runner still owns chunking, budget waves, observers, and merge
/// order, so the determinism contract is inherited for free.  Must
/// derive all randomness from `config.seed` and the run indices.
using ChunkRunner =
    std::function<MetricSet(const MonteCarloConfig& config, int begin,
                            int end)>;

/// One independent cell of a batch.  `config.threads` is ignored here —
/// run_cells parallelizes across the whole batch, not per cell.
struct CellJob {
  SimSetup setup;
  PolicyFactory factory;
  MonteCarloConfig config;
  /// When set, runs chunks through this instead of the built-in
  /// engine loop; `setup`/`factory` are then ignored (and unvalidated).
  /// Optional, so `{setup, factory, config}` leaves it empty.
  ChunkRunner runner = {};
};

/// Execution knobs for run_cells_ex beyond the job list itself.
struct RunCellsOptions {
  /// Parallelism cap; 0 = pool width, 1 = fully serial in the caller.
  int threads = 0;
  /// When given, receives the parallelism actually applied — the cap
  /// clamped to the chunk count and to pool width + 1 (the waiting
  /// caller helps execute tasks) — what perf reports should record.
  int* threads_used = nullptr;
  /// Cell-completion / progress callbacks (serialized by the runner);
  /// null = no tracking overhead at all.
  ISweepObserver* observer = nullptr;
  /// Cooperative stop flag; when it fires before run_cells_ex returns
  /// (from an observer callback included), run_cells_ex throws
  /// SweepCancelled.
  CancellationToken* cancel = nullptr;
};

/// Runs every job as one flat chunk queue on the shared thread pool.
/// Results are identical to calling run_cell per job — bit-identical
/// for every thread count, since chunking and merge order depend only
/// on each job's run count.  Observer callbacks fire exactly once per
/// cell regardless of thread count.  Throws SweepCancelled when the
/// options' token stopped the sweep early; a throwing recorder or
/// observer fast-drains the queue and propagates its exception.
std::vector<CellResult> run_cells_ex(const std::vector<CellJob>& jobs,
                                     const RunCellsOptions& options = {});

/// Compatibility wrapper: default statistics only, no observers.
std::vector<CellStats> run_cells(const std::vector<CellJob>& jobs,
                                 int threads = 0,
                                 int* threads_used = nullptr);

}  // namespace adacheck::sim

// DAG experiment descriptions and their Monte-Carlo bridge.
//
// A GraphExperimentSpec is the DAG analogue of ExperimentSpec: one
// TaskGraph swept over a lambda axis (rows) and a scheduler axis
// (columns), each (lambda, scheduler) cell a Monte-Carlo population of
// whole graph-executive runs.  Graph cells ride the exact same
// machinery as classic cells — they become sim::CellJobs whose custom
// ChunkRunner replays the graph executive per run index, so chunking,
// budget waves, observers, cancellation, and JSONL streaming all apply
// unchanged and results stay bit-identical across thread counts.
//
// Cell P is the probability every released instance meets the
// end-to-end deadline; cell E the expected total energy of a
// successful run.  The extra "graph" metrics group carries end-to-end
// response, blocking, and per-node breakdowns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "model/checkpoint.hpp"
#include "model/speed.hpp"
#include "sched/graph_executive.hpp"
#include "sched/task_graph.hpp"
#include "sim/monte_carlo.hpp"

namespace adacheck::harness {

struct GraphExperimentSpec {
  std::string id;     ///< e.g. "dag_diamond"
  std::string title;
  sched::TaskGraph graph;
  int workers = 1;
  int instances = 8;  ///< periodic releases per simulated run
  bool skip_late_jobs = true;
  model::CheckpointCosts costs;  ///< cycle units
  double speed_ratio = 2.0;      ///< f2 / f1
  model::VoltageLaw voltage;
  /// Fault-environment registry name applied to every cell.
  std::string environment = "poisson";
  /// Per-experiment precision budget, same layering as ExperimentSpec.
  sim::RunBudget budget;
  std::vector<std::string> schedulers;  ///< registry names (columns)
  std::vector<double> lambdas;          ///< per-processor rates (rows)

  void validate() const;
};

/// Measured statistics per (lambda, scheduler) cell.
struct GraphExperimentResult {
  GraphExperimentSpec spec;
  std::vector<std::vector<sim::CellStats>> cells;       ///< [lambda][sched]
  std::vector<std::vector<sim::MetricValues>> metrics;  ///< same shape
};

/// Seed for a graph cell: derived from the lambda row only, so the
/// scheduler columns of one row see paired fault draws — policy deltas
/// are never seed noise.  Distinct from cell_seed's domain.
std::uint64_t graph_cell_seed(std::uint64_t master, std::size_t row) noexcept;

/// The graph executive configuration of the (lambda, scheduler) cell;
/// its seed and trace flag are left at their defaults (they vary per
/// run).
sched::GraphExecutiveConfig graph_executive_config(
    const GraphExperimentSpec& spec, double lambda,
    const std::string& scheduler);

/// The flat Monte-Carlo job list for every (lambda, scheduler) cell in
/// row-major order; each job carries a ChunkRunner driving the graph
/// executive (CellJob::setup/factory are unused).
std::vector<sim::CellJob> graph_experiment_jobs(
    const GraphExperimentSpec& spec, const sim::MonteCarloConfig& config);

/// Reassembles a row-major flat result slice into the spec's grids.
GraphExperimentResult assemble_graph_experiment(
    const GraphExperimentSpec& spec,
    const std::vector<sim::CellResult>& results, std::size_t offset = 0);

}  // namespace adacheck::harness

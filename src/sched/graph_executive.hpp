// Multi-worker executive over periodic DAG releases.
//
// A whole TaskGraph instance is released every period with one
// end-to-end deadline, and each release of an own-period node (a
// periodic task, GraphNode::period > 0) is a one-node instance with
// the node's deadline; a periodic task set is a graph of such nodes
// on one worker.  Nodes become dispatchable when their
// predecessors complete and are placed on `workers` identical lanes by
// a scheduler policy (sched/scheduler.hpp).  A dispatched node first
// acquires its declared shared resources all-or-nothing — while it
// waits it HOLDS its worker (head-of-line blocking, the behavior of a
// non-preemptive lane that cannot context-switch mid-acquisition) and
// the wait is accounted as blocking time, separate from execution.
// Once running, the node is one paper-model job simulated under its
// checkpointing policy with deadline = remaining slack to the
// instance's absolute deadline.
//
// Pinned semantics (tests depend on these):
//  * A run simulates the releases in [0, instances * graph.period):
//    whole-graph instances k = 0 .. instances - 1 at k * period, and
//    own-period node jobs at phase + j * node period.
//  * Releases are admitted in (release time, node index) order; a
//    whole-graph instance ranks ahead of own-period jobs released at
//    the same time and admits its root nodes in index order.  For a
//    task set this is the order of a flat periodic executive.
//  * Event order at each time point: completions (worker-index order)
//    -> instance releases -> blocked-node acquisition retries (policy
//    order) -> dispatch of ready nodes to the lowest-index free
//    workers (policy order).  All policy ties break on admission
//    sequence, so a schedule is a pure function of (graph, config).
//  * Resources are held only while a node runs, and released at its
//    completion: acquisition is deadlock-free by construction.
//  * skip_late_jobs is checked at dispatch and again at every
//    acquisition retry; a late or failed node abandons its whole
//    instance — remaining nodes are skipped and counted missed, nodes
//    already running finish normally.
//  * Node job seed = derive_seed(config.seed, k * nodes + node), k the
//    graph instance number or, for an own-period node, its own job
//    number (0 for the release at its phase): independent of the
//    scheduler, so policy comparisons on the same seed see paired
//    fault draws.
//  * One checkpoint policy per node per prepared executive, built with
//    it and re-armed before each job under the sweep's reset()
//    contract (a fresh instance when reset() returns false), across
//    all of its runs: every job decides as a newly built policy would,
//    and the adaptive m-search memo survives between the node's jobs.
//
// A GraphExecutive is prepared once from (graph, config) — validation,
// the derived tables, the release list, the scheduler, the node
// policies and every working buffer — and then run() many times, one
// seed each, without allocating.  run_graph_executive is the one-shot
// form.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "model/speed.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_graph.hpp"
#include "util/statistics.hpp"

namespace adacheck::sim {
struct SimSetup;
}  // namespace adacheck::sim

namespace adacheck::sched {

struct GraphExecutiveConfig {
  int instances = 1;           ///< window = instances * graph.period
  std::uint64_t seed = 0x5EED;
  bool skip_late_jobs = true;
  int workers = 1;             ///< identical non-preemptive lanes
  std::string scheduler = "edf";  ///< dispatch-order registry name
  model::CheckpointCosts costs;
  model::FaultModel fault_model;
  model::FaultEnvironment environment;
  double speed_ratio = 2.0;    ///< platform f2/f1
  model::VoltageLaw voltage;
  /// Emit simulated-time execution/blocking spans to the obs tracer
  /// (tid = worker lane, timestamps = simulation clock in micros).
  bool trace = false;

  void validate() const;
};

struct GraphNodeStats {
  int released = 0;
  int completed = 0;
  int missed = 0;   ///< includes skipped
  int skipped = 0;  ///< abandoned without executing
  util::RunningStats response_time;  ///< finish - instance release
  util::RunningStats blocking_time;  ///< acquire - dispatch, executed nodes
  double energy = 0.0;
};

struct GraphScheduleResult {
  int instances_released = 0;
  int instances_completed = 0;  ///< every node done by the deadline
  int instances_missed = 0;     ///< abandoned (late or failed node)
  std::vector<GraphNodeStats> per_node;  ///< indexed like graph.nodes
  util::RunningStats end_to_end;  ///< finish - release, completed instances
  double total_energy = 0.0;
  double total_blocking = 0.0;
  double busy_time = 0.0;   ///< summed node execution time (all lanes)
  double makespan = 0.0;    ///< latest node finish
  long long total_faults = 0;
  long long total_rollbacks = 0;
  long long total_corrections = 0;

  double instance_miss_ratio() const;
};

/// The graph executive prepared for many runs of one (graph, config).
class GraphExecutive {
 public:
  /// Validates `graph` and `config` and builds every node's checkpoint
  /// policy; throws std::invalid_argument on any of them, before a
  /// single release.  config.seed and config.trace are not read: run()
  /// takes both.
  GraphExecutive(const TaskGraph& graph, const GraphExecutiveConfig& config);
  ~GraphExecutive();
  GraphExecutive(const GraphExecutive&) = delete;
  GraphExecutive& operator=(const GraphExecutive&) = delete;

  /// Simulates every release in [0, config.instances * graph.period)
  /// under `seed`.  The result is reused: it stays valid until the
  /// next run().
  const GraphScheduleResult& run(std::uint64_t seed, bool trace = false);

  /// The bound node-job setup: the config's costs, platform and
  /// faults, with the task of the latest job.
  const sim::SimSetup& setup() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot: GraphExecutive(graph, config).run(config.seed, config.trace).
GraphScheduleResult run_graph_executive(const TaskGraph& graph,
                                        const GraphExecutiveConfig& config);

}  // namespace adacheck::sched

// DAG task-graph subsystem: TaskGraph validation/analysis, the
// scheduler-policy registry, periodic task sets as own-period nodes,
// the multi-worker graph executive (precedence, contention, blocking
// accounting, skip-late interactions), and the harness bridge
// (thread-count bit-identity, paired-policy miss-rate separation,
// cancellation leaving a clean JSONL prefix).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/graph_experiment.hpp"
#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "harness/sweep.hpp"
#include "model/fault_env.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/graph_executive.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_graph.hpp"

namespace adacheck {
namespace {

using sched::GraphExecutiveConfig;
using sched::GraphNode;
using sched::TaskGraph;

GraphNode node(const char* name, double cycles, int k = 2) {
  GraphNode n;
  n.name = name;
  n.cycles = cycles;
  n.fault_tolerance = k;
  return n;
}

/// fetch -> decode -> process -> commit, no resources.
TaskGraph chain_graph() {
  TaskGraph graph;
  graph.period = 16'000.0;
  graph.deadline = 15'000.0;
  graph.add_node(node("fetch", 2'000.0));
  graph.add_node(node("decode", 3'000.0));
  graph.add_node(node("process", 4'000.0, 3));
  graph.add_node(node("commit", 1'000.0));
  graph.add_edge("fetch", "decode");
  graph.add_edge("decode", "process");
  graph.add_edge("process", "commit");
  return graph;
}

/// split -> {left, right} -> join; left/right contend on one bus.
TaskGraph diamond_graph(int bus_capacity = 1) {
  TaskGraph graph;
  graph.period = 18'000.0;
  graph.deadline = 17'000.0;
  const std::size_t bus = graph.add_resource("bus", bus_capacity);
  graph.add_node(node("split", 1'500.0));
  GraphNode left = node("left", 4'000.0);
  left.resources.push_back(bus);
  graph.add_node(left);
  GraphNode right = node("right", 3'500.0);
  right.resources.push_back(bus);
  graph.add_node(right);
  graph.add_node(node("join", 1'000.0));
  graph.add_edge("split", "left");
  graph.add_edge("split", "right");
  graph.add_edge("left", "join");
  graph.add_edge("right", "join");
  return graph;
}

/// Four independent short jobs (admitted first) competing with a
/// three-stage critical chain on two workers.  A ready-order policy
/// starves the chain; a path-aware policy runs it immediately.
TaskGraph chain_vs_shorts_graph() {
  TaskGraph graph;
  graph.period = 20'000.0;
  graph.deadline = 11'500.0;
  graph.add_node(node("s1", 2'000.0));
  graph.add_node(node("s2", 2'000.0));
  graph.add_node(node("s3", 2'000.0));
  graph.add_node(node("s4", 2'000.0));
  graph.add_node(node("c1", 3'000.0));
  graph.add_node(node("c2", 3'000.0));
  graph.add_node(node("c3", 3'000.0));
  graph.add_edge("c1", "c2");
  graph.add_edge("c2", "c3");
  return graph;
}

GraphExecutiveConfig quiet_config(double lambda = 0.0) {
  GraphExecutiveConfig config;
  config.costs = model::CheckpointCosts::paper_scp_flavor();
  config.fault_model = model::FaultModel{lambda, false};
  return config;
}

// --- TaskGraph validation and analysis -----------------------------------

TEST(TaskGraph, ValidationRules) {
  TaskGraph empty;
  empty.period = 100.0;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  TaskGraph no_period;
  no_period.add_node(node("a", 10.0));
  EXPECT_THROW(no_period.validate(), std::invalid_argument);

  TaskGraph dup;
  dup.period = 100.0;
  dup.add_node(node("a", 10.0));
  dup.add_node(node("a", 20.0));
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  TaskGraph bad_cycles;
  bad_cycles.period = 100.0;
  bad_cycles.add_node(node("a", 0.0));
  EXPECT_THROW(bad_cycles.validate(), std::invalid_argument);

  TaskGraph self_edge;
  self_edge.period = 100.0;
  self_edge.add_node(node("a", 10.0));
  self_edge.edges.push_back({0, 0});
  EXPECT_THROW(self_edge.validate(), std::invalid_argument);

  TaskGraph bad_resource;
  bad_resource.period = 100.0;
  GraphNode needs = node("a", 10.0);
  needs.resources.push_back(3);  // no such resource
  bad_resource.add_node(needs);
  EXPECT_THROW(bad_resource.validate(), std::invalid_argument);

  TaskGraph dup_ref;
  dup_ref.period = 100.0;
  const std::size_t r = dup_ref.add_resource("bus");
  GraphNode twice = node("a", 10.0);
  twice.resources.push_back(r);
  twice.resources.push_back(r);
  dup_ref.add_node(twice);
  EXPECT_THROW(dup_ref.validate(), std::invalid_argument);

  TaskGraph bad_capacity;
  bad_capacity.period = 100.0;
  bad_capacity.add_node(node("a", 10.0));
  bad_capacity.resources.push_back({"bus", 0});
  EXPECT_THROW(bad_capacity.validate(), std::invalid_argument);

  EXPECT_NO_THROW(chain_graph().validate());
  EXPECT_NO_THROW(diamond_graph().validate());
}

TEST(TaskGraph, CycleErrorNamesThePath) {
  TaskGraph graph;
  graph.period = 100.0;
  graph.add_node(node("a", 10.0));
  graph.add_node(node("b", 10.0));
  graph.add_edge("a", "b");
  graph.add_edge("b", "a");
  try {
    graph.validate();
    FAIL() << "cycle not detected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("a -> b -> a"), std::string::npos) << what;
  }
}

TEST(TaskGraph, UnknownEdgeNameThrows) {
  TaskGraph graph;
  graph.period = 100.0;
  graph.add_node(node("a", 10.0));
  EXPECT_THROW(graph.add_edge("a", "nope"), std::invalid_argument);
  EXPECT_THROW(graph.node_index("nope"), std::invalid_argument);
}

TEST(TaskGraph, TopologicalOrderAndCriticalPath) {
  const TaskGraph diamond = diamond_graph();
  const auto order = diamond.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], diamond.node_index("split"));
  // Among simultaneously ready nodes the smallest index first.
  EXPECT_EQ(order[1], diamond.node_index("left"));
  EXPECT_EQ(order[2], diamond.node_index("right"));
  EXPECT_EQ(order[3], diamond.node_index("join"));

  // Longest path: split -> left -> join.
  EXPECT_DOUBLE_EQ(diamond.critical_path_cycles(), 6'500.0);
  const auto downstream = diamond.downstream_path_cycles();
  EXPECT_DOUBLE_EQ(downstream[diamond.node_index("split")], 6'500.0);
  EXPECT_DOUBLE_EQ(downstream[diamond.node_index("left")], 5'000.0);
  EXPECT_DOUBLE_EQ(downstream[diamond.node_index("right")], 4'500.0);
  EXPECT_DOUBLE_EQ(downstream[diamond.node_index("join")], 1'000.0);

  EXPECT_DOUBLE_EQ(chain_graph().critical_path_cycles(), 10'000.0);
}

TEST(TaskGraph, ImplicitDeadlineEqualsPeriod) {
  TaskGraph graph;
  graph.period = 500.0;
  EXPECT_DOUBLE_EQ(graph.end_to_end_deadline(), 500.0);
  graph.deadline = 400.0;
  EXPECT_DOUBLE_EQ(graph.end_to_end_deadline(), 400.0);
}

// --- scheduler registry --------------------------------------------------

TEST(SchedulerRegistry, KnownNamesAndFactories) {
  const auto names = sched::known_schedulers();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(sched::is_known_scheduler("edf"));
  EXPECT_TRUE(sched::is_known_scheduler("fifo"));
  EXPECT_TRUE(sched::is_known_scheduler("critical-path"));
  EXPECT_TRUE(sched::is_known_scheduler("least-laxity"));
  EXPECT_FALSE(sched::is_known_scheduler("edff"));
  for (const auto& name : names) {
    const auto policy = sched::make_scheduler(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
  for (const auto& info : sched::known_scheduler_info()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
  EXPECT_THROW(sched::make_scheduler("edff"), std::invalid_argument);
}

TEST(SchedulerRegistry, PriorityKeysOrderCandidates) {
  sched::DispatchCandidate urgent;
  urgent.ready_time = 5.0;
  urgent.absolute_deadline = 100.0;
  urgent.remaining_path = 50.0;
  sched::DispatchCandidate relaxed;
  relaxed.ready_time = 1.0;
  relaxed.absolute_deadline = 900.0;
  relaxed.remaining_path = 10.0;

  const auto edf = sched::make_scheduler("edf");
  EXPECT_LT(edf->priority_key(urgent, 10.0), edf->priority_key(relaxed, 10.0));
  const auto fifo = sched::make_scheduler("fifo");
  EXPECT_LT(fifo->priority_key(relaxed, 10.0),
            fifo->priority_key(urgent, 10.0));
  const auto cp = sched::make_scheduler("critical-path");
  EXPECT_LT(cp->priority_key(urgent, 10.0), cp->priority_key(relaxed, 10.0));
  const auto laxity = sched::make_scheduler("least-laxity");
  // urgent: (100 - 10) - 50 = 40; relaxed: (900 - 10) - 10 = 880.
  EXPECT_DOUBLE_EQ(laxity->priority_key(urgent, 10.0), 40.0);
  EXPECT_DOUBLE_EQ(laxity->priority_key(relaxed, 10.0), 880.0);
}

// --- periodic task sets: own-period nodes --------------------------------

/// A periodic task: an edge-free node with its own release stream.
GraphNode periodic(const char* name, double cycles, double period,
                   const char* policy = "A_D_S", int k = 3) {
  GraphNode n = node(name, cycles, k);
  n.period = period;
  n.policy = policy;
  return n;
}

/// A task set simulated over [0, horizon): one whole window, so the
/// default config (one instance, one worker) runs it.
TaskGraph task_set(std::vector<GraphNode> tasks, double horizon) {
  TaskGraph graph;
  graph.period = horizon;
  for (auto& task : tasks) graph.add_node(std::move(task));
  return graph;
}

/// The control example's three tasks (examples/control_taskset.cpp).
TaskGraph control_task_set(const char* policy) {
  GraphNode attitude = periodic("attitude", 2'600.0, 10'000.0, policy, 4);
  attitude.deadline = 6'000.0;
  GraphNode navigation = periodic("navigation", 3'000.0, 20'000.0, policy, 4);
  GraphNode telemetry = periodic("telemetry", 4'000.0, 40'000.0, policy, 4);
  telemetry.phase = 5'000.0;
  return task_set({attitude, navigation, telemetry}, 400'000.0);
}

TaskGraph overload_pair(double horizon) {
  return task_set({periodic("a", 800.0, 1'000.0, "k-f-t"),
                   periodic("b", 800.0, 1'000.0, "k-f-t")},
                  horizon);
}

TEST(TaskGraph, OwnPeriodValidationRules) {
  const auto single = [](GraphNode n) { return task_set({n}, 1'000.0); };
  GraphNode bad = periodic("a", 10.0, -100.0);
  EXPECT_THROW(single(bad).validate(), std::invalid_argument);
  bad = periodic("a", 10.0, 100.0);
  bad.deadline = 200.0;  // > period
  EXPECT_THROW(single(bad).validate(), std::invalid_argument);
  bad = periodic("a", 10.0, 100.0);
  bad.phase = -1.0;
  EXPECT_THROW(single(bad).validate(), std::invalid_argument);
  // A deadline or phase means nothing without a node period.
  bad = node("a", 10.0);
  bad.deadline = 50.0;
  EXPECT_THROW(single(bad).validate(), std::invalid_argument);
  bad = node("a", 10.0);
  bad.phase = 5.0;
  EXPECT_THROW(single(bad).validate(), std::invalid_argument);

  // An own-period node takes no edge, in either direction.
  TaskGraph edged = task_set({periodic("p", 10.0, 100.0), node("g", 10.0)},
                             1'000.0);
  edged.add_edge("g", "p");
  EXPECT_THROW(edged.validate(), std::invalid_argument);
  edged.edges.clear();
  edged.add_edge("p", "g");
  try {
    edged.validate();
    FAIL() << "edge on an own-period node accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("own period"), std::string::npos)
        << e.what();
  }

  GraphNode ok = periodic("a", 10.0, 100.0);
  ok.deadline = 100.0;
  ok.phase = 250.0;
  EXPECT_NO_THROW(single(ok).validate());
  EXPECT_DOUBLE_EQ(periodic("a", 10.0, 100.0).relative_deadline(), 100.0);
  EXPECT_DOUBLE_EQ(ok.relative_deadline(), 100.0);
}

TEST(GraphExecutive, PeriodicNodesMatchFlatExecutiveFaultFree) {
  // Expected values recorded from the flat periodic executive that
  // own-period nodes replaced, fault-free so the job seeds play no
  // part: the schedules must agree exactly.
  struct Task {
    int released, completed, missed, skipped;
    double response_mean, response_max, energy;
  };
  struct Pinned {
    const char* label;
    TaskGraph graph;
    const char* scheduler;
    bool skip_late_jobs;
    std::vector<Task> tasks;
    double total_energy;
    double busy_time;
  };
  GraphNode phased = periodic("ctl", 100.0, 1'000.0);
  phased.phase = 2'500.0;
  const std::vector<Task> control = {
      {40, 40, 0, 0, 0x1.a730000000001p+11, 0x1.0c2p+12, 0x1.e1ep+18},
      {20, 20, 0, 0, 0x1.9d4p+12, 0x1.9d4p+12, 0x1.13ap+18},
      {10, 10, 0, 0, 0x1.83ep+12, 0x1.83ep+12, 0x1.66e8p+17}};
  const std::vector<Pinned> pinned = {
      {"control edf", control_task_set("A_D_S"), "edf", true, control,
       0x1.d47ap+19, 0x1.d47ap+17},
      {"control fifo", control_task_set("A_D_S"), "fifo", true, control,
       0x1.d47ap+19, 0x1.d47ap+17},
      {"overload skip", overload_pair(20'000.0), "edf", true,
       {{20, 0, 20, 0, 0, 0, 0x1.3cddaadde2aafp+16},
        {20, 0, 20, 20, 0, 0, 0x0p+0}},
       0x1.3cddaadde2aafp+16, 0x1.388p+14},
      {"overload no skip", overload_pair(20'000.0), "edf", false,
       {{20, 0, 20, 0, 0, 0, 0x1.3cddaadde2aafp+16},
        {20, 0, 20, 0, 0, 0, 0x1.ecf8892c6eef6p+12}},
       0x1.5bad3370a99a2p+16, 0x1.3880000000113p+14},
      {"phase", task_set({phased}, 10'000.0), "edf", true,
       {{8, 8, 0, 0, 0x1.78p+7, 0x1.78p+7, 0x1.78p+12}},
       0x1.78p+12, 0x1.78p+10},
  };
  for (const auto& pin : pinned) {
    SCOPED_TRACE(pin.label);
    auto config = quiet_config();
    config.seed = 0xC0DE;
    config.scheduler = pin.scheduler;
    config.skip_late_jobs = pin.skip_late_jobs;
    const auto result = run_graph_executive(pin.graph, config);
    ASSERT_EQ(result.per_node.size(), pin.tasks.size());
    for (std::size_t n = 0; n < pin.tasks.size(); ++n) {
      const auto& got = result.per_node[n];
      const auto& want = pin.tasks[n];
      SCOPED_TRACE(pin.graph.nodes[n].name);
      EXPECT_EQ(got.released, want.released);
      EXPECT_EQ(got.completed, want.completed);
      EXPECT_EQ(got.missed, want.missed);
      EXPECT_EQ(got.skipped, want.skipped);
      if (want.completed > 0) {
        EXPECT_EQ(got.response_time.mean(), want.response_mean);
        EXPECT_EQ(got.response_time.max(), want.response_max);
      } else {
        EXPECT_TRUE(got.response_time.empty());
      }
      EXPECT_EQ(got.energy, want.energy);
    }
    EXPECT_EQ(result.total_energy, pin.total_energy);
    EXPECT_EQ(result.busy_time, pin.busy_time);
  }
}

TEST(GraphExecutive, OwnPeriodNodeMatchesGraphPeriodNode) {
  // One node released on its own period or with a graph of that period
  // sees the same window, deadlines, admission order and job seeds
  // (derive_seed(seed, k * nodes + node) with k its job number), so
  // the two schedules agree bit for bit, faults included.
  GraphNode alone = node("ctl", 700.0, 3);
  alone.policy = "k-f-t";
  TaskGraph graph_released;
  graph_released.period = 1'000.0;
  graph_released.add_node(alone);
  const TaskGraph own_released =
      task_set({periodic("ctl", 700.0, 1'000.0, "k-f-t")}, 1'000.0);

  auto config = quiet_config(2e-3);
  config.instances = 50;
  const auto a = run_graph_executive(graph_released, config);
  const auto b = run_graph_executive(own_released, config);
  EXPECT_EQ(a.instances_released, 50);
  EXPECT_EQ(b.instances_released, 50);
  EXPECT_GT(a.instances_missed, 0);
  EXPECT_EQ(a.instances_missed, b.instances_missed);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.per_node[0].response_time.mean(),
            b.per_node[0].response_time.mean());
}

TEST(GraphExecutive, OwnPeriodNodesBesideAGraph) {
  // A two-node chain released with the graph every 4000, beside a
  // periodic node every 1000: each own-period job is a one-node
  // instance of its own, and only the graph-period nodes join the
  // whole-graph instances.
  TaskGraph graph;
  graph.period = 4'000.0;
  graph.deadline = 3'000.0;
  graph.add_node(node("head", 400.0));
  graph.add_node(periodic("tick", 100.0, 1'000.0));
  graph.add_node(node("tail", 400.0));
  graph.add_edge("head", "tail");
  auto config = quiet_config();
  config.instances = 3;  // window [0, 12000)
  const auto result = run_graph_executive(graph, config);
  EXPECT_EQ(result.per_node[graph.node_index("head")].released, 3);
  EXPECT_EQ(result.per_node[graph.node_index("tail")].released, 3);
  EXPECT_EQ(result.per_node[graph.node_index("tick")].released, 12);
  EXPECT_EQ(result.instances_released, 3 + 12);
  EXPECT_EQ(result.instances_completed, 3 + 12);
  // Precedence still holds inside the whole-graph instances.
  EXPECT_LT(result.per_node[graph.node_index("head")].response_time.max(),
            result.per_node[graph.node_index("tail")].response_time.min());
}

TEST(PeriodicNodes, SingleTaskFaultFreeCompletesEveryJob) {
  const auto graph = task_set({periodic("ctl", 400.0, 1'000.0)}, 10'000.0);
  const auto result = run_graph_executive(graph, quiet_config());
  EXPECT_EQ(result.per_node[0].released, 10);
  EXPECT_EQ(result.per_node[0].completed, 10);
  EXPECT_EQ(result.per_node[0].missed, 0);
  EXPECT_EQ(result.per_node[0].response_time.count(), 10u);
  EXPECT_EQ(result.instances_completed, 10);
  EXPECT_GT(result.total_energy, 0.0);
}

TEST(PeriodicNodes, PhaseDelaysFirstRelease) {
  GraphNode task = periodic("ctl", 100.0, 1'000.0);
  task.phase = 2'500.0;
  const auto result =
      run_graph_executive(task_set({task}, 10'000.0), quiet_config());
  EXPECT_EQ(result.per_node[0].released, 8);  // 2500, 3500, ..., 9500
  // The last job starts at its 9500 release, so the makespan is 9500
  // plus one job's service time.
  EXPECT_DOUBLE_EQ(result.makespan,
                   9'500.0 + result.busy_time / 8.0);
  // A window that ends at the phase releases nothing.
  const auto empty =
      run_graph_executive(task_set({task}, 2'500.0), quiet_config());
  EXPECT_EQ(empty.per_node[0].released, 0);
  EXPECT_EQ(empty.instances_released, 0);
}

TEST(PeriodicNodes, EdfPicksEarliestDeadlineWhereFifoKeepsAdmissionOrder) {
  // Both release at 0: edf runs "tight" first (deadline 1000 < 4000),
  // fifo keeps admission order (release, node index): "loose" first.
  // The first job runs from 0, so its response is one service time;
  // the other waits for it.
  const auto graph = task_set({periodic("loose", 200.0, 4'000.0),
                               periodic("tight", 200.0, 1'000.0)},
                              4'000.0);
  auto config = quiet_config();
  config.scheduler = "edf";
  const auto edf = run_graph_executive(graph, config);
  EXPECT_LT(edf.per_node[1].response_time.max(),
            edf.per_node[0].response_time.min());

  config.scheduler = "fifo";
  const auto fifo = run_graph_executive(graph, config);
  EXPECT_LT(fifo.per_node[0].response_time.max(),
            fifo.per_node[1].response_time.max());
  EXPECT_DOUBLE_EQ(fifo.per_node[1].response_time.max(),
                   edf.per_node[0].response_time.min());
}

TEST(PeriodicNodes, SimultaneousReleaseDeadlineTieBreaksByNodeIndex) {
  // Identical periods and deadlines: every policy key ties, so the
  // admission sequence (release, then node index) decides: node 0
  // runs first in every period and never waits.
  const auto graph = task_set({periodic("b_second", 100.0, 1'000.0),
                               periodic("a_first", 100.0, 1'000.0)},
                              2'000.0);
  for (const auto& scheduler : sched::known_schedulers()) {
    auto config = quiet_config();
    config.scheduler = scheduler;
    const auto result = run_graph_executive(graph, config);
    SCOPED_TRACE(scheduler);
    ASSERT_EQ(result.per_node[0].completed, 2);
    ASSERT_EQ(result.per_node[1].completed, 2);
    EXPECT_LT(result.per_node[0].response_time.max(),
              result.per_node[1].response_time.min());
  }
}

TEST(PeriodicNodes, NonPreemptiveBlockingDelaysButMeetsDeadlines) {
  // A long job blocks a short one; with enough slack both complete.
  GraphNode short_task = periodic("short", 100.0, 2'000.0);
  short_task.phase = 10.0;  // releases just after the long job starts
  const auto result = run_graph_executive(
      task_set({periodic("long", 900.0, 4'000.0), short_task}, 4'000.0),
      quiet_config());
  for (const auto& stats : result.per_node) EXPECT_EQ(stats.missed, 0);
  // The short job's response time includes the blocking.
  EXPECT_GT(result.per_node[1].response_time.max(), 900.0);
}

TEST(PeriodicNodes, OverloadProducesMissesAndSkips) {
  // Utilization ~ 1.6: the executive must fall behind and skip jobs.
  const auto result =
      run_graph_executive(overload_pair(20'000.0), quiet_config());
  EXPECT_GT(result.per_node[0].missed + result.per_node[1].missed, 0);
  EXPECT_GT(result.per_node[0].skipped + result.per_node[1].skipped, 0);
}

TEST(PeriodicNodes, SkipLateJobsOffStartsThemAnyway) {
  auto config = quiet_config();
  config.skip_late_jobs = false;
  const auto result = run_graph_executive(overload_pair(10'000.0), config);
  for (const auto& stats : result.per_node) EXPECT_EQ(stats.skipped, 0);
}

TEST(PeriodicNodes, FaultsCauseMissesAtHighLoad) {
  const auto graph =
      task_set({periodic("ctl", 700.0, 1'000.0, "k-f-t")}, 50'000.0);
  const auto clean = run_graph_executive(graph, quiet_config(0.0));
  const auto faulty = run_graph_executive(graph, quiet_config(2e-3));
  EXPECT_EQ(clean.per_node[0].missed, 0);
  EXPECT_GT(faulty.per_node[0].missed, clean.per_node[0].missed);
  EXPECT_GT(faulty.instance_miss_ratio(), 0.0);
}

TEST(PeriodicNodes, AdaptiveSchemeBeatsFixedUnderFaults) {
  const double lambda = 1.6e-3;
  const auto fixed = run_graph_executive(
      task_set({periodic("ctl", 700.0, 1'000.0, "k-f-t")}, 50'000.0),
      quiet_config(lambda));
  const auto adaptive = run_graph_executive(
      task_set({periodic("ctl", 700.0, 1'000.0, "A_D_S")}, 50'000.0),
      quiet_config(lambda));
  EXPECT_LT(adaptive.instance_miss_ratio(), fixed.instance_miss_ratio());
}

TEST(PeriodicNodes, DeterministicPerSeed) {
  const auto graph = task_set({periodic("a", 400.0, 1'000.0),
                               periodic("b", 700.0, 3'000.0)},
                              30'000.0);
  auto config = quiet_config(1e-3);
  const auto r1 = run_graph_executive(graph, config);
  const auto r2 = run_graph_executive(graph, config);
  EXPECT_EQ(r1.total_energy, r2.total_energy);
  EXPECT_EQ(r1.instances_released, r2.instances_released);
  config.seed += 1;
  const auto r3 = run_graph_executive(graph, config);
  EXPECT_NE(r1.total_energy, r3.total_energy);
}

TEST(PeriodicNodes, ConfigValidation) {
  const auto graph = task_set({periodic("a", 10.0, 100.0)}, 100.0);
  auto config = quiet_config();
  config.instances = 0;  // an empty window
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
  config = quiet_config();
  config.speed_ratio = 1.0;
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
  config = quiet_config();
  config.scheduler = "round-robin";
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
}

TEST(PeriodicNodes, EnergyAccountingConsistent) {
  const auto graph = task_set({periodic("a", 400.0, 1'000.0),
                               periodic("b", 300.0, 2'000.0)},
                              10'000.0);
  const auto result = run_graph_executive(graph, quiet_config(1e-3));
  EXPECT_NEAR(result.per_node[0].energy + result.per_node[1].energy,
              result.total_energy, 1e-6);
  EXPECT_GT(result.per_node[1].energy, 0.0);
}

// --- graph executive -----------------------------------------------------

TEST(GraphExecutive, ChainCompletesInPrecedenceOrder) {
  const TaskGraph graph = chain_graph();
  auto config = quiet_config();
  config.instances = 4;
  const auto result = run_graph_executive(graph, config);
  EXPECT_EQ(result.instances_released, 4);
  EXPECT_EQ(result.instances_completed, 4);
  EXPECT_EQ(result.instances_missed, 0);
  EXPECT_GT(result.total_energy, 0.0);
  EXPECT_DOUBLE_EQ(result.total_blocking, 0.0);
  // Response times accumulate down the chain.
  const auto& nodes = result.per_node;
  EXPECT_LT(nodes[graph.node_index("fetch")].response_time.mean(),
            nodes[graph.node_index("decode")].response_time.mean());
  EXPECT_LT(nodes[graph.node_index("decode")].response_time.mean(),
            nodes[graph.node_index("process")].response_time.mean());
  EXPECT_LT(nodes[graph.node_index("process")].response_time.mean(),
            nodes[graph.node_index("commit")].response_time.mean());
  // Completed instances all met the end-to-end deadline.
  EXPECT_LE(result.end_to_end.max(), graph.end_to_end_deadline());
}

TEST(GraphExecutive, ContentionBlocksAndIsAccountedSeparately) {
  auto config = quiet_config();
  config.instances = 3;
  config.workers = 2;

  const auto contended = run_graph_executive(diamond_graph(1), config);
  EXPECT_EQ(contended.instances_missed, 0);
  EXPECT_GT(contended.total_blocking, 0.0);
  // Exactly one of left/right waits per instance (the bus holder never
  // blocks), and blocking is not execution: busy time stays the sum of
  // node service times either way.
  const auto uncontended = run_graph_executive(diamond_graph(2), config);
  EXPECT_DOUBLE_EQ(uncontended.total_blocking, 0.0);
  EXPECT_NEAR(contended.busy_time, uncontended.busy_time, 1e-6);
  EXPECT_GT(contended.makespan, uncontended.makespan);
}

/// "hog" (6000 cycles) can never meet the 2000 deadline even at f2;
/// "quick" waits on the bus hog holds.
TaskGraph hog_and_quick_graph() {
  TaskGraph graph;
  graph.period = 2'500.0;
  graph.deadline = 2'000.0;
  const std::size_t bus = graph.add_resource("bus");
  GraphNode hog = node("hog", 6'000.0);
  hog.resources.push_back(bus);
  graph.add_node(hog);
  GraphNode quick = node("quick", 500.0);
  quick.resources.push_back(bus);
  graph.add_node(quick);
  return graph;
}

TEST(GraphExecutive, SkipLateAbandonsBlockedInstances) {
  // The adaptive policy predicts hog's guaranteed miss and aborts it at
  // dispatch, abandoning the instance while "quick" is still blocked
  // on the bus hog acquired: the blocked node must be skipped exactly
  // once, without executing, and its worker freed for the next
  // release.  Fully deterministic at lambda = 0.
  const TaskGraph graph = hog_and_quick_graph();
  auto config = quiet_config();
  config.workers = 2;
  config.instances = 2;
  const auto skipping = run_graph_executive(graph, config);
  EXPECT_EQ(skipping.instances_released, 2);
  EXPECT_EQ(skipping.instances_missed, 2);
  EXPECT_EQ(skipping.instances_completed, 0);
  const auto& hog_stats = skipping.per_node[graph.node_index("hog")];
  const auto& quick_stats = skipping.per_node[graph.node_index("quick")];
  EXPECT_EQ(hog_stats.skipped, 0);  // dispatched (and aborted) both times
  EXPECT_EQ(hog_stats.missed, 2);
  EXPECT_EQ(quick_stats.skipped, 2);  // abandoned while blocked, never ran
  EXPECT_EQ(quick_stats.missed, 2);
  EXPECT_EQ(quick_stats.completed, 0);
  EXPECT_TRUE(quick_stats.blocking_time.empty());
  EXPECT_TRUE(skipping.end_to_end.empty());

  // A failed node abandons its instance regardless of skip_late_jobs
  // (the flag only governs late dispatch/acquisition), so the blocked
  // node is skipped either way — pinned so the semantics stay put.
  config.skip_late_jobs = false;
  const auto no_skip_flag = run_graph_executive(graph, config);
  EXPECT_EQ(no_skip_flag.instances_missed, 2);
  EXPECT_EQ(no_skip_flag.per_node[graph.node_index("quick")].skipped, 2);
}

TEST(GraphExecutive, DeterministicPerSeed) {
  const TaskGraph graph = diamond_graph();
  auto config = quiet_config(1e-3);
  config.instances = 4;
  config.workers = 2;
  const auto r1 = run_graph_executive(graph, config);
  const auto r2 = run_graph_executive(graph, config);
  EXPECT_DOUBLE_EQ(r1.total_energy, r2.total_energy);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.instances_completed, r2.instances_completed);
  config.seed += 1;
  const auto r3 = run_graph_executive(graph, config);
  EXPECT_NE(r1.total_energy, r3.total_energy);
}

TEST(GraphExecutive, PolicyPairMissRatesDiffer) {
  // Fault-free, so the separation is purely the dispatch order: the
  // ready-order policies (edf ties on the shared instance deadline and
  // falls back to admission order, like fifo) run the four short jobs
  // first and starve the critical chain past the deadline; the
  // path-aware policies start the chain immediately and meet it.
  const TaskGraph graph = chain_vs_shorts_graph();
  auto config = quiet_config();
  config.instances = 4;
  config.workers = 2;

  config.scheduler = "fifo";
  const auto fifo = run_graph_executive(graph, config);
  config.scheduler = "edf";
  const auto edf = run_graph_executive(graph, config);
  config.scheduler = "critical-path";
  const auto cp = run_graph_executive(graph, config);
  config.scheduler = "least-laxity";
  const auto laxity = run_graph_executive(graph, config);

  EXPECT_EQ(cp.instances_missed, 0);
  EXPECT_EQ(laxity.instances_missed, 0);
  EXPECT_EQ(fifo.instances_missed, 4);
  EXPECT_EQ(edf.instances_missed, 4);
  EXPECT_GT(fifo.instance_miss_ratio(), cp.instance_miss_ratio());
}

TEST(GraphExecutive, ValidationRejectsBadConfig) {
  const TaskGraph graph = chain_graph();
  auto config = quiet_config();
  config.workers = 0;
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
  config = quiet_config();
  config.scheduler = "nope";
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
  config = quiet_config();
  config.instances = 0;
  EXPECT_THROW(run_graph_executive(graph, config), std::invalid_argument);
  // An unknown node policy fails when the executive is built, before
  // any release, naming the node: also for a node that never executes
  // ("quick" is always skipped while blocked behind the aborted hog).
  TaskGraph bogus = hog_and_quick_graph();
  bogus.nodes[bogus.node_index("quick")].policy = "bogus";
  config = quiet_config();
  config.workers = 2;
  config.instances = 2;
  try {
    sched::GraphExecutive executive(bogus, config);
    FAIL() << "unknown node policy accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node \"quick\""),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(run_graph_executive(bogus, config), std::invalid_argument);
  // An invalid environment is caught by validate(), before any release
  // reaches the telemetry.
  config = quiet_config();
  config.environment = model::FaultEnvironment::weibull(-1.0);
  try {
    config.validate();
    FAIL() << "invalid environment accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FaultEnvironment"),
              std::string::npos)
        << e.what();
  }
}

/// One node per checkpointing scheme family: two sensors feed a fused
/// estimate that drives a planner and an actuator, beside a logger.
TaskGraph mixed_policy_graph() {
  TaskGraph graph;
  graph.period = 20'000.0;
  graph.deadline = 12'000.0;
  const auto with_policy = [](GraphNode n, const char* policy) {
    n.policy = policy;
    return n;
  };
  graph.add_node(with_policy(node("sense", 3'000.0), "A_D_S"));
  graph.add_node(with_policy(node("filter", 2'500.0), "A_D_C"));
  graph.add_node(with_policy(node("fuse", 3'500.0, 3), "A_D_S-est"));
  graph.add_node(with_policy(node("plan", 2'000.0), "A_D"));
  graph.add_node(with_policy(node("log", 1'500.0), "k-f-t"));
  graph.add_node(with_policy(node("act", 1'000.0), "Poisson"));
  graph.add_edge("sense", "fuse");
  graph.add_edge("filter", "fuse");
  graph.add_edge("fuse", "plan");
  graph.add_edge("plan", "act");
  return graph;
}

TEST(GraphExecutive, NodePolicyReuseKeepsEverySchedule) {
  // Pinned bit for bit, as recorded when every node job built a fresh
  // policy: a job must see the decisions a new instance would make,
  // whatever the executive keeps between the jobs of one node.  The
  // tight deadline makes the fixed-speed "act" miss in some instances.
  struct Pinned {
    const char* environment;
    double total_energy;
    long long faults;
    long long rollbacks;
    long long corrections;
    double makespan;
    double end_to_end_mean;
    std::vector<int> completed;  ///< per node, graph order
    std::vector<int> missed;
  };
  const std::vector<Pinned> pinned = {
      {"poisson", 0x1.913591c44f622p+17, 32, 30, 0, 0x1.94a8370b18877p+15,
       0x1.6d88bff8c281ep+13, {3, 3, 3, 3, 3, 2}, {0, 0, 0, 0, 0, 1}},
      {"bursty-orbit", 0x1.b055f4d04bcabp+17, 52, 44, 0, 0x1.964p+15,
       0x1.7381ed34cd544p+13, {3, 3, 3, 3, 3, 1}, {0, 0, 0, 0, 0, 2}},
  };
  const TaskGraph graph = mixed_policy_graph();
  for (const auto& pin : pinned) {
    auto config = quiet_config(6e-4);
    config.instances = 3;
    config.workers = 2;
    config.environment = model::find_environment(pin.environment);
    const auto result = run_graph_executive(graph, config);
    SCOPED_TRACE(pin.environment);
    EXPECT_EQ(result.total_energy, pin.total_energy);
    EXPECT_EQ(result.total_faults, pin.faults);
    EXPECT_EQ(result.total_rollbacks, pin.rollbacks);
    EXPECT_EQ(result.total_corrections, pin.corrections);
    EXPECT_EQ(result.makespan, pin.makespan);
    EXPECT_EQ(result.end_to_end.mean(), pin.end_to_end_mean);
    ASSERT_EQ(result.per_node.size(), pin.completed.size());
    for (std::size_t n = 0; n < result.per_node.size(); ++n) {
      EXPECT_EQ(result.per_node[n].completed, pin.completed[n]) << n;
      EXPECT_EQ(result.per_node[n].missed, pin.missed[n]) << n;
    }
  }
}

void expect_same_stats(const util::RunningStats& a,
                       const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  if (a.empty() || b.empty()) return;  // min and max are NaN
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

/// Every field of two schedules, compared exactly.
void expect_same_schedule(const sched::GraphScheduleResult& a,
                          const sched::GraphScheduleResult& b) {
  EXPECT_EQ(a.instances_released, b.instances_released);
  EXPECT_EQ(a.instances_completed, b.instances_completed);
  EXPECT_EQ(a.instances_missed, b.instances_missed);
  expect_same_stats(a.end_to_end, b.end_to_end);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.total_blocking, b.total_blocking);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.total_rollbacks, b.total_rollbacks);
  EXPECT_EQ(a.total_corrections, b.total_corrections);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t n = 0; n < a.per_node.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const auto& x = a.per_node[n];
    const auto& y = b.per_node[n];
    EXPECT_EQ(x.released, y.released);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.missed, y.missed);
    EXPECT_EQ(x.skipped, y.skipped);
    expect_same_stats(x.response_time, y.response_time);
    expect_same_stats(x.blocking_time, y.blocking_time);
    EXPECT_EQ(x.energy, y.energy);
  }
}

TEST(GraphExecutive, PreparedRunsMatchOneShotRuns) {
  // One prepared executive over a scrambled seed list with repeats must
  // give, run for run, the schedule of a fresh one-shot executive: on
  // graphs that abandon instances with blocked jobs, release own-period
  // nodes, and mix every policy family, after a traced first run.
  struct Case {
    const char* label;
    TaskGraph graph;
    GraphExecutiveConfig config;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* label, TaskGraph graph, double lambda,
                       int instances, int workers,
                       const char* environment = "poisson") {
    auto config = quiet_config(lambda);
    config.instances = instances;
    config.workers = workers;
    config.environment = model::find_environment(environment);
    cases.push_back({label, std::move(graph), config});
  };
  add("abandoned blocked jobs", hog_and_quick_graph(), 0.0, 3, 2);
  add("abandoned blocked jobs, faults", hog_and_quick_graph(), 2e-3, 3, 2);
  add("control task set", control_task_set("A_D_S"), 1.2e-3, 1, 1);
  add("control task set, bursty", control_task_set("k-f-t"), 1.2e-3, 1, 1,
      "bursty-orbit");
  add("mixed policies", mixed_policy_graph(), 6e-4, 3, 2);
  add("mixed policies, bursty", mixed_policy_graph(), 6e-4, 3, 2,
      "bursty-orbit");
  add("diamond", diamond_graph(), 1e-3, 4, 2);

  const std::vector<std::uint64_t> seeds = {5, 1, 9, 5, 3, 1, 7, 9, 2, 5};
  auto& tracer = obs::Tracer::instance();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    sched::GraphExecutive executive(c.graph, c.config);
    auto fresh = c.config;

    // A traced first run, then untraced ones on the same executive.
    tracer.clear();
    tracer.set_enabled(true);
    fresh.seed = 11;
    fresh.trace = true;
    const auto traced = executive.run(11, true);
    expect_same_schedule(traced, run_graph_executive(c.graph, fresh));
    tracer.set_enabled(false);
    tracer.clear();

    fresh.trace = false;
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      fresh.seed = seed;
      expect_same_schedule(executive.run(seed),
                           run_graph_executive(c.graph, fresh));
    }
  }
}

TEST(GraphExecutive, SimultaneousCompletionsOutOfIndexOrder) {
  // Fault-free Poisson jobs on four fifo lanes.  At t = 100, A (worker
  // 2), B (worker 0) and C (worker 1) finish together while X (worker 3)
  // runs on; the running list holds them as A, B, X, C.  Completing
  // them in worker order must remove exactly those three entries,
  // leaving X to finish once at t = 220.
  TaskGraph graph;
  graph.period = 1'000.0;
  const auto poisson = [](const char* name, double cycles) {
    GraphNode n = node(name, cycles);
    n.policy = "Poisson";
    return n;
  };
  graph.add_node(poisson("p0", 8.0));
  graph.add_node(poisson("p1", 28.0));
  graph.add_node(poisson("A", 98.0));
  graph.add_node(poisson("p3", 18.0));
  graph.add_node(poisson("B", 88.0));
  graph.add_node(poisson("X", 198.0));
  graph.add_node(poisson("C", 68.0));

  auto config = quiet_config();
  config.costs = model::CheckpointCosts{1.0, 1.0, 0.0};
  config.scheduler = "fifo";
  config.workers = 4;
  const auto result = run_graph_executive(graph, config);
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    EXPECT_EQ(result.per_node[n].completed, 1) << graph.nodes[n].name;
    EXPECT_EQ(result.per_node[n].missed, 0) << graph.nodes[n].name;
  }
  EXPECT_EQ(result.instances_completed, 1);
  EXPECT_DOUBLE_EQ(result.makespan, 220.0);
}

TEST(GraphExecutive, TelemetryOnOffByteIdentity) {
  const TaskGraph graph = diamond_graph();
  auto config = quiet_config(8e-4);
  config.instances = 3;
  config.workers = 2;
  auto& registry = obs::Registry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);
  const auto off = run_graph_executive(graph, config);
  registry.set_enabled(true);
  const auto on = run_graph_executive(graph, config);
  const std::string stats = obs::stats_json(registry.snapshot());
  registry.set_enabled(was_enabled);
  EXPECT_DOUBLE_EQ(off.total_energy, on.total_energy);
  EXPECT_DOUBLE_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.instances_completed, on.instances_completed);

  // The metered run recorded the sched counters.
  EXPECT_NE(stats.find("sched.jobs_released"), std::string::npos);
  EXPECT_NE(stats.find("sched.job_response_us"), std::string::npos);
}

TEST(GraphExecutive, TraceEmitsWorkerLaneSpans) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  const TaskGraph graph = diamond_graph();
  auto config = quiet_config();
  config.workers = 2;
  config.trace = true;
  run_graph_executive(graph, config);
  tracer.set_enabled(false);
  EXPECT_GE(tracer.event_count(), 4u);  // one span per node at least
  std::ostringstream out;
  tracer.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dag\""), std::string::npos);
  EXPECT_NE(json.find("blocked:"), std::string::npos);
  tracer.clear();
}

// --- harness bridge ------------------------------------------------------

harness::GraphExperimentSpec policy_sweep_spec() {
  harness::GraphExperimentSpec spec;
  spec.id = "chain_vs_shorts";
  spec.title = "policy separation";
  spec.graph = chain_vs_shorts_graph();
  spec.workers = 2;
  spec.instances = 4;
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.schedulers = {"fifo", "critical-path"};
  spec.lambdas = {1e-4};
  return spec;
}

TEST(GraphHarness, SweepBitIdenticalAcrossThreadCounts) {
  const auto spec = policy_sweep_spec();
  sim::MonteCarloConfig config;
  config.runs = 96;
  config.threads = 1;
  const auto serial = harness::run_sweep({}, {spec}, config);
  config.threads = 4;
  const auto parallel = harness::run_sweep({}, {spec}, config);

  harness::JsonReportOptions options;
  options.include_perf = false;
  EXPECT_EQ(harness::sweep_json(serial, options),
            harness::sweep_json(parallel, options));
}

TEST(GraphHarness, PolicyMissRateSeparationSurvivesAggregation) {
  const auto spec = policy_sweep_spec();
  sim::MonteCarloConfig config;
  config.runs = 64;
  const auto sweep = harness::run_sweep({}, {spec}, config);
  ASSERT_EQ(sweep.graph_experiments.size(), 1u);
  const auto& cells = sweep.graph_experiments[0].cells;
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].size(), 2u);
  const double p_fifo = cells[0][0].completion.proportion();
  const double p_cp = cells[0][1].completion.proportion();
  EXPECT_LT(p_fifo, 0.05);
  EXPECT_GT(p_cp, 0.95);
}

TEST(GraphHarness, GraphCellSeedsAreRowPaired) {
  // Scheduler columns of one lambda row share the cell seed, so policy
  // deltas see paired fault draws.
  sim::MonteCarloConfig config;
  const auto jobs = harness::graph_experiment_jobs(policy_sweep_spec(), config);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.seed, jobs[1].config.seed);
  EXPECT_EQ(jobs[0].config.seed, harness::graph_cell_seed(config.seed, 0));
  EXPECT_NE(harness::graph_cell_seed(config.seed, 0),
            harness::graph_cell_seed(config.seed, 1));
}

TEST(GraphHarness, JsonlStreamUsesGraphSchema) {
  const auto spec = policy_sweep_spec();
  sim::MonteCarloConfig config;
  config.runs = 32;
  std::ostringstream bytes;
  harness::JsonlCellStream stream(bytes,
                                  harness::sweep_cell_refs({}, {spec}));
  harness::SweepOptions options;
  options.observer = &stream;
  harness::run_sweep({}, {spec}, config, options);
  const std::string lines = bytes.str();
  EXPECT_EQ(stream.emitted(), 2u);
  EXPECT_NE(lines.find("\"schema\":\"adacheck-graph-cell-v1\""),
            std::string::npos);
  EXPECT_NE(lines.find("\"scheme\":\"critical-path\""), std::string::npos);
  // Graph cells carry no utilization coordinate.
  EXPECT_EQ(lines.find("utilization"), std::string::npos);
}

/// Cancels the sweep as soon as the first cell completes.
class CancelAfterFirstCell final : public sim::ISweepObserver {
 public:
  CancelAfterFirstCell(sim::CancellationToken& token) : token_(token) {}
  void on_cell_done(std::size_t, const sim::CellResult&) override {
    token_.request_stop();
  }

 private:
  sim::CancellationToken& token_;
};

TEST(GraphHarness, CancellationLeavesCleanJsonlPrefix) {
  auto spec = policy_sweep_spec();
  spec.lambdas = {1e-4, 4e-4, 8e-4};  // 6 cells
  sim::MonteCarloConfig config;
  config.runs = 64;
  config.threads = 1;
  std::ostringstream bytes;
  harness::JsonlCellStream stream(bytes,
                                  harness::sweep_cell_refs({}, {spec}));
  sim::CancellationToken token;
  CancelAfterFirstCell canceller(token);
  sim::ObserverList observers;
  observers.add(&stream).add(&canceller);
  harness::SweepOptions options;
  options.observer = &observers;
  options.cancel = &token;
  EXPECT_THROW(harness::run_sweep({}, {spec}, config, options),
               sim::SweepCancelled);

  // The stream stops at a cell boundary: every emitted line is a
  // complete, parseable graph-cell object for a contiguous prefix.
  EXPECT_GE(stream.emitted(), 1u);
  EXPECT_LT(stream.emitted(), 6u);
  std::istringstream in(bytes.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"cell\":" + std::to_string(parsed)),
              std::string::npos);
    ++parsed;
  }
  EXPECT_EQ(parsed, stream.emitted());
}

TEST(GraphHarness, MixedClassicAndGraphSweep) {
  harness::ExperimentSpec classic;
  classic.id = "classic";
  classic.title = "classic";
  classic.costs = model::CheckpointCosts::paper_scp_flavor();
  classic.deadline = 10'000.0;
  classic.fault_tolerance = 5;
  classic.schemes = {"Poisson"};
  classic.rows.push_back({0.8, 1e-3, {}});

  sim::MonteCarloConfig config;
  config.runs = 64;
  const auto sweep = harness::run_sweep({classic}, {policy_sweep_spec()},
                                        config);
  EXPECT_EQ(sweep.experiments.size(), 1u);
  EXPECT_EQ(sweep.graph_experiments.size(), 1u);
  // The report carries both sections, classic first.
  harness::JsonReportOptions options;
  options.include_perf = false;
  const std::string json = harness::sweep_json(sweep, options);
  EXPECT_NE(json.find("\"graph_experiments\""), std::string::npos);
  EXPECT_LT(json.find("\"experiments\""), json.find("\"graph_experiments\""));
}

}  // namespace
}  // namespace adacheck

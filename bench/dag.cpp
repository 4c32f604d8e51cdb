// DAG executive throughput probe: jobs/sec per scheduler policy.
//
// Runs the same chain-vs-shorts task graph (the workload behind
// scenarios/dag_policy_sweep.json) through the graph executive once
// per registered scheduler policy, repeating each executive run with
// fresh seeds, and writes BENCH_dag.json: per-policy wall clock,
// dispatched-jobs-per-second, and the miss/blocking character of the
// schedule.  CI archives it next to the sweep bench; the numbers are
// advisory — policy throughputs differ because the schedules differ,
// not only because the dispatch keys cost differently.
//
// Usage: bench_dag [--instances=N] [--repeats=R] [--seed=S]
//                  [--lambda=L] [--workers=W] [--out=BENCH_dag.json]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "model/checkpoint.hpp"
#include "sched/graph_executive.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_graph.hpp"
#include "util/cli.hpp"
#include "util/version.hpp"

namespace {

/// Three-stage critical chain racing four short independent jobs, two
/// of which contend on a capacity-1 bus — the graph where the four
/// shipped policies disagree most visibly.
adacheck::sched::TaskGraph chain_vs_shorts() {
  using adacheck::sched::GraphNode;
  adacheck::sched::TaskGraph graph;
  graph.name = "chain_vs_shorts";
  graph.period = 20'000.0;
  graph.deadline = 11'500.0;
  const auto bus = graph.add_resource("bus", 1);
  const auto node = [&](const char* name, double cycles, bool on_bus) {
    GraphNode n;
    n.name = name;
    n.cycles = cycles;
    n.fault_tolerance = 2;
    if (on_bus) n.resources.push_back(bus);
    graph.add_node(std::move(n));
  };
  node("s1", 2'000.0, false);
  node("s2", 2'000.0, true);
  node("s3", 2'000.0, true);
  node("s4", 2'000.0, false);
  node("c1", 3'000.0, false);
  node("c2", 3'000.0, false);
  node("c3", 3'000.0, false);
  graph.add_edge("c1", "c2");
  graph.add_edge("c2", "c3");
  graph.validate();
  return graph;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adacheck;
  try {
    const util::CliArgs args(
        argc, argv, {"instances", "repeats", "seed", "lambda", "workers",
                     "out"});
    const int instances = static_cast<int>(args.get_int("instances", 64));
    const int repeats = static_cast<int>(args.get_int("repeats", 50));
    const auto seed =
        static_cast<std::uint64_t>(args.get_int("seed", 0x5EED5EED));
    const double lambda = args.get_double("lambda", 1.0e-4);
    const int workers = static_cast<int>(args.get_int("workers", 2));
    const std::string out_path = args.get_string("out", "BENCH_dag.json");

    const auto graph = chain_vs_shorts();

    sched::GraphExecutiveConfig config;
    config.instances = instances;
    config.skip_late_jobs = true;
    config.workers = workers;
    config.costs = model::CheckpointCosts::paper_scp_flavor();
    config.fault_model.rate = lambda;

    struct PolicyRow {
      std::string scheduler;
      double wall_seconds = 0.0;
      double jobs_per_second = 0.0;
      long long jobs_dispatched = 0;
      double instance_miss_ratio = 0.0;
      double total_blocking = 0.0;
    };
    std::vector<PolicyRow> rows;

    using clock = std::chrono::steady_clock;
    for (const auto& name : sched::known_schedulers()) {
      config.scheduler = name;
      PolicyRow row;
      row.scheduler = name;
      double miss_sum = 0.0;
      const auto t0 = clock::now();
      for (int r = 0; r < repeats; ++r) {
        config.seed = seed + static_cast<std::uint64_t>(r);
        const auto result = sched::run_graph_executive(graph, config);
        row.jobs_dispatched += static_cast<long long>(result.instances_released)
                               * static_cast<long long>(graph.nodes.size());
        miss_sum += result.instance_miss_ratio();
        row.total_blocking += result.total_blocking;
      }
      const auto t1 = clock::now();
      row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
      row.jobs_per_second =
          row.wall_seconds > 0.0
              ? static_cast<double>(row.jobs_dispatched) / row.wall_seconds
              : 0.0;
      row.instance_miss_ratio = miss_sum / repeats;
      std::cerr << name << ": " << row.wall_seconds << " s\n";
      rows.push_back(std::move(row));
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open output file: " << out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    json.begin_object();
    json.kv("schema", "adacheck-bench-dag-v1");
    json.kv("version", util::version_string());
    json.kv("graph", graph.name);
    json.kv("nodes", graph.nodes.size());
    json.kv("workers", workers);
    json.kv("instances", instances);
    json.kv("repeats", repeats);
    json.kv("lambda", lambda);
    json.key("policies");
    json.begin_array();
    for (const auto& row : rows) {
      json.begin_object();
      json.kv("scheduler", row.scheduler);
      json.kv("wall_seconds", row.wall_seconds);
      json.kv("jobs_dispatched", row.jobs_dispatched);
      json.kv("jobs_per_second", row.jobs_per_second);
      json.kv("instance_miss_ratio", row.instance_miss_ratio);
      json.kv("total_blocking", row.total_blocking);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << "\n";
    std::cerr << "wrote " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_dag: " << e.what() << "\n";
    return 1;
  }
}

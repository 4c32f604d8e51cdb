#include "scenario/binder.hpp"

#include <utility>

#include "harness/paper_params.hpp"

namespace adacheck::scenario {

namespace {

harness::ExperimentSpec resolve_table(const std::string& name) {
  // Same source of truth as known_tables(): the builders' spec.id.
  for (auto& spec : harness::all_paper_tables()) {
    if (spec.id == name) return std::move(spec);
  }
  // Unreachable after parse_scenario validated against known_tables().
  throw ScenarioError("experiments", "unknown table \"" + name + "\"");
}

harness::ExperimentSpec build_inline(const ScenarioExperiment& exp) {
  harness::ExperimentSpec spec;
  spec.id = exp.id;
  spec.title = exp.title;
  spec.costs = exp.costs;
  spec.deadline = exp.deadline;
  spec.fault_tolerance = exp.fault_tolerance;
  spec.speed_ratio = exp.speed_ratio;
  spec.voltage.kappa = exp.voltage_kappa;
  spec.util_level = exp.util_level;
  spec.processors = exp.processors;
  spec.faults_during_overhead = exp.faults_during_overhead;
  spec.recompute_at_commit = exp.recompute_at_commit;
  spec.schemes = exp.schemes;
  if (!exp.rows.empty()) {
    for (const auto& row : exp.rows) {
      spec.rows.push_back({row.utilization, row.lambda, {}});
    }
  } else {
    for (const double utilization : exp.grid_utilization) {
      for (const double lambda : exp.grid_lambda) {
        spec.rows.push_back({utilization, lambda, {}});
      }
    }
  }
  return spec;
}

}  // namespace

std::vector<harness::GraphExperimentSpec> bind_graphs(
    const ScenarioSpec& scenario) {
  std::vector<harness::GraphExperimentSpec> specs;
  for (const auto& graph : scenario.graphs) {
    harness::GraphExperimentSpec spec;
    spec.id = graph.id;
    spec.title = graph.title;
    spec.graph = graph.graph;
    spec.workers = graph.workers;
    spec.instances = graph.instances;
    spec.skip_late_jobs = graph.skip_late_jobs;
    spec.costs = graph.costs;
    spec.speed_ratio = graph.speed_ratio;
    spec.voltage.kappa = graph.voltage_kappa;
    spec.schedulers = graph.schedulers;
    spec.lambdas = graph.lambdas;
    if (graph.environments.empty()) {
      spec.environment = graph.environment;
      specs.push_back(std::move(spec));
    } else {
      auto expanded =
          harness::graphs_with_environments({spec}, graph.environments);
      specs.insert(specs.end(), std::make_move_iterator(expanded.begin()),
                   std::make_move_iterator(expanded.end()));
    }
  }
  return specs;
}

std::vector<harness::ExperimentSpec> bind_experiments(
    const ScenarioSpec& scenario) {
  std::vector<harness::ExperimentSpec> specs;
  for (const auto& exp : scenario.experiments) {
    harness::ExperimentSpec spec =
        exp.table.empty() ? build_inline(exp) : resolve_table(exp.table);
    if (exp.environments.empty()) {
      spec.environment = exp.environment;
      specs.push_back(std::move(spec));
    } else {
      auto expanded = harness::with_environments({spec}, exp.environments);
      specs.insert(specs.end(), std::make_move_iterator(expanded.begin()),
                   std::make_move_iterator(expanded.end()));
    }
  }
  return specs;
}

sim::MonteCarloConfig monte_carlo_config(const ScenarioSpec& scenario) {
  sim::MonteCarloConfig config;
  config.runs = scenario.config.runs;
  config.seed = scenario.config.seed;
  config.validate = scenario.config.validate;
  config.threads = scenario.config.threads;
  config.budget = scenario.budget;
  if (!scenario.metrics.empty()) {
    config.metrics = sim::make_metric_suite(scenario.metrics);
  }
  return config;
}

harness::SweepResult run_scenario(const ScenarioSpec& scenario,
                                  const harness::SweepOptions& options) {
  return harness::run_sweep(bind_experiments(scenario), bind_graphs(scenario),
                            monte_carlo_config(scenario), options);
}

}  // namespace adacheck::scenario

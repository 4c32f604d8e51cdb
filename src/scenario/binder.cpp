#include "scenario/binder.hpp"

#include <iterator>

namespace adacheck::scenario {

namespace {

/// Each entry's spec in document order, crossed with its environment
/// axis by `expand` when it has one.
template <typename Spec, typename Expand>
std::vector<Spec> bind_entries(
    const std::vector<ScenarioEntry<Spec>>& entries, Expand expand) {
  std::vector<Spec> specs;
  for (const auto& entry : entries) {
    if (entry.environments.empty()) {
      specs.push_back(entry.spec);
    } else {
      auto expanded = expand({entry.spec}, entry.environments);
      specs.insert(specs.end(), std::make_move_iterator(expanded.begin()),
                   std::make_move_iterator(expanded.end()));
    }
  }
  return specs;
}

}  // namespace

std::vector<harness::ExperimentSpec> bind_experiments(
    const ScenarioSpec& scenario) {
  return bind_entries(scenario.experiments, harness::with_environments);
}

std::vector<harness::GraphExperimentSpec> bind_graphs(
    const ScenarioSpec& scenario) {
  return bind_entries(scenario.graphs, harness::graphs_with_environments);
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

}  // namespace adacheck::scenario

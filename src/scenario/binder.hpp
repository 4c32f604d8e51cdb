// Binds a parsed ScenarioSpec to the harness.  The parser already
// built every harness spec (paper tables resolved, grids expanded), so
// binding only expands environment axes via harness::with_environments
// ("id@env" naming) and lowers the config block onto a
// sim::MonteCarloConfig.
#pragma once

#include "harness/sweep.hpp"
#include "scenario/spec.hpp"

namespace adacheck::scenario {

/// The harness experiment specs a scenario describes, in document
/// order (environment axes expand in place).
std::vector<harness::ExperimentSpec> bind_experiments(
    const ScenarioSpec& spec);

/// The DAG experiment specs from the scenario's "graphs" array, in
/// document order (environment axes expand in place via
/// harness::with_environments, "id@env" naming).
std::vector<harness::GraphExperimentSpec> bind_graphs(
    const ScenarioSpec& spec);

/// The sim::MonteCarloConfig encoded by the scenario's config block,
/// including the metric suite built from the "metrics" array and the
/// run budget from the "budget" object (disabled when absent).
sim::MonteCarloConfig monte_carlo_config(const ScenarioSpec& spec);

}  // namespace adacheck::scenario

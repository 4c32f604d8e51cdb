#include "harness/experiment.hpp"

#include <stdexcept>

#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "model/task.hpp"
#include "policy/factory.hpp"
#include "util/rng.hpp"

namespace adacheck::harness {

void ExperimentSpec::validate() const {
  if (id.empty()) throw std::invalid_argument("ExperimentSpec: empty id");
  costs.validate();
  if (deadline <= 0.0)
    throw std::invalid_argument("ExperimentSpec: deadline <= 0");
  if (fault_tolerance < 0)
    throw std::invalid_argument("ExperimentSpec: k < 0");
  if (speed_ratio <= 1.0)
    throw std::invalid_argument("ExperimentSpec: speed_ratio <= 1");
  if (util_level > 1)
    throw std::invalid_argument("ExperimentSpec: util_level must be 0 or 1");
  if (processors < 2 || processors > model::kMaxProcessors) {
    throw std::invalid_argument(
        "ExperimentSpec: processors outside [2, kMaxProcessors]");
  }
  if (!model::is_known_environment(environment))
    throw std::invalid_argument("ExperimentSpec: unknown environment \"" +
                                environment + "\"");
  budget.validate();
  if (schemes.empty())
    throw std::invalid_argument("ExperimentSpec: no schemes");
  for (const auto& row : rows) {
    if (row.utilization <= 0.0 || row.lambda < 0.0) {
      throw std::invalid_argument("ExperimentSpec: bad row parameters");
    }
    if (!row.paper.empty() && row.paper.size() != schemes.size()) {
      throw std::invalid_argument(
          "ExperimentSpec: paper cells do not match schemes");
    }
  }
}

sim::SimSetup make_setup(const ExperimentSpec& spec,
                         const ExperimentRow& row) {
  auto processor = model::DvsProcessor::two_speed(spec.speed_ratio,
                                                  spec.voltage);
  const double util_freq = processor.level(spec.util_level).frequency;
  sim::SimSetup setup{
      model::task_from_utilization(row.utilization, util_freq, spec.deadline,
                                   spec.fault_tolerance, spec.id),
      spec.costs, std::move(processor),
      model::FaultModel{row.lambda, spec.faults_during_overhead,
                        spec.processors},
      model::find_environment(spec.environment)};
  return setup;
}

std::vector<ExperimentSpec> with_environments(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<std::string>& environments) {
  if (environments.empty()) {
    throw std::invalid_argument("with_environments: no environments");
  }
  std::vector<ExperimentSpec> expanded;
  expanded.reserve(specs.size() * environments.size());
  for (const auto& env : environments) {
    if (!model::is_known_environment(env)) {
      throw std::invalid_argument("with_environments: unknown environment \"" +
                                  env + "\"");
    }
    for (const auto& spec : specs) {
      ExperimentSpec copy = spec;
      copy.environment = env;
      copy.id += "@" + env;
      expanded.push_back(std::move(copy));
    }
  }
  return expanded;
}

std::uint64_t cell_seed(std::uint64_t master, std::size_t row,
                        std::size_t scheme) noexcept {
  return util::derive_seed(master, (row << 8) ^ scheme ^ 0xC311ULL);
}

std::vector<sim::CellJob> experiment_jobs(
    const ExperimentSpec& spec, const sim::MonteCarloConfig& config) {
  spec.validate();
  std::vector<sim::CellJob> jobs;
  jobs.reserve(spec.rows.size() * spec.schemes.size());
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    const auto setup = make_setup(spec, spec.rows[r]);
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      sim::MonteCarloConfig cell_config = config;
      cell_config.seed = cell_seed(config.seed, r, s);
      if (spec.budget.enabled()) cell_config.budget = spec.budget;
      jobs.push_back(
          {setup,
           policy::make_policy_factory(spec.schemes[s], spec.util_level,
                                       spec.recompute_at_commit),
           cell_config});
    }
  }
  return jobs;
}

ExperimentResult assemble_experiment(
    const ExperimentSpec& spec, const std::vector<sim::CellResult>& results,
    std::size_t offset) {
  ExperimentResult result;
  result.spec = spec;
  result.cells.reserve(spec.rows.size());
  result.metrics.reserve(spec.rows.size());
  const std::size_t width = spec.schemes.size();
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    auto& cells = result.cells.emplace_back();
    auto& metrics = result.metrics.emplace_back();
    cells.reserve(width);
    metrics.reserve(width);
    for (std::size_t s = 0; s < width; ++s) {
      const auto& cell = results[offset + r * width + s];
      cells.push_back(cell.stats);
      metrics.push_back(cell.metrics);
    }
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const sim::MonteCarloConfig& config,
                                const SweepOptions& options) {
  sim::RunCellsOptions run_options;
  run_options.threads = config.threads;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;
  const auto results =
      sim::run_cells_ex(experiment_jobs(spec, config), run_options);
  return assemble_experiment(spec, results);
}

}  // namespace adacheck::harness

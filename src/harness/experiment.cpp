#include "harness/experiment.hpp"

#include <bit>
#include <cstring>
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

std::string environment_id(const std::string& id,
                           const std::string& environment) {
  return id + "@" + environment;
}

std::uint64_t cell_seed(std::uint64_t master, std::size_t row,
                        std::size_t scheme) noexcept {
  return util::derive_seed(master, (row << 8) ^ scheme ^ 0xC311ULL);
}

namespace {

/// Appends fixed-width values and length-prefixed strings to a result
/// key, so no two different input sequences write the same bytes.
class KeyWriter {
 public:
  KeyWriter& add(double value) {
    return add(std::bit_cast<std::uint64_t>(value));
  }
  KeyWriter& add(std::uint64_t value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    key_.append(bytes, sizeof value);
    return *this;
  }
  KeyWriter& add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    key_ += text;
    return *this;
  }
  std::string take() { return std::move(key_); }

 private:
  std::string key_;
};

std::uint64_t flag(bool value) { return value ? 1 : 0; }

}  // namespace

std::string cell_result_key(const sim::SimSetup& setup,
                            const std::string& scheme,
                            std::size_t util_level, bool recompute_at_commit,
                            const sim::MonteCarloConfig& config) {
  KeyWriter key;
  // The task without its name: the name is a label no run reads.
  key.add(setup.task.cycles)
      .add(setup.task.deadline)
      .add(setup.task.period)
      .add(static_cast<std::uint64_t>(setup.task.fault_tolerance));
  // A scheme without inner checkpoints charges only the lumped CSCP
  // cost and the rollback, so t_s and t_cp enter only as their sum.
  if (policy::plans_inner_checkpoints(scheme)) {
    key.add(setup.costs.store).add(setup.costs.compare);
  } else {
    key.add(setup.costs.cscp());
  }
  key.add(setup.costs.rollback);
  key.add(static_cast<std::uint64_t>(setup.processor.num_levels()));
  for (std::size_t i = 0; i < setup.processor.num_levels(); ++i) {
    key.add(setup.processor.level(i).frequency)
        .add(setup.processor.level(i).voltage);
  }
  key.add(setup.fault_model.rate)
      .add(flag(setup.fault_model.faults_during_overhead))
      .add(static_cast<std::uint64_t>(setup.fault_model.processors));
  const auto& env = setup.environment;
  key.add(static_cast<std::uint64_t>(env.arrival))
      .add(env.shape)
      .add(flag(env.burst.enabled))
      .add(env.burst.rate_multiplier)
      .add(env.burst.mean_quiet_dwell)
      .add(env.burst.mean_burst_dwell)
      .add(env.common_cause_fraction);
  key.add(scheme)
      .add(static_cast<std::uint64_t>(util_level))
      .add(flag(recompute_at_commit));
  key.add(static_cast<std::uint64_t>(config.runs))
      .add(config.seed)
      .add(flag(config.validate))
      .add(config.budget.target_p_halfwidth)
      .add(config.budget.target_e_rel_halfwidth)
      .add(static_cast<std::uint64_t>(config.budget.min_runs))
      .add(static_cast<std::uint64_t>(config.budget.max_runs));
  const std::vector<std::string> no_metrics;
  const auto& metrics = config.metrics ? config.metrics->names() : no_metrics;
  key.add(static_cast<std::uint64_t>(metrics.size()));
  for (const auto& name : metrics) key.add(name);
  return key.take();
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
      std::string key =
          cell_result_key(setup, spec.schemes[s], spec.util_level,
                          spec.recompute_at_commit, cell_config);
      jobs.push_back(
          {setup,
           policy::make_policy_factory(spec.schemes[s], spec.util_level,
                                       spec.recompute_at_commit),
           cell_config, {}, std::move(key)});
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

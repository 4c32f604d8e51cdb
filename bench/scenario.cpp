// Fully parameterized single-cell runner — the "try your own system"
// entry point.  Everything the library models is a flag:
//
//   scenario --policy=A_D_S --utilization=0.8 --lambda=1.4e-3 --k=5
//            [--deadline=10000] [--ts=2] [--tcp=20] [--tr=0]
//            [--speed-ratio=2] [--kappa=4] [--redundancy=2]
//            [--util-level=0] [--baseline-level=0]
//            [--overhead-faults] [--runs=10000] [--seed=...]
//            [--threads=0] [--validate]
//
// Prints P, E, and the extended statistics for the one cell.
#include <iostream>

#include "policy/factory.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/tables.hpp"

int main(int argc, char** argv) {
  using namespace adacheck;
  const util::CliArgs args(
      argc, argv,
      {"policy", "utilization", "lambda", "k", "deadline", "ts", "tcp",
       "tr", "speed-ratio", "kappa", "redundancy", "util-level",
       "baseline-level", "overhead-faults", "runs", "seed", "threads",
       "validate"});

  const std::string policy = args.get_string("policy", "A_D_S");
  const double utilization = args.get_double("utilization", 0.8);
  const double lambda = args.get_double("lambda", 1.4e-3);
  const int k = static_cast<int>(args.get_int("k", 5));
  const double deadline = args.get_double("deadline", 10'000.0);
  const model::CheckpointCosts costs{args.get_double("ts", 2.0),
                                     args.get_double("tcp", 20.0),
                                     args.get_double("tr", 0.0)};
  const double speed_ratio = args.get_double("speed-ratio", 2.0);
  model::VoltageLaw law;
  law.kappa = args.get_double("kappa", 4.0);
  const int redundancy = static_cast<int>(args.get_int("redundancy", 2));
  const auto util_level =
      static_cast<std::size_t>(args.get_int("util-level", 0));
  const auto baseline_level =
      static_cast<std::size_t>(args.get_int("baseline-level", 0));

  auto processor = model::DvsProcessor::two_speed(speed_ratio, law);
  const double util_freq = processor.level(util_level).frequency;
  sim::SimSetup setup{
      model::task_from_utilization(utilization, util_freq, deadline, k),
      costs, std::move(processor),
      model::FaultModel{lambda, args.get_bool("overhead-faults", false),
                        redundancy}};

  sim::MonteCarloConfig config;
  config.runs = static_cast<int>(args.get_int("runs", 10'000));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5EED));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  config.validate = args.get_bool("validate", false);

  const auto stats = sim::run_cell(
      setup, policy::make_policy_factory(policy, baseline_level), config);

  std::cout << "scenario: " << policy << " on N=" << setup.task.cycles
            << " cycles, D=" << deadline << ", k=" << k
            << ", lambda=" << lambda << ", t_s/t_cp/t_r=" << costs.store
            << "/" << costs.compare << "/" << costs.rollback
            << ", replicas=" << redundancy << "\n\n";
  util::TextTable table({"metric", "value"});
  table.add_row({"P(timely)", util::fmt_prob(stats.probability())});
  std::string ci = "[";
  ci += util::fmt_prob(stats.completion.wilson_lo());
  ci += ", ";
  ci += util::fmt_prob(stats.completion.wilson_hi());
  ci += "]";
  table.add_row({"P 95% CI", ci});
  table.add_row({"E (successful runs)", util::fmt_energy(stats.energy())});
  table.add_row({"E (all runs)", util::fmt_energy(stats.energy_all.mean())});
  table.add_row({"finish time (mean, ok)",
                 util::fmt_fixed(stats.finish_time_success.mean(), 1)});
  table.add_row({"faults / run", util::fmt_fixed(stats.faults.mean(), 3)});
  table.add_row({"rollbacks / run", util::fmt_fixed(stats.rollbacks.mean(), 3)});
  table.add_row({"corrections / run",
                 util::fmt_fixed(stats.corrections.mean(), 3)});
  table.add_row({"high-speed cycles / run",
                 util::fmt_energy(stats.high_speed_cycles.mean())});
  table.add_row({"aborted runs", std::to_string(stats.aborted_runs)});
  if (config.validate) {
    table.add_row({"validation failures",
                   std::to_string(stats.validation_failures)});
  }
  std::cout << table;
  return 0;
}

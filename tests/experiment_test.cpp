#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include "harness/graph_experiment.hpp"
#include "harness/paper_params.hpp"

namespace adacheck::harness {
namespace {

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.id = "tiny";
  spec.title = "tiny test table";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D_S"};
  spec.rows = {
      {0.5, 1e-3, {{0.9, 30'000.0}, {0.99, 35'000.0}}},
      {0.8, 1e-3, {}},  // paper values optional
  };
  return spec;
}

TEST(Experiment, MakeSetupUsesUtilLevel) {
  auto spec = tiny_spec();
  const auto setup_f1 = make_setup(spec, spec.rows[0]);
  EXPECT_DOUBLE_EQ(setup_f1.task.cycles, 0.5 * 1.0 * 10'000.0);
  EXPECT_EQ(setup_f1.task.fault_tolerance, 5);
  EXPECT_DOUBLE_EQ(setup_f1.fault_model.rate, 1e-3);

  spec.util_level = 1;  // U defined against f2
  const auto setup_f2 = make_setup(spec, spec.rows[0]);
  EXPECT_DOUBLE_EQ(setup_f2.task.cycles, 0.5 * 2.0 * 10'000.0);
}

TEST(Experiment, RunFillsEveryCell) {
  const auto spec = tiny_spec();
  sim::MonteCarloConfig config;
  config.runs = 50;
  const auto result = run_experiment(spec, config);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& row : result.cells) {
    ASSERT_EQ(row.size(), 2u);
    for (const auto& cell : row) {
      EXPECT_EQ(cell.completion.trials(), 50u);
    }
  }
}

TEST(Experiment, CellsAreSeedDecorrelatedButReproducible) {
  const auto spec = tiny_spec();
  sim::MonteCarloConfig config;
  config.runs = 100;
  config.seed = 5;
  const auto a = run_experiment(spec, config);
  const auto b = run_experiment(spec, config);
  EXPECT_DOUBLE_EQ(a.cells[0][0].energy_all.mean(),
                   b.cells[0][0].energy_all.mean());
  // Different schemes in the same row see different fault streams.
  EXPECT_NE(a.cells[0][0].faults.mean(), a.cells[0][1].faults.mean());
}

TEST(Experiment, ValidationErrors) {
  auto spec = tiny_spec();
  spec.schemes.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = tiny_spec();
  spec.rows[0].paper.pop_back();  // mismatched width
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = tiny_spec();
  spec.util_level = 2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = tiny_spec();
  spec.rows[0].utilization = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Experiment, PaperSpecsAllValidate) {
  for (const auto& spec : all_paper_tables()) {
    EXPECT_NO_THROW(spec.validate()) << spec.id;
  }
}

TEST(Experiment, UnknownEnvironmentIsRejected) {
  auto spec = tiny_spec();
  spec.environment = "not-an-environment";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Experiment, MakeSetupResolvesTheEnvironment) {
  auto spec = tiny_spec();
  EXPECT_TRUE(make_setup(spec, spec.rows[0]).environment.plain_exponential());
  spec.environment = "bursty-orbit";
  const auto setup = make_setup(spec, spec.rows[0]);
  EXPECT_TRUE(setup.environment.burst.enabled);
  EXPECT_DOUBLE_EQ(setup.environment.burst.rate_multiplier, 12.0);
}

TEST(Experiment, WithEnvironmentsExpandsTheAxis) {
  const auto expanded = with_environments(
      std::vector{tiny_spec()}, {"poisson", "bursty-orbit", "common-cause"});
  ASSERT_EQ(expanded.size(), 3u);
  EXPECT_EQ(expanded[0].id, "tiny@poisson");
  EXPECT_EQ(expanded[0].environment, "poisson");
  EXPECT_EQ(expanded[1].id, "tiny@bursty-orbit");
  EXPECT_EQ(expanded[1].environment, "bursty-orbit");
  EXPECT_EQ(expanded[2].id, "tiny@common-cause");
  for (const auto& spec : expanded) EXPECT_NO_THROW(spec.validate());
  EXPECT_THROW(with_environments(std::vector{tiny_spec()}, {}),
               std::invalid_argument);
  EXPECT_THROW(with_environments(std::vector{tiny_spec()}, {"nope"}),
               std::invalid_argument);

  GraphExperimentSpec graph;
  graph.id = "dag";
  const auto graphs = with_environments(std::vector{graph}, {"weibull-infant"});
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].id, "dag@weibull-infant");
  EXPECT_EQ(graphs[0].environment, "weibull-infant");
}

TEST(Experiment, EnvironmentChangesResultsButKeepsPoissonBitIdentical) {
  // Same spec, same seeds: the poisson-environment sweep must equal
  // the default-environment sweep bit-for-bit, while a bursty
  // environment must actually change the injected fault process.
  const auto spec = tiny_spec();
  sim::MonteCarloConfig config;
  config.runs = 200;
  config.seed = 0xE2E;
  const auto base = run_experiment(spec, config);

  auto poisson_spec = spec;
  poisson_spec.environment = "poisson";
  const auto poisson = run_experiment(poisson_spec, config);
  EXPECT_DOUBLE_EQ(base.cells[0][1].energy_all.mean(),
                   poisson.cells[0][1].energy_all.mean());
  EXPECT_EQ(base.cells[0][1].completion.successes(),
            poisson.cells[0][1].completion.successes());

  auto bursty_spec = spec;
  bursty_spec.environment = "bursty-storm";
  const auto bursty = run_experiment(bursty_spec, config);
  EXPECT_NE(base.cells[0][1].faults.mean(), bursty.cells[0][1].faults.mean());
}

}  // namespace
}  // namespace adacheck::harness

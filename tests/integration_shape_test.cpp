// End-to-end reproduction checks: reduced-run versions of the paper's
// tables must reproduce the qualitative results (who wins, and roughly
// by how much).  The full 10,000-run tables come from
// `adacheck run scenarios/table{1..4}.json`.
#include <gtest/gtest.h>

#include <cmath>

#include "harness/paper_params.hpp"
#include "harness/report.hpp"

namespace adacheck::harness {
namespace {

ExperimentResult run_reduced(ExperimentSpec spec, int runs = 1'500) {
  sim::MonteCarloConfig config;
  config.runs = runs;
  config.seed = 20'060'306;  // DATE'06 vintage
  return run_experiment(spec, config);
}

TEST(IntegrationShape, Table1aShapeChecksPass) {
  const auto result = run_reduced(table1a());
  for (const auto& check : shape_checks(result)) {
    EXPECT_TRUE(check.passed) << check.description;
  }
}

TEST(IntegrationShape, Table2aShapeChecksPass) {
  const auto result = run_reduced(table2a());
  for (const auto& check : shape_checks(result)) {
    EXPECT_TRUE(check.passed) << check.description;
  }
}

TEST(IntegrationShape, Table3aShapeChecksPass) {
  const auto result = run_reduced(table3a());
  for (const auto& check : shape_checks(result)) {
    EXPECT_TRUE(check.passed) << check.description;
  }
}

TEST(IntegrationShape, Table4bShapeChecksPass) {
  const auto result = run_reduced(table4b());
  for (const auto& check : shape_checks(result)) {
    EXPECT_TRUE(check.passed) << check.description;
  }
}

TEST(IntegrationShape, Table1aBaselinesMatchPaperClosely) {
  // The fixed baselines are fully determined by the model; our measured
  // P should track the paper's within Monte-Carlo noise + a small
  // modeling margin.
  const auto result = run_reduced(table1a(), 2'500);
  const auto& spec = result.spec;
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    for (std::size_t s = 0; s < 2; ++s) {  // Poisson, k-f-t
      const double ours = result.cells[r][s].probability();
      const double paper = spec.rows[r].paper[s].p;
      EXPECT_NEAR(ours, paper, 0.05)
          << spec.schemes[s] << " row " << r;
    }
  }
}

TEST(IntegrationShape, Table1bNaNCellsReproduce) {
  // U = 1.00 rows: fixed baselines at f1 cannot ever finish by D.
  const auto result = run_reduced(table1b(), 500);
  const auto& cells = result.cells;
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t r = 4; r < 6; ++r) {
    EXPECT_DOUBLE_EQ(cells[r][0].probability(), 0.0);
    EXPECT_TRUE(std::isnan(cells[r][0].energy()));
    EXPECT_DOUBLE_EQ(cells[r][1].probability(), 0.0);
    // ...while the DVS schemes still succeed almost always.
    EXPECT_GT(cells[r][2].probability(), 0.9);
    EXPECT_GT(cells[r][3].probability(), 0.9);
  }
}

TEST(IntegrationShape, HighSpeedTablesEnergyWithinFewPercentOfPaper) {
  // In Table 2 all schemes' energies bunch together (~150k); ours must
  // land within 5% of the paper cell by cell.
  const auto result = run_reduced(table2a(), 1'000);
  const auto& spec = result.spec;
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const double ours = result.cells[r][s].energy();
      const double paper = spec.rows[r].paper[s].e;
      if (std::isnan(ours) || std::isnan(paper)) continue;
      EXPECT_NEAR(ours / paper, 1.0, 0.05)
          << spec.schemes[s] << " row " << r;
    }
  }
}

TEST(IntegrationShape, ProposedSchemeSavesEnergyVsAdAtLowSpeedTables) {
  // The headline energy claim (Tables 1/3): A_D_S / A_D_C use less
  // energy than A_D in every cell with both succeeding.
  for (auto spec : {table1a(), table3a()}) {
    const auto result = run_reduced(spec, 1'000);
    for (std::size_t r = 0; r < result.spec.rows.size(); ++r) {
      const double e_new = result.cells[r][3].energy();
      const double e_ad = result.cells[r][2].energy();
      ASSERT_FALSE(std::isnan(e_new));
      ASSERT_FALSE(std::isnan(e_ad));
      EXPECT_LT(e_new, e_ad) << spec.id << " row " << r;
    }
  }
}

TEST(IntegrationShape, SchemesRankConsistentlyAtHighLoad) {
  // Table 2(a) last row (U = 0.82, lambda = 1.6e-3): the paper's
  // ordering is A_D_S >> A_D > Poisson ~ k-f-t.
  const auto result = run_reduced(table2a(), 2'000);
  const auto& last = result.cells.back();
  const double p_poisson = last[0].probability();
  const double p_ad = last[2].probability();
  const double p_ads = last[3].probability();
  EXPECT_GT(p_ads, p_ad + 0.1);
  EXPECT_GE(p_ad, p_poisson - 0.02);
  EXPECT_LT(p_poisson, 0.15);
}

}  // namespace
}  // namespace adacheck::harness

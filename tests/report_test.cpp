#include "harness/report.hpp"

#include <gtest/gtest.h>

namespace adacheck::harness {
namespace {

/// Builds a synthetic two-row, paper-style result without running any
/// simulation (CellStats filled by hand).
ExperimentResult synthetic_result(double p_ads, double p_ad,
                                  double e_ads = 50'000.0,
                                  double e_ad = 55'000.0) {
  ExperimentSpec spec;
  spec.id = "synthetic";
  spec.title = "synthetic";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "k-f-t", "A_D", "A_D_S"};
  spec.rows = {{0.76,
                1.4e-3,
                {{0.10, 39'000.0},
                 {0.11, 39'000.0},
                 {0.99, 57'000.0},
                 {0.999, 53'000.0}}}};

  ExperimentResult result;
  result.spec = spec;
  auto make_cell = [](double p, double e) {
    sim::CellStats stats;
    const int runs = 1'000;
    const int ok = static_cast<int>(p * runs);
    for (int i = 0; i < runs; ++i) {
      const bool success = i < ok;
      stats.completion.add(success);
      stats.energy_all.add(e);
      if (success) {
        stats.energy_success.add(e);
        stats.finish_time_success.add(9'000.0);
      }
      stats.faults.add(3.0);
      stats.rollbacks.add(3.0);
      stats.high_speed_cycles.add(0.0);
    }
    return stats;
  };
  result.cells = {{make_cell(0.12, 39'500.0), make_cell(0.10, 39'200.0),
                   make_cell(p_ad, e_ad), make_cell(p_ads, e_ads)}};
  return result;
}

TEST(Report, RenderContainsPaperAndMeasured) {
  const auto result = synthetic_result(0.998, 0.99);
  const auto text = render_experiment(result);
  EXPECT_NE(text.find("0.9990 / 0.9980"), std::string::npos);  // A_D_S P
  EXPECT_NE(text.find("A_D_S"), std::string::npos);
  EXPECT_NE(text.find("synthetic"), std::string::npos);
}

TEST(ShapeChecks, PassOnHealthyResult) {
  const auto result = synthetic_result(/*p_ads=*/0.999, /*p_ad=*/0.99,
                                       /*e_ads=*/50'000.0,
                                       /*e_ad=*/55'000.0);
  const auto checks = shape_checks(result);
  ASSERT_FALSE(checks.empty());
  for (const auto& check : checks) {
    EXPECT_TRUE(check.passed) << check.description;
  }
}

TEST(ShapeChecks, FailWhenProposedLosesToAd) {
  const auto result = synthetic_result(/*p_ads=*/0.60, /*p_ad=*/0.99);
  const auto checks = shape_checks(result);
  EXPECT_FALSE(checks[0].passed);
}

TEST(ShapeChecks, FailWhenProposedLosesToBaselines) {
  // Proposed barely above baselines where the paper claims a big gap.
  const auto result = synthetic_result(/*p_ads=*/0.15, /*p_ad=*/0.10);
  bool any_failed = false;
  for (const auto& check : shape_checks(result)) {
    any_failed |= !check.passed;
  }
  EXPECT_TRUE(any_failed);
}

TEST(ShapeChecks, FailOnEnergyRegression) {
  // f1-table: proposed scheme burning 30% more than A_D must fail the
  // energy check.
  const auto result = synthetic_result(0.999, 0.99, /*e_ads=*/71'500.0,
                                       /*e_ad=*/55'000.0);
  bool energy_failed = false;
  for (const auto& check : shape_checks(result)) {
    if (check.description.find("energy ratio") != std::string::npos) {
      energy_failed = !check.passed;
    }
  }
  EXPECT_TRUE(energy_failed);
}

TEST(ShapeChecks, RenderedListing) {
  const auto checks = shape_checks(synthetic_result(0.999, 0.99));
  const auto text = render_shape_checks(checks);
  EXPECT_NE(text.find("[PASS]"), std::string::npos);
}

}  // namespace
}  // namespace adacheck::harness

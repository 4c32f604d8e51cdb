#include "analytic/renewal_tmr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "analytic/num_checkpoints.hpp"
#include "analytic/renewal_ccp.hpp"
#include "analytic/renewal_scp.hpp"
#include "sim/monte_carlo.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::analytic {
namespace {

TmrRenewalParams tmr_params(double interval, double lambda,
                            model::CheckpointCosts costs) {
  return TmrRenewalParams{interval, lambda, costs};
}

TEST(TmrWindowOdds, SumsToOneAndOrdersSanely) {
  for (double x : {0.0, 0.01, 0.3, 1.0, 4.0}) {
    const auto odds = tmr_window_odds(x);
    EXPECT_NEAR(odds.clean + odds.single + odds.majority_lost, 1.0, 1e-12);
    EXPECT_GE(odds.single, 0.0);
    EXPECT_GE(odds.majority_lost, 0.0);
  }
  const auto zero = tmr_window_odds(0.0);
  EXPECT_DOUBLE_EQ(zero.clean, 1.0);
  EXPECT_DOUBLE_EQ(zero.majority_lost, 0.0);
}

TEST(TmrWindowOdds, SmallExposureAsymptotics) {
  // For x << 1: P(single) ~ x, P(majority lost) ~ x^2/2 * (2/3).
  const double x = 1e-4;
  const auto odds = tmr_window_odds(x);
  EXPECT_NEAR(odds.single, x, x * 0.01);
  EXPECT_NEAR(odds.majority_lost, x * x / 3.0, x * x * 0.05);
}

TEST(TmrWindowOdds, RejectsNegativeExposure) {
  EXPECT_THROW(tmr_window_odds(-1.0), std::invalid_argument);
}

TEST(TmrRenewal, FaultFreeReducesToStraightLine) {
  const auto scp = tmr_params(100.0, 0.0,
                              model::CheckpointCosts::paper_scp_flavor());
  EXPECT_NEAR(tmr_scp_expected_time(scp, 4), 100.0 + 4.0 * 2.0 + 20.0,
              1e-9);
  const auto ccp = tmr_params(100.0, 0.0,
                              model::CheckpointCosts::paper_ccp_flavor());
  EXPECT_NEAR(tmr_ccp_expected_time(ccp, 4), 100.0 + 4.0 * 2.0 + 20.0,
              1e-9);
}

TEST(TmrRenewal, TmrNeverSlowerThanDmrAtZeroRepairCost) {
  // With t_r = 0 a vote costs nothing, so TMR expected time is bounded
  // by the DMR expected time for every (lambda, m).
  const auto costs_scp = model::CheckpointCosts::paper_scp_flavor();
  const auto costs_ccp = model::CheckpointCosts::paper_ccp_flavor();
  for (double lambda : {1e-4, 1.4e-3, 5e-3}) {
    for (int m : {1, 2, 4, 8}) {
      ScpRenewalParams dmr_scp{400.0, lambda, costs_scp};
      EXPECT_LE(
          tmr_scp_expected_time(tmr_params(400.0, lambda, costs_scp), m),
          scp_expected_time(dmr_scp, m) + 1e-9)
          << "scp lambda=" << lambda << " m=" << m;
      CcpRenewalParams dmr_ccp{400.0, lambda, costs_ccp};
      EXPECT_LE(
          tmr_ccp_expected_time(tmr_params(400.0, lambda, costs_ccp), m),
          ccp_expected_time_recursive(dmr_ccp, m) + 1e-9)
          << "ccp lambda=" << lambda << " m=" << m;
    }
  }
}

TEST(TmrRenewal, RepairCostRaisesExpectedTime) {
  auto costs = model::CheckpointCosts::paper_scp_flavor();
  const auto base = tmr_params(400.0, 2e-3, costs);
  costs.rollback = 30.0;
  const auto pricey = tmr_params(400.0, 2e-3, costs);
  EXPECT_GT(tmr_scp_expected_time(pricey, 4),
            tmr_scp_expected_time(base, 4));
  EXPECT_GT(tmr_ccp_expected_time(pricey, 4),
            tmr_ccp_expected_time(base, 4));
}

TEST(TmrRenewal, OptimalMNeedsFewerInnerCheckpointsThanDmr) {
  // Single faults are free under TMR, so the optimum protects only
  // against the much rarer double faults: m*_tmr <= m*_dmr.
  const double lambda = 4e-3;
  const auto costs = model::CheckpointCosts::paper_scp_flavor();
  ScpRenewalParams dmr{800.0, lambda, costs};
  const int m_dmr = num_scp_exhaustive(dmr);
  const int m_tmr = num_scp_tmr(tmr_params(800.0, lambda, costs));
  EXPECT_LE(m_tmr, m_dmr);
  EXPECT_GE(m_tmr, 1);
}

/// The SCP-mode recursion as first written: separate pi0/pi1/b passes
/// into fresh vectors, then G.  The reference for bit-identity.
double reference_tmr_scp(const TmrRenewalParams& params, int m) {
  const double t1 = params.interval / static_cast<double>(m);
  const double ts = params.costs.store;
  const double tcp = params.costs.compare;
  const double tr = params.costs.rollback;
  const auto odds = tmr_window_odds(params.lambda * t1);
  const double stay1 = std::exp(-2.0 * params.lambda * t1 / 3.0);
  const auto n = static_cast<std::size_t>(m) + 1;
  std::vector<double> pi0(n, 0.0), pi1(n, 0.0), b(n, 0.0), G(n, 0.0);
  pi0[0] = 1.0;
  for (std::size_t j = 1; j < n; ++j) {
    pi0[j] = pi0[j - 1] * odds.clean;
    pi1[j] = pi0[j - 1] * odds.single + pi1[j - 1] * stay1;
    b[j] = (pi0[j - 1] + pi1[j - 1]) - (pi0[j] + pi1[j]);
  }
  for (std::size_t r = 1; r < n; ++r) {
    double rhs = static_cast<double>(r) * (t1 + ts) + tcp + pi1[r] * tr;
    for (std::size_t j = 2; j <= r; ++j) rhs += b[j] * (tr + G[r - j + 1]);
    rhs += b[1] * tr;
    const double denom = 1.0 - b[1];
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    G[r] = rhs / denom;
  }
  return G[static_cast<std::size_t>(m)];
}

TEST(TmrRenewal, ScpRecursionBitIdenticalToReference) {
  for (const double rollback : {0.0, 30.0}) {
    auto costs = model::CheckpointCosts::paper_scp_flavor();
    costs.rollback = rollback;
    for (const double lambda : {0.0, 1e-4, 4e-3, 2e-2}) {
      for (const int m : {1, 2, 7, 40, 300}) {
        const auto p = tmr_params(800.0, lambda, costs);
        EXPECT_EQ(tmr_scp_expected_time(p, m), reference_tmr_scp(p, m))
            << "lambda=" << lambda << " m=" << m << " t_r=" << rollback;
      }
    }
  }
}

TEST(TmrRenewal, ValidatesArguments) {
  const auto p = tmr_params(100.0, 1e-3,
                            model::CheckpointCosts::paper_scp_flavor());
  EXPECT_THROW(tmr_scp_expected_time(p, 0), std::invalid_argument);
  EXPECT_THROW(tmr_ccp_expected_time(p, 0), std::invalid_argument);
  EXPECT_THROW(
      tmr_scp_expected_time(
          tmr_params(-1.0, 1e-3, model::CheckpointCosts::paper_scp_flavor()),
          1),
      std::invalid_argument);
}

/// Engine cross-validation: a single-interval TMR task, averaged over
/// many runs, must match the analytic expectation.
double simulated_tmr_interval(double interval, int m, double lambda,
                              const model::CheckpointCosts& costs,
                              sim::InnerKind kind, int runs) {
  sim::SimSetup setup{model::TaskSpec{interval, 1e9, 0.0, 1 << 20, "tmr"},
                      costs,
                      model::DvsProcessor({model::SpeedLevel{1.0, 2.0}}),
                      model::FaultModel{lambda, false, 3}};
  const sim::Decision plan = testutil::inner_plan(
      setup, interval, interval / static_cast<double>(m), kind);
  sim::MonteCarloConfig config;
  config.runs = runs;
  config.seed = 0x73A;
  const auto stats = sim::run_cell(
      setup,
      [plan] { return std::make_unique<testutil::ScriptedPolicy>(plan); },
      config);
  return stats.finish_time_success.mean();
}

TEST(TmrRenewal, ScpModelMatchesEngine) {
  const auto costs = model::CheckpointCosts::paper_scp_flavor();
  for (int m : {1, 3, 6}) {
    const double predicted =
        tmr_scp_expected_time(tmr_params(400.0, 4e-3, costs), m);
    const double simulated = simulated_tmr_interval(
        400.0, m, 4e-3, costs, sim::InnerKind::kScp, 60'000);
    EXPECT_NEAR(simulated / predicted, 1.0, 0.02) << "m=" << m;
  }
}

TEST(TmrRenewal, CcpModelMatchesEngine) {
  const auto costs = model::CheckpointCosts::paper_ccp_flavor();
  for (int m : {1, 3, 6}) {
    const double predicted =
        tmr_ccp_expected_time(tmr_params(400.0, 4e-3, costs), m);
    const double simulated = simulated_tmr_interval(
        400.0, m, 4e-3, costs, sim::InnerKind::kCcp, 60'000);
    EXPECT_NEAR(simulated / predicted, 1.0, 0.02) << "m=" << m;
  }
}

}  // namespace
}  // namespace adacheck::analytic

#include "policy/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analytic/dvs_estimate.hpp"
#include "analytic/interval_policy.hpp"
#include "analytic/num_checkpoints.hpp"
#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::policy {
namespace {

sim::ExecContext make_context(const sim::SimSetup& setup,
                              double remaining_cycles, double now,
                              int remaining_faults) {
  sim::ExecContext ctx;
  ctx.task = &setup.task;
  ctx.costs = &setup.costs;
  ctx.processor = &setup.processor;
  ctx.lambda = setup.fault_model.rate;
  ctx.remaining_cycles = remaining_cycles;
  ctx.now = now;
  // These fixtures treat elapsed time as fully vulnerable (the rate
  // estimator observes the exposure clock).
  ctx.exposure = now;
  ctx.remaining_faults = remaining_faults;
  return ctx;
}

TEST(AdaptivePolicy, SchemeNamesFollowPaper) {
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adt_dvs())
                .name(),
            "A_D");
  EXPECT_EQ(AdaptiveCheckpointPolicy(
                AdaptiveCheckpointPolicy::adapchp_dvs_scp())
                .name(),
            "A_D_S");
  EXPECT_EQ(AdaptiveCheckpointPolicy(
                AdaptiveCheckpointPolicy::adapchp_dvs_ccp())
                .name(),
            "A_D_C");
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adapchp_scp())
                .name(),
            "adapchp-SCP");
  EXPECT_EQ(AdaptiveCheckpointPolicy(AdaptiveCheckpointPolicy::adapchp_ccp())
                .name(),
            "adapchp-CCP");
}

TEST(AdaptivePolicy, DvsPicksHighSpeedUnderPressure) {
  // Paper Table 1(a) entry state: t_est at f1 misses the deadline.
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 2.0);
  EXPECT_FALSE(d.abort);
  EXPECT_EQ(d.inner, sim::InnerKind::kNone);
}

TEST(AdaptivePolicy, DvsDropsToLowSpeedWhenComfortable) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  // Mid-run: 4000 cycles left, 8000 time left -> f1 feasible.
  const auto d = policy.on_fault(make_context(setup, 4'000.0, 2'000.0, 4));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 1.0);
}

TEST(AdaptivePolicy, IntervalMatchesFig4) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::adt_dvs());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  // At f2: Rt = 3800, C = 11; Fig. 4 chooses I1 here (exp_error > Rf,
  // Rt below the lambda-threshold).
  const auto expected = analytic::adaptive_interval(
      10'000.0, 3'800.0, 11.0, 5, 1.4e-3);
  EXPECT_EQ(expected.rule, analytic::IntervalRule::kPoisson);
  EXPECT_NEAR(d.cscp_interval, expected.interval, 1e-9);
}

TEST(AdaptivePolicy, ScpVariantUsesNumScp) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_EQ(d.inner, sim::InnerKind::kScp);
  // sub_interval = Itv / num_SCP(Itv) with time-scaled costs at f2.
  analytic::ScpRenewalParams params;
  params.interval = d.cscp_interval;
  params.lambda = 1.4e-3;
  params.costs = {2.0 / 2.0, 20.0 / 2.0, 0.0};
  const int m = analytic::num_scp(params);
  EXPECT_NEAR(d.sub_interval, d.cscp_interval / m, 1e-9);
  EXPECT_GE(m, 1);
}

TEST(AdaptivePolicy, CcpVariantUsesNumCcp) {
  auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_ccp());
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_EQ(d.inner, sim::InnerKind::kCcp);
  EXPECT_LE(d.sub_interval, d.cscp_interval);
}

TEST(AdaptivePolicy, AbortsWhenNothingFits) {
  // Remaining work exceeds the deadline even at f2 (Fig. 6 line 6).
  const auto setup = testutil::dvs_setup(30'000.0, 10'000.0, 5, 1e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.initial(make_context(setup, 30'000.0, 0.0, 5));
  EXPECT_TRUE(d.abort);
}

TEST(AdaptivePolicy, NonDvsVariantPinsSpeed) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  auto config = AdaptiveCheckpointPolicy::adapchp_scp();
  config.fixed_level = 0;
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  EXPECT_DOUBLE_EQ(d.speed.frequency, 1.0);
  EXPECT_EQ(d.inner, sim::InnerKind::kScp);
}

TEST(AdaptivePolicy, NonDvsAbortsWhenItsSpeedCannotFit) {
  // At f1 the remaining work exceeds the deadline; without DVS the
  // Fig. 3 guard fires even though f2 would have fit.
  const auto setup = testutil::dvs_setup(11'000.0, 10'000.0, 5, 1e-4);
  auto config = AdaptiveCheckpointPolicy::adapchp_scp();
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 11'000.0, 0.0, 5));
  EXPECT_TRUE(d.abort);
}

TEST(AdaptivePolicy, OnCommitKeepsPlanByDefault) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  const auto replacement =
      policy.on_commit(make_context(setup, 7'000.0, 400.0, 5));
  EXPECT_FALSE(replacement.has_value());
}

TEST(AdaptivePolicy, OnCommitAbortsWhenHopeless) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  // 6000 cycles left but only 2000 time: even f2 cannot fit.
  const auto replacement =
      policy.on_commit(make_context(setup, 6'000.0, 8'000.0, 3));
  ASSERT_TRUE(replacement.has_value());
  EXPECT_TRUE(replacement->abort);
}

TEST(AdaptivePolicy, RecomputeAtCommitKnob) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  auto config = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
  config.recompute_at_commit = true;
  AdaptiveCheckpointPolicy policy(config);
  (void)policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  const auto replacement =
      policy.on_commit(make_context(setup, 7'000.0, 400.0, 5));
  ASSERT_TRUE(replacement.has_value());
  EXPECT_FALSE(replacement->abort);
  EXPECT_GT(replacement->cscp_interval, 0.0);
}

TEST(AdaptivePolicy, MaxInnerCapRespected) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 2e-2);
  auto config = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
  config.max_inner = 2;
  AdaptiveCheckpointPolicy policy(config);
  const auto d = policy.initial(make_context(setup, 7'600.0, 0.0, 5));
  if (!d.abort) {
    EXPECT_GE(d.sub_interval, d.cscp_interval / 2.0 - 1e-9);
  }
  EXPECT_THROW(
      AdaptiveCheckpointPolicy([] {
        auto c = AdaptiveCheckpointPolicy::adapchp_dvs_scp();
        c.max_inner = 0;
        return c;
      }()),
      std::invalid_argument);
}

TEST(AdaptivePolicy, ExhaustedFaultBudgetStillPlans) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 1, 1e-4);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  const auto d = policy.on_fault(make_context(setup, 3'000.0, 5'000.0, -1));
  EXPECT_FALSE(d.abort);
  EXPECT_GT(d.cscp_interval, 0.0);
}

TEST(AdaptivePolicy, IntervalNeverExceedsRemainingWork) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1e-4);
  AdaptiveCheckpointPolicy policy(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  for (double rc : {7'600.0, 2'000.0, 200.0, 10.0}) {
    const auto d = policy.on_fault(make_context(setup, rc, 1'000.0, 3));
    ASSERT_FALSE(d.abort);
    EXPECT_LE(d.cscp_interval, rc / d.speed.frequency + 1e-9) << rc;
  }
}

TEST(AdaptivePolicy, EstimatorNamesCarryTheSuffix) {
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  EXPECT_EQ(policy.name(), "A_D_S-est");
  EXPECT_TRUE(policy.config().estimate_rate);
}

TEST(AdaptivePolicy, EstimatorStartsAtTheNominalRate) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  // Before any time elapses there is nothing to observe: the planning
  // rate is exactly the nominal (environment-effective) lambda.
  const auto ctx = make_context(setup, 7'600.0, 0.0, 5);
  EXPECT_DOUBLE_EQ(policy.planning_lambda(ctx), 1.4e-3);
}

TEST(AdaptivePolicy, EstimatorTracksObservedGaps) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 1.4e-3);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adapchp_dvs_scp()));

  // Faults arriving much faster than nominal pull the estimate up ...
  auto stormy = make_context(setup, 5'000.0, 2'000.0, 5);
  stormy.faults_detected = 20;  // observed rate 1e-2 >> 1.4e-3
  const double up = policy.planning_lambda(stormy);
  EXPECT_GT(up, 1.4e-3);
  EXPECT_LT(up, 1e-2);  // the prior tempers the jump

  // ... and a long quiet stretch pulls it down.
  auto quiet = make_context(setup, 5'000.0, 8'000.0, 5);
  quiet.faults_detected = 0;
  EXPECT_LT(policy.planning_lambda(quiet), 1.4e-3);

  // More observations move the posterior monotonically toward the
  // observed rate (without overshooting it).
  auto heavier = stormy;
  heavier.now = 4'000.0;
  heavier.faults_detected = 40;
  const double closer = policy.planning_lambda(heavier);
  EXPECT_GT(closer, up);
  EXPECT_LT(closer, 1e-2);
}

TEST(AdaptivePolicy, EstimatorShrinksIntervalsUnderObservedStorms) {
  // The whole point of tracking: given the same nominal lambda, a
  // policy that has seen a storm plans denser checkpoints than one
  // planning blind.  An exhausted fault budget and a distant deadline
  // pin Fig. 4 to the I1 branch, whose interval sqrt(2C/lambda) is
  // strictly decreasing in the planning rate.
  const auto setup = testutil::dvs_setup(7'600.0, 400'000.0, 30, 2.0e-4);
  AdaptiveCheckpointPolicy blind(AdaptiveCheckpointPolicy::adapchp_dvs_scp());
  AdaptiveCheckpointPolicy tracking(
      AdaptiveCheckpointPolicy::with_estimator(
          AdaptiveCheckpointPolicy::adapchp_dvs_scp()));
  auto ctx = make_context(setup, 6'000.0, 3'000.0, 0);
  ctx.faults_detected = 12;  // a storm: 4e-3 observed vs 2e-4 nominal
  const auto blind_plan = blind.on_fault(ctx);
  const auto tracking_plan = tracking.on_fault(ctx);
  ASSERT_FALSE(blind_plan.abort);
  ASSERT_FALSE(tracking_plan.abort);
  EXPECT_LT(tracking_plan.cscp_interval, blind_plan.cscp_interval);
}

TEST(AdaptivePolicy, EstimatorWithZeroNominalRateUsesPureObservation) {
  const auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 0.0);
  AdaptiveCheckpointPolicy policy(AdaptiveCheckpointPolicy::with_estimator(
      AdaptiveCheckpointPolicy::adt_dvs()));
  auto ctx = make_context(setup, 5'000.0, 2'000.0, 5);
  ctx.faults_detected = 4;
  EXPECT_DOUBLE_EQ(policy.planning_lambda(ctx), 4.0 / 2'000.0);
}

// The m-search memo (see adaptive.hpp): a reused instance must decide
// exactly what a fresh instance decides for the same context, whatever
// it searched before.

void expect_same_decision(const sim::Decision& reused,
                          const sim::Decision& fresh) {
  EXPECT_EQ(reused.speed.frequency, fresh.speed.frequency);
  EXPECT_EQ(reused.speed.voltage, fresh.speed.voltage);
  EXPECT_EQ(reused.cscp_interval, fresh.cscp_interval);
  EXPECT_EQ(reused.sub_interval, fresh.sub_interval);
  EXPECT_EQ(reused.inner, fresh.inner);
  EXPECT_EQ(reused.abort, fresh.abort);
}

/// Decides `ctx` on `reused` and on a fresh instance of its config,
/// requires the two to agree field for field, and returns the decision.
sim::Decision decide_both(AdaptiveCheckpointPolicy& reused,
                          const sim::ExecContext& ctx) {
  AdaptiveCheckpointPolicy fresh(reused.config());
  const auto decision = reused.on_fault(ctx);
  expect_same_decision(decision, fresh.on_fault(ctx));
  return decision;
}

/// A_D_S, A_D_C and their rate-tracking variants.
std::vector<AdaptiveConfig> memo_configs() {
  return {AdaptiveCheckpointPolicy::adapchp_dvs_scp(),
          AdaptiveCheckpointPolicy::adapchp_dvs_ccp(),
          AdaptiveCheckpointPolicy::with_estimator(
              AdaptiveCheckpointPolicy::adapchp_dvs_scp()),
          AdaptiveCheckpointPolicy::with_estimator(
              AdaptiveCheckpointPolicy::adapchp_dvs_ccp())};
}

/// The DVS fixture with the cost flavor matching the config's inner kind.
sim::SimSetup memo_setup(const AdaptiveConfig& config, double lambda) {
  auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, lambda);
  if (config.inner == sim::InnerKind::kCcp) {
    setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  }
  return setup;
}

/// The inner count m a decision planned.
long inner_count_of(const sim::Decision& d) {
  return std::lround(d.cscp_interval / d.sub_interval);
}

TEST(AdaptivePolicyMemo, RepeatedAndVariedContextsMatchAFreshInstance) {
  for (const auto& config : memo_configs()) {
    for (int redundancy : {2, 3}) {
      SCOPED_TRACE(AdaptiveCheckpointPolicy(config).name() + " x" +
                   std::to_string(redundancy));
      const auto setup = memo_setup(config, 1.4e-3);
      // 1000 time units before the deadline, Fig. 4's interval does not
      // depend on the rate, so neighbours A-B differ only in lambda,
      // B-C only in itv, and C-D in the speed.  E and F are the entry
      // and a mid-run state of the paper fixture.  The -est variants
      // observe as many detections as the nominal rate predicts, so
      // they plan at about the nominal rates.
      const auto late = [&](double cycles, double lambda) {
        auto ctx = make_context(setup, cycles, 9'000.0, 5);
        ctx.lambda = lambda;
        ctx.faults_detected = static_cast<int>(lambda * 9'000.0);
        ctx.redundancy = redundancy;
        return ctx;
      };
      const auto early = [&](double cycles, double now) {
        auto ctx = make_context(setup, cycles, now, 5);
        ctx.redundancy = redundancy;
        return ctx;
      };
      const std::vector<sim::ExecContext> contexts = {
          late(400.0, 2e-2),  late(400.0, 5e-2),
          late(200.0, 5e-2),  late(200.0, 2e-2),
          early(7'600.0, 0.0), early(4'000.0, 2'000.0)};
      std::vector<sim::Decision> fresh;
      for (const auto& ctx : contexts) {
        fresh.push_back(AdaptiveCheckpointPolicy(config).on_fault(ctx));
        ASSERT_FALSE(fresh.back().abort);
      }
      // The sequence varies what it claims to, and each change moves m.
      EXPECT_EQ(fresh[0].speed.frequency, fresh[1].speed.frequency);
      EXPECT_EQ(fresh[0].cscp_interval, fresh[1].cscp_interval);
      EXPECT_NE(inner_count_of(fresh[0]), inner_count_of(fresh[1]));
      EXPECT_EQ(fresh[1].speed.frequency, fresh[2].speed.frequency);
      EXPECT_NE(fresh[1].cscp_interval, fresh[2].cscp_interval);
      EXPECT_NE(inner_count_of(fresh[1]), inner_count_of(fresh[2]));
      EXPECT_NE(fresh[2].speed.frequency, fresh[3].speed.frequency);

      // Every context in turn, then revisits of some still held and of
      // some already evicted; reset() between passes keeps the table.
      AdaptiveCheckpointPolicy reused(config);
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i : {0, 1, 2, 3, 4, 5, 1, 0, 2, 1, 3, 5, 4, 0, 2,
                              2, 5, 0, 1}) {
          decide_both(reused, contexts[i]);
        }
        EXPECT_TRUE(reused.reset());
      }
    }
  }
}

TEST(AdaptivePolicyMemo, SetupsDifferingOnlyInRollbackMatchAFreshInstance) {
  for (const auto& config : memo_configs()) {
    for (int redundancy : {2, 3}) {
      SCOPED_TRACE(AdaptiveCheckpointPolicy(config).name() + " x" +
                   std::to_string(redundancy));
      const auto cheap = memo_setup(config, 5e-3);
      auto dear = cheap;
      dear.costs.rollback = 400.0;
      auto cheap_ctx = make_context(cheap, 7'600.0, 0.0, 5);
      auto dear_ctx = make_context(dear, 7'600.0, 0.0, 5);
      cheap_ctx.redundancy = dear_ctx.redundancy = redundancy;
      AdaptiveCheckpointPolicy reused(config);
      for (int i = 0; i < 4; ++i) {
        const auto a = decide_both(reused, cheap_ctx);
        const auto b = decide_both(reused, dear_ctx);
        // Same speed and itv: only the rollback cost tells the searches
        // apart, and it changes m, except in the DMR CCP model, whose
        // rollback term does not depend on m.
        EXPECT_EQ(a.cscp_interval, b.cscp_interval);
        if (config.inner == sim::InnerKind::kScp || redundancy == 3) {
          EXPECT_NE(a.sub_interval, b.sub_interval);
        }
      }
    }
  }
}

TEST(AdaptivePolicyMemo, SameItvAtRedundancyTwoAndThreeMatchAFreshInstance) {
  for (const auto& config : memo_configs()) {
    SCOPED_TRACE(AdaptiveCheckpointPolicy(config).name());
    const auto setup = memo_setup(config, 2e-3);
    auto dmr = make_context(setup, 7'600.0, 0.0, 5);
    auto tmr = dmr;
    tmr.redundancy = 3;
    AdaptiveCheckpointPolicy reused(config);
    for (int i = 0; i < 4; ++i) {
      const auto a = decide_both(reused, dmr);
      const auto b = decide_both(reused, tmr);
      // Same itv: only the voting flag tells the searches apart, and
      // the vote-aware model plans a different m.
      EXPECT_EQ(a.cscp_interval, b.cscp_interval);
      EXPECT_NE(a.sub_interval, b.sub_interval);
    }
  }
}

TEST(AdaptivePolicyMemo, MaxInnerStillCapsARememberedM) {
  for (auto config : memo_configs()) {
    SCOPED_TRACE(AdaptiveCheckpointPolicy(config).name());
    const auto setup = memo_setup(config, 2e-2);
    const auto ctx = make_context(setup, 7'600.0, 0.0, 5);
    // The uncapped search plans more than two sub-intervals ...
    const auto uncapped = AdaptiveCheckpointPolicy(config).on_fault(ctx);
    ASSERT_FALSE(uncapped.abort);
    ASSERT_LT(uncapped.sub_interval, uncapped.cscp_interval / 2.0);
    // ... so every call with the cap, the remembered ones included,
    // must clamp to exactly two.
    config.max_inner = 2;
    AdaptiveCheckpointPolicy reused(config);
    for (int i = 0; i < 3; ++i) {
      const auto d = decide_both(reused, ctx);
      EXPECT_EQ(d.sub_interval, d.cscp_interval / 2.0);
    }
  }
}

}  // namespace
}  // namespace adacheck::policy

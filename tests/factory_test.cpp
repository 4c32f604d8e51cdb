#include "policy/factory.hpp"

#include <gtest/gtest.h>

#include "policy/adaptive.hpp"
#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::policy {
namespace {

TEST(Factory, BuildsEveryKnownPolicy) {
  for (const auto& name : known_policies()) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(Factory, RejectsUnknownNames) {
  EXPECT_THROW(make_policy("definitely-not-a-policy"),
               std::invalid_argument);
  EXPECT_THROW(make_policy(""), std::invalid_argument);
  EXPECT_THROW(make_policy("a_d_s"), std::invalid_argument);  // case matters
}

TEST(Factory, BaselineLevelThreadsThrough) {
  // The level only affects the fixed baselines and the non-DVS adaptive
  // schemes; it must not break the DVS ones.
  EXPECT_NO_THROW(make_policy("Poisson", 1));
  EXPECT_NO_THROW(make_policy("k-f-t", 1));
  EXPECT_NO_THROW(make_policy("A_D_S", 1));
  const auto adaptive = make_policy("adapchp-SCP", 1);
  const auto* impl =
      dynamic_cast<const AdaptiveCheckpointPolicy*>(adaptive.get());
  ASSERT_NE(impl, nullptr);
  EXPECT_EQ(impl->config().fixed_level, 1u);
  EXPECT_FALSE(impl->config().use_dvs);
}

TEST(Factory, FactoryClosureMakesFreshInstances) {
  const auto factory = make_policy_factory("A_D_S");
  const auto a = factory();
  const auto b = factory();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "A_D_S");
}

TEST(Factory, KnownPolicyListIsComplete) {
  const auto names = known_policies();
  EXPECT_EQ(names.size(), 10u);
}

TEST(Factory, PlansInnerCheckpointsMatchesEveryScheme) {
  // Declared: an adaptive scheme with an inner kind plans inner
  // checkpoints; the fixed baselines and A_D never do.
  for (const auto& name : known_policies()) {
    const auto policy = make_policy(name);
    const auto* adaptive =
        dynamic_cast<const AdaptiveCheckpointPolicy*>(policy.get());
    EXPECT_EQ(plans_inner_checkpoints(name),
              adaptive != nullptr &&
                  adaptive->config().inner != sim::InnerKind::kNone)
        << name;
  }
  EXPECT_THROW(plans_inner_checkpoints("not-a-policy"), std::invalid_argument);

  // Observed: under both cost flavors, at a fault rate where the
  // adaptive schemes insert inner checkpoints, only the declared
  // schemes place an SCP or a CCP.
  for (const auto& name : known_policies()) {
    long long inner = 0;
    for (const auto costs : {model::CheckpointCosts::paper_scp_flavor(),
                             model::CheckpointCosts::paper_ccp_flavor()}) {
      auto setup = testutil::dvs_setup(7'600.0, 10'000.0, 5, 2.0e-3);
      setup.costs = costs;
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const auto policy = make_policy(name);
        const auto run = sim::simulate_seeded(setup, *policy, seed);
        inner += run.checkpoints_scp + run.checkpoints_ccp;
      }
    }
    EXPECT_EQ(inner > 0, plans_inner_checkpoints(name)) << name;
  }
}

TEST(Factory, EstimatorVariantsEnableRateTracking) {
  for (const char* name : {"A_D-est", "A_D_S-est", "A_D_C-est"}) {
    const auto policy = make_policy(name);
    EXPECT_EQ(policy->name(), name);
    const auto* impl =
        dynamic_cast<const AdaptiveCheckpointPolicy*>(policy.get());
    ASSERT_NE(impl, nullptr) << name;
    EXPECT_TRUE(impl->config().estimate_rate);
  }
  // The base schemes keep trusting the nominal rate.
  const auto base = make_policy("A_D_S");
  const auto* impl = dynamic_cast<const AdaptiveCheckpointPolicy*>(base.get());
  ASSERT_NE(impl, nullptr);
  EXPECT_FALSE(impl->config().estimate_rate);
}

}  // namespace
}  // namespace adacheck::policy

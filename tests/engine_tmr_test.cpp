// TMR semantics: a comparison seeing exactly one corrupted replica
// majority-votes it back to health with no work lost; two distinct
// corrupted replicas force a rollback — in SCP mode, to the last SCP
// that still holds a 2-of-3 majority.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "sim/validators.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::sim {
namespace {

using testutil::ScriptedPolicy;
using testutil::inner_plan;
using testutil::plain_plan;

SimSetup tmr_setup(double cycles, double deadline) {
  auto setup = testutil::basic_setup(cycles, deadline);
  setup.fault_model.processors = 3;
  return setup;
}

RunResult run_tmr(const SimSetup& setup, ICheckpointPolicy& policy,
                  std::vector<model::FaultEvent> faults) {
  const model::FaultTrace trace(std::move(faults));
  model::ReplayFaultSource source(trace);
  EngineConfig config;
  config.record_trace = true;
  return simulate(setup, policy, source, config);
}

TEST(EngineTmr, SingleFaultVotedAwayAtCscpNoWorkLost) {
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{50.0, 0}});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.faults, 1);
  EXPECT_EQ(result.corrections, 1);
  EXPECT_EQ(result.detections, 0);
  EXPECT_EQ(result.rollbacks, 0);
  // No re-execution: 100 work + one CSCP (t_r = 0).
  EXPECT_NEAR(result.finish_time, 122.0, 1e-9);
  EXPECT_TRUE(validate_all(setup, result).empty());
}

TEST(EngineTmr, ReplayedReplicaOutsideTheGroupIsRejected) {
  // Replica 5 does not exist in a 3-replica group; it must not be
  // counted as a fourth replica (which reported faults=2
  // corrections=2 for this trace).
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  try {
    run_tmr(setup, policy, {{30.0, 2}, {60.0, 5}});
    FAIL() << "replica 5 of a 3-replica group was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("replica 5"), std::string::npos)
        << e.what();
  }
  // Replica 2 alone is a valid TMR replica and is voted away.
  ScriptedPolicy valid(plain_plan(setup, 100.0));
  EXPECT_EQ(run_tmr(setup, valid, {{30.0, 2}}).corrections, 1);
}

TEST(EngineTmr, SameFaultForcesRollbackUnderDmr) {
  // Control: the identical scenario on the DMR pair loses the interval.
  auto setup = tmr_setup(100.0, 10'000.0);
  setup.fault_model.processors = 2;
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{50.0, 0}});
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_NEAR(result.finish_time, 244.0, 1e-9);
}

TEST(EngineTmr, TwoFaultsSameReplicaStillVotable) {
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{30.0, 1}, {60.0, 1}});
  EXPECT_EQ(result.corrections, 1);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_NEAR(result.finish_time, 122.0, 1e-9);
}

TEST(EngineTmr, TwoDistinctReplicasLoseMajority) {
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{30.0, 0}, {60.0, 1}});
  EXPECT_EQ(result.corrections, 0);
  EXPECT_EQ(result.detections, 1);
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_NEAR(result.finish_time, 244.0, 1e-9);
}

TEST(EngineTmr, InnerCcpVotesMidIntervalAndContinues) {
  auto setup = tmr_setup(100.0, 10'000.0);
  setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  ScriptedPolicy policy(inner_plan(setup, 100.0, 25.0, InnerKind::kCcp));
  const auto result = run_tmr(setup, policy, {{30.0, 2}});
  EXPECT_EQ(result.corrections, 1);
  EXPECT_EQ(result.rollbacks, 0);
  // Fault-free timing: 100 + 3 CCP * 2 + CSCP 22 (correction is free at
  // t_r = 0).
  EXPECT_NEAR(result.finish_time, 128.0, 1e-9);
  EXPECT_TRUE(validate_all(setup, result).empty());
}

TEST(EngineTmr, InnerCcpIsolatesFaultsIntoWindows) {
  // Two distinct-replica faults in *different* sub-intervals: each is
  // voted away at its own CCP; no rollback ever happens.
  auto setup = tmr_setup(100.0, 10'000.0);
  setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  ScriptedPolicy policy(inner_plan(setup, 100.0, 25.0, InnerKind::kCcp));
  const auto result = run_tmr(setup, policy, {{30.0, 0}, {60.0, 1}});
  EXPECT_EQ(result.corrections, 2);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_NEAR(result.finish_time, 128.0, 1e-9);
}

TEST(EngineTmr, InnerCcpSameWindowTwoReplicasRollsBack) {
  auto setup = tmr_setup(100.0, 10'000.0);
  setup.costs = model::CheckpointCosts::paper_ccp_flavor();
  ScriptedPolicy policy(inner_plan(setup, 100.0, 25.0, InnerKind::kCcp));
  const auto result = run_tmr(setup, policy, {{30.0, 0}, {40.0, 1}});
  EXPECT_EQ(result.corrections, 0);
  EXPECT_EQ(result.rollbacks, 1);
  // Failed attempt: detected at CCP2 = 2*25 + 2*2 = 54; retry clean 128.
  EXPECT_NEAR(result.finish_time, 54.0 + 128.0, 1e-9);
}

TEST(EngineTmr, ScpRollbackLandsAtMajorityBoundary) {
  // Subs of 25; replica 0 faults in sub 1, replica 1 in sub 3: SCPs 1
  // and 2 still hold a 2-of-3 majority, so rollback commits subs 1-2
  // (the DMR rule would commit nothing).
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(inner_plan(setup, 100.0, 25.0, InnerKind::kScp));
  const auto result = run_tmr(setup, policy, {{10.0, 0}, {60.0, 1}});
  EXPECT_EQ(result.rollbacks, 1);
  // Attempt 1: full 128, commit 2 subs (50).  Attempt 2: 50 left,
  // 2 subs: 50 + 2 + 22 = 74.
  EXPECT_NEAR(result.cycles_committed, 100.0, 1e-9);
  EXPECT_NEAR(result.finish_time, 128.0 + 74.0, 1e-9);
  EXPECT_TRUE(validate_all(setup, result).empty());
}

TEST(EngineTmr, ScpSingleFaultWholeIntervalCommits) {
  const auto setup = tmr_setup(100.0, 10'000.0);
  ScriptedPolicy policy(inner_plan(setup, 100.0, 25.0, InnerKind::kScp));
  const auto result = run_tmr(setup, policy, {{10.0, 2}});
  EXPECT_EQ(result.corrections, 1);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_NEAR(result.finish_time, 128.0, 1e-9);
}

TEST(EngineTmr, CorrectionPaysRepairCost) {
  auto setup = tmr_setup(100.0, 10'000.0);
  setup.costs.rollback = 8.0;
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{50.0, 0}});
  EXPECT_EQ(result.corrections, 1);
  EXPECT_NEAR(result.finish_time, 122.0 + 8.0, 1e-9);
  EXPECT_TRUE(validate_all(setup, result).empty());
}

TEST(EngineTmr, CorrectionConsumesFaultBudgetAndReplans) {
  const auto setup = tmr_setup(300.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_tmr(setup, policy, {{150.0, 0}});
  EXPECT_EQ(result.corrections, 1);
  EXPECT_EQ(policy.fault_calls, 1);  // re-plan after the voted commit
}

TEST(EngineTmr, StochasticTmrBeatsDmrOnCompletion) {
  // Same fault process: TMR masks single faults, so it completes more
  // often and faster on a hostile cell.
  auto dmr = testutil::basic_setup(5'000.0, 7'000.0, 20, 2e-3);
  auto tmr = dmr;
  tmr.fault_model.processors = 3;
  int dmr_wins = 0, tmr_wins = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    ScriptedPolicy p1(plain_plan(dmr, 250.0)), p2(plain_plan(tmr, 250.0));
    dmr_wins += simulate_seeded(dmr, p1, seed).completed();
    tmr_wins += simulate_seeded(tmr, p2, seed).completed();
  }
  EXPECT_GT(tmr_wins, dmr_wins);
}

}  // namespace
}  // namespace adacheck::sim

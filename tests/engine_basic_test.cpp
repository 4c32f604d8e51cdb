#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "policy/adaptive.hpp"
#include "sim/engine.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::sim {
namespace {

using testutil::ScriptedPolicy;
using testutil::basic_setup;
using testutil::dvs_setup;
using testutil::plain_plan;
using testutil::run_with_faults;

TEST(EngineBasic, FaultFreeRunCompletesWithExactTiming) {
  // N = 1000 at f1, interval 100: 10 intervals, 10 CSCPs of 22 cycles.
  const auto setup = basic_setup(1'000.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_NEAR(result.finish_time, 1'000.0 + 10.0 * 22.0, 1e-9);
  EXPECT_EQ(result.checkpoints_cscp, 10);
  EXPECT_EQ(result.faults, 0);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_NEAR(result.cycles_committed, 1'000.0, 1e-9);
  // Energy: V = 2 at f1, cycles = 1000 + 220 overhead.
  EXPECT_NEAR(result.energy, 4.0 * 1'220.0, 1e-9);
}

TEST(EngineBasic, PartialTrailingInterval) {
  // N = 250 with interval 100 -> intervals of 100, 100, 50.
  const auto setup = basic_setup(250.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.checkpoints_cscp, 3);
  EXPECT_NEAR(result.finish_time, 250.0 + 3.0 * 22.0, 1e-9);
}

TEST(EngineBasic, IntervalLargerThanTaskIsClamped) {
  const auto setup = basic_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 1e18));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.checkpoints_cscp, 1);
  EXPECT_NEAR(result.finish_time, 122.0, 1e-9);
}

TEST(EngineBasic, DeadlineMissWhenTooTight) {
  // Work + overhead = 122 > deadline 121.
  const auto setup = basic_setup(100.0, 121.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlineMiss);
  EXPECT_FALSE(result.completed());
}

TEST(EngineBasic, CompletionExactlyAtDeadlineCounts) {
  const auto setup = basic_setup(100.0, 122.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

TEST(EngineBasic, AbortDecisionHonored) {
  const auto setup = basic_setup(100.0, 1'000.0);
  Decision d = plain_plan(setup, 100.0);
  d.abort = true;
  ScriptedPolicy policy(d);
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kAborted);
  EXPECT_DOUBLE_EQ(result.cycles_executed, 0.0);
}

TEST(EngineBasic, HigherSpeedHalvesTimeDoublesEnergyRate) {
  auto setup = dvs_setup(1'000.0, 10'000.0);
  Decision d;
  d.speed = setup.processor.fastest();  // f = 2
  d.cscp_interval = 50.0;               // same cycle count per interval
  d.sub_interval = 50.0;
  d.inner = InnerKind::kNone;
  ScriptedPolicy policy(d);
  const auto result = run_with_faults(setup, policy, {});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  // 10 intervals of 100 cycles + 10 CSCPs of 22 cycles, all at f2.
  EXPECT_NEAR(result.finish_time, (1'000.0 + 220.0) / 2.0, 1e-9);
  const double v2 = setup.processor.fastest().voltage;
  EXPECT_NEAR(result.energy, v2 * v2 * 1'220.0, 1e-6);
}

TEST(EngineBasic, SpeedSwitchCounted) {
  auto setup = dvs_setup(200.0, 10'000.0);
  Decision fast;
  fast.speed = setup.processor.fastest();
  fast.cscp_interval = 50.0;
  fast.sub_interval = 50.0;
  Decision slow = fast;
  slow.speed = setup.processor.slowest();
  // One interval fast, then (after a fault) slow.
  ScriptedPolicy policy(std::vector<Decision>{fast, slow});
  // Fault in the second interval's exposure (first interval commits
  // 100 cycles over exposure 0..50; second attempt starts at 50).
  const auto result = run_with_faults(setup, policy, {60.0});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(result.speed_switches, 1);
  EXPECT_EQ(result.faults, 1);
}

TEST(EngineBasic, SeededRunsAreDeterministic) {
  const auto setup = basic_setup(2'000.0, 1e9, 10, 5e-3);
  ScriptedPolicy p1(plain_plan(setup, 150.0)), p2(plain_plan(setup, 150.0));
  const auto a = simulate_seeded(setup, p1, 424242);
  const auto b = simulate_seeded(setup, p2, 424242);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  EXPECT_EQ(a.faults, b.faults);

  ScriptedPolicy p3(plain_plan(setup, 150.0));
  const auto c = simulate_seeded(setup, p3, 424243);
  EXPECT_NE(a.faults, c.faults);  // overwhelmingly likely at this lambda
}

TEST(EngineBasic, PolicyHookCallCounts) {
  const auto setup = basic_setup(300.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {150.0});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(policy.initial_calls, 1);
  EXPECT_EQ(policy.fault_calls, 1);
  // Commits with work left: interval 1 and the re-run of interval 2.
  // The final commit (interval 3) leaves nothing to plan, so no hook.
  EXPECT_EQ(policy.commit_calls, 2);
}

TEST(EngineBasic, StepLimitGuardsDegeneratePlans) {
  const auto setup = basic_setup(1'000.0, 1e9);
  auto d = testutil::inner_plan(setup, 1'000.0, 1e-4, InnerKind::kScp);
  ScriptedPolicy policy(d);
  EngineConfig config;
  config.max_steps = 1'000;  // 10^7 sub-intervals would exceed this
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  EXPECT_THROW(simulate(setup, policy, source, config), std::runtime_error);
}

TEST(EngineBasic, StepLimitGuardsCleanPlainAttempts) {
  // A fault-free plain-CSCP plan, untraced: every attempt takes the
  // clean-attempt branch, which counts its step like the general path.
  const auto setup = basic_setup(1'000.0, 1e9);
  ScriptedPolicy policy(plain_plan(setup, 0.01));
  EngineConfig config;
  config.max_steps = 1'000;  // 10^5 attempts would exceed this
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  try {
    simulate(setup, policy, source, config);
    FAIL() << "expected the step limit to stop the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("step limit exceeded"),
              std::string::npos)
        << e.what();
  }
}

/// Forwards to an adaptive policy and counts the commit hook.
class CountingAdaptive final : public ICheckpointPolicy {
 public:
  explicit CountingAdaptive(policy::AdaptiveConfig config)
      : inner_(config) {}
  std::string name() const override { return inner_.name(); }
  Decision initial(const ExecContext& ctx) override {
    return inner_.initial(ctx);
  }
  Decision on_fault(const ExecContext& ctx) override {
    return inner_.on_fault(ctx);
  }
  std::optional<Decision> on_commit(const ExecContext& ctx) override {
    ++commit_calls;
    return inner_.on_commit(ctx);
  }
  CommitRule commit_rule() const override { return inner_.commit_rule(); }

  int commit_calls = 0;

 private:
  policy::AdaptiveCheckpointPolicy inner_;
};

TEST(EngineBasic, RecomputeAtCommitAsksAfterEveryCleanCommit) {
  auto config = policy::AdaptiveCheckpointPolicy::adt_dvs();
  config.recompute_at_commit = true;
  CountingAdaptive policy(config);
  EXPECT_EQ(policy.commit_rule(), CommitRule::kCustom);
  const auto setup = dvs_setup(2'000.0, 10'000.0, 5, 1e-3);
  const auto result = run_with_faults(setup, policy, {}, false);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  ASSERT_GT(result.checkpoints_cscp, 1);
  // Every commit but the last leaves work to do.
  EXPECT_EQ(policy.commit_calls, result.checkpoints_cscp - 1);

  // Without the knob the engine applies the deadline guard itself.
  CountingAdaptive guarded(policy::AdaptiveCheckpointPolicy::adt_dvs());
  EXPECT_EQ(guarded.commit_rule(), CommitRule::kDeadlineGuard);
  const auto kept = run_with_faults(setup, guarded, {}, false);
  EXPECT_EQ(kept.outcome, RunOutcome::kCompleted);
  ASSERT_GT(kept.checkpoints_cscp, 1);
  EXPECT_EQ(guarded.commit_calls, 0);
}

TEST(EngineBasic, DeadlineGuardAbortsAlikeTracedAndUntraced) {
  // N = 1000 cycles at f2 = 2 needs 500 time units plus 11 per CSCP;
  // with D = 530 and no fault, A_D commits three intervals, after which
  // the remaining work no longer fits R_d even at f2: the while-loop
  // guard (evaluated by the engine, since A_D's commit rule is
  // kDeadlineGuard) aborts the run.
  const auto setup = dvs_setup(1'000.0, 530.0, 5, 1e-3);
  policy::AdaptiveCheckpointPolicy traced_policy(
      policy::AdaptiveCheckpointPolicy::adt_dvs());
  policy::AdaptiveCheckpointPolicy untraced_policy(
      policy::AdaptiveCheckpointPolicy::adt_dvs());
  const auto traced = run_with_faults(setup, traced_policy, {}, true);
  const auto untraced = run_with_faults(setup, untraced_policy, {}, false);
  EXPECT_EQ(traced.outcome, RunOutcome::kAborted);
  EXPECT_EQ(untraced.outcome, RunOutcome::kAborted);
  EXPECT_GT(untraced.checkpoints_cscp, 0);  // aborted after a commit
  EXPECT_EQ(traced.checkpoints_cscp, untraced.checkpoints_cscp);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(traced.finish_time),
            std::bit_cast<std::uint64_t>(untraced.finish_time));
  // The abort follows a commit directly: the guard, not a re-plan.
  const auto& events = traced.trace.events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 1].kind, TraceEventKind::kAbort);
  EXPECT_EQ(events[events.size() - 2].kind, TraceEventKind::kCommit);
}

TEST(EngineBasic, RejectsInvalidDecisions) {
  const auto setup = basic_setup(100.0, 1'000.0);
  Decision bad = plain_plan(setup, 0.0);  // non-positive interval
  ScriptedPolicy policy(bad);
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  EXPECT_THROW(simulate(setup, policy, source), std::invalid_argument);

  Decision bad_speed = plain_plan(setup, 10.0);
  bad_speed.speed.frequency = 0.0;
  ScriptedPolicy policy2(bad_speed);
  EXPECT_THROW(simulate(setup, policy2, source), std::invalid_argument);
}

TEST(EngineBasic, FaultBeyondExecutionNeverFires) {
  // Total exposure is exactly N = 100; a fault at 100.5 is unreachable.
  const auto setup = basic_setup(100.0, 10'000.0);
  ScriptedPolicy policy(plain_plan(setup, 100.0));
  const auto result = run_with_faults(setup, policy, {100.5});
  EXPECT_EQ(result.faults, 0);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

TEST(EngineBasic, SetupValidationPropagates) {
  auto setup = basic_setup(100.0, 1'000.0);
  setup.task.cycles = -5.0;
  ScriptedPolicy policy(plain_plan(setup, 10.0));
  model::FaultTrace trace;
  model::ReplayFaultSource source(trace);
  EXPECT_THROW(simulate(setup, policy, source), std::invalid_argument);
}

}  // namespace
}  // namespace adacheck::sim

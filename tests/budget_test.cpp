// Adaptive run budgets: the RunBudget spec, the PrecisionRecorder
// stop rule, and the budgeted round scheduler's determinism pins —
// a fixed budget reproduces the fixed-count path bit-for-bit, and any
// budget outcome is bit-identical across thread counts because the
// stopping decision only ever sees completed-chunk prefixes in index
// order.
#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/json_report.hpp"
#include "harness/sweep.hpp"
#include "policy/factory.hpp"
#include "tests/test_helpers.hpp"
#include "util/statistics.hpp"

namespace adacheck::sim {
namespace {

using testutil::basic_setup;

void expect_same_stats(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.completion.trials(), b.completion.trials());
  EXPECT_EQ(a.completion.successes(), b.completion.successes());
  EXPECT_EQ(a.aborted_runs, b.aborted_runs);
  const std::pair<const util::RunningStats*, const util::RunningStats*>
      tracked[] = {
          {&a.energy_success, &b.energy_success},
          {&a.energy_all, &b.energy_all},
          {&a.finish_time_success, &b.finish_time_success},
          {&a.faults, &b.faults},
          {&a.rollbacks, &b.rollbacks},
          {&a.corrections, &b.corrections},
          {&a.high_speed_cycles, &b.high_speed_cycles},
      };
  for (const auto& [lhs, rhs] : tracked) {
    EXPECT_EQ(lhs->count(), rhs->count());
    if (lhs->count() == 0) continue;
    EXPECT_DOUBLE_EQ(lhs->mean(), rhs->mean());
    EXPECT_DOUBLE_EQ(lhs->variance(), rhs->variance());
    EXPECT_DOUBLE_EQ(lhs->min(), rhs->min());
    EXPECT_DOUBLE_EQ(lhs->max(), rhs->max());
  }
}

// --- RunBudget validation ------------------------------------------------

TEST(RunBudget, DisabledByDefault) {
  RunBudget budget;
  EXPECT_FALSE(budget.enabled());
  budget.validate();  // the default is always valid
  budget.target_p_halfwidth = 0.01;
  EXPECT_TRUE(budget.enabled());
}

TEST(RunBudget, ResolvedCaps) {
  RunBudget budget;
  budget.target_p_halfwidth = 0.01;
  EXPECT_EQ(budget.resolved_max(10'000), 10'000);  // 0 = fixed runs
  EXPECT_EQ(budget.resolved_min(10'000), kRunChunk);  // 0 = one chunk
  budget.min_runs = 1'000;
  budget.max_runs = 4'000;
  EXPECT_EQ(budget.resolved_max(10'000), 4'000);
  EXPECT_EQ(budget.resolved_min(10'000), 1'000);
  // The floor clamps to the cap when the fixed count is the cap.
  budget.max_runs = 0;
  EXPECT_EQ(budget.resolved_min(100), 100);
}

TEST(RunBudget, ValidateRejectsBadConfigs) {
  const auto expect_invalid = [](RunBudget budget, const char* what) {
    EXPECT_THROW(budget.validate(), std::invalid_argument) << what;
  };
  RunBudget bad;
  bad.target_p_halfwidth = -0.1;
  expect_invalid(bad, "negative target");
  bad.target_p_halfwidth = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(bad, "NaN target");
  bad = RunBudget{};
  bad.target_e_rel_halfwidth = std::numeric_limits<double>::infinity();
  expect_invalid(bad, "infinite target");
  bad = RunBudget{};
  bad.target_p_halfwidth = 0.01;
  bad.min_runs = -1;
  expect_invalid(bad, "negative min_runs");
  bad.min_runs = 2'000;
  bad.max_runs = 1'000;
  expect_invalid(bad, "min > max");
  bad = RunBudget{};
  bad.max_runs = 1'000;
  expect_invalid(bad, "cap without a target");
}

TEST(RunBudget, RunCellRejectsInvalidBudget) {
  const auto setup = basic_setup(1'000.0, 10'000.0);
  MonteCarloConfig config;
  config.budget.target_p_halfwidth = 0.01;
  config.budget.min_runs = 600;
  config.budget.max_runs = 500;
  EXPECT_THROW(
      run_cell(setup, policy::make_policy_factory("Poisson"), config),
      std::invalid_argument);
}

// --- PrecisionRecorder ---------------------------------------------------

CellStats synthetic_chunk(int successes, int failures, double energy0) {
  CellStats stats;
  for (int i = 0; i < successes; ++i) {
    stats.completion.add(true);
    stats.energy_success.add(energy0 + static_cast<double>(i));
  }
  for (int i = 0; i < failures; ++i) stats.completion.add(false);
  return stats;
}

TEST(PrecisionRecorder, MatchesClosedFormAfterAbsorb) {
  RunBudget budget;
  budget.target_p_halfwidth = 0.05;
  PrecisionRecorder recorder(budget, 10'000);
  recorder.absorb(synthetic_chunk(200, 56, 10.0));
  recorder.absorb(synthetic_chunk(250, 6, 12.0));
  EXPECT_EQ(recorder.runs(), 512u);
  EXPECT_DOUBLE_EQ(recorder.p_halfwidth(), util::wilson95_halfwidth(450, 512));

  // The energy accumulator matches an all-at-once reference fill up
  // to rounding (Chan's merge is algebraically, not bitwise, equal to
  // sequential Welford updates; bit-identity across thread counts
  // comes from identical op sequences, never from this equivalence).
  util::RunningStats reference;
  for (int i = 0; i < 200; ++i) reference.add(10.0 + i);
  for (int i = 0; i < 250; ++i) reference.add(12.0 + i);
  EXPECT_NEAR(recorder.e_rel_halfwidth(), reference.rel_ci95_halfwidth(),
              1e-12);
}

TEST(PrecisionRecorder, StopRuleRespectsFloorTargetAndCap) {
  RunBudget budget;
  budget.target_p_halfwidth = 0.05;
  budget.min_runs = 512;
  budget.max_runs = 1'024;
  PrecisionRecorder recorder(budget, 10'000);
  // 256 runs, all successes: half-width ~0.0074 already beats the
  // target, but the floor holds the cell.
  recorder.absorb(synthetic_chunk(256, 0, 10.0));
  EXPECT_TRUE(recorder.targets_met());
  EXPECT_FALSE(recorder.should_stop());
  recorder.absorb(synthetic_chunk(256, 0, 10.0));
  EXPECT_TRUE(recorder.should_stop());
}

TEST(PrecisionRecorder, CapStopsAnUnmetTarget) {
  RunBudget budget;
  budget.target_p_halfwidth = 1e-6;  // unreachable
  budget.max_runs = 512;
  PrecisionRecorder recorder(budget, 10'000);
  recorder.absorb(synthetic_chunk(128, 128, 10.0));
  EXPECT_FALSE(recorder.should_stop());
  recorder.absorb(synthetic_chunk(128, 128, 10.0));
  EXPECT_FALSE(recorder.targets_met());
  EXPECT_TRUE(recorder.should_stop());  // the cap, not the target
}

TEST(PrecisionRecorder, EnergyTargetGatesStopping) {
  RunBudget budget;
  budget.target_p_halfwidth = 0.5;       // trivially met
  budget.target_e_rel_halfwidth = 1e-9;  // unreachable
  budget.max_runs = 512;
  PrecisionRecorder recorder(budget, 10'000);
  recorder.absorb(synthetic_chunk(256, 0, 10.0));
  // P target met, energy target not: both must hold to stop early.
  EXPECT_FALSE(recorder.targets_met());
  EXPECT_FALSE(recorder.should_stop());
}

TEST(PrecisionRecorder, NoSuccessesNeverMeetsTheEnergyTarget) {
  RunBudget budget;
  budget.target_e_rel_halfwidth = 10.0;  // absurdly loose
  PrecisionRecorder recorder(budget, 10'000);
  recorder.absorb(synthetic_chunk(0, 256, 0.0));
  // Zero successful runs -> NaN relative half-width -> not met.
  EXPECT_TRUE(std::isnan(recorder.e_rel_halfwidth()));
  EXPECT_FALSE(recorder.targets_met());
}

// --- budgeted execution --------------------------------------------------

/// A moderately faulty cell that still succeeds most of the time.
SimSetup high_p_setup() {
  return basic_setup(6'000.0, 10'000.0, 10, 1.0e-4);
}

/// P(miss) is tiny: Wilson half-width cannot reach 1e-4-level targets
/// within a few thousand runs.
SimSetup rare_event_setup() { return basic_setup(500.0, 10'000.0, 10, 1e-6); }

TEST(BudgetedRun, FixedBudgetReproducesFixedPathBitForBit) {
  const auto setup = high_p_setup();
  MonteCarloConfig fixed;
  fixed.runs = 600;  // 3 chunks of 256/256/88
  fixed.seed = 0xB0D6E7;

  MonteCarloConfig budgeted = fixed;
  budgeted.budget.target_p_halfwidth = 1e-9;  // unreachable: runs to cap
  budgeted.budget.min_runs = 600;
  budgeted.budget.max_runs = 600;

  const auto factory = policy::make_policy_factory("Poisson");
  expect_same_stats(run_cell(setup, factory, fixed),
                    run_cell(setup, factory, budgeted));
}

TEST(BudgetedRun, HighPCellStopsEarly) {
  MonteCarloConfig config;
  config.runs = 10'000;
  config.seed = 42;
  config.budget.target_p_halfwidth = 0.02;
  const auto stats = run_cell(high_p_setup(),
                              policy::make_policy_factory("Poisson"), config);
  EXPECT_LT(stats.completion.trials(), 10'000u);
  EXPECT_GE(stats.completion.trials(), 256u);
  // Stops exactly at a chunk boundary.
  EXPECT_EQ(stats.completion.trials() % kRunChunk, 0u);
  // The achieved precision really meets the target.
  EXPECT_LE(stats.completion.wilson_halfwidth(), 0.02);
}

TEST(BudgetedRun, RareEventCellStopsAtMaxRunsWithHonestHalfwidth) {
  MonteCarloConfig config;
  config.runs = 10'000;
  config.seed = 7;
  config.budget.target_p_halfwidth = 1e-4;  // needs ~100x more samples
  config.budget.max_runs = 2'048;
  const auto stats = run_cell(rare_event_setup(),
                              policy::make_policy_factory("Poisson"), config);
  // Ran to the cap...
  EXPECT_EQ(stats.completion.trials(), 2'048u);
  // ...and the reported achieved half-width is honest: still above
  // the unreached target, not silently clamped to it.
  EXPECT_GT(stats.completion.wilson_halfwidth(), 1e-4);
}

TEST(BudgetedRun, BitIdenticalAcrossThreadCounts) {
  MonteCarloConfig serial;
  serial.runs = 10'000;
  serial.seed = 0xFEED;
  serial.threads = 1;
  serial.budget.target_p_halfwidth = 0.015;
  MonteCarloConfig parallel = serial;
  parallel.threads = 4;

  const auto factory = policy::make_policy_factory("Poisson");
  const auto a = run_cell(high_p_setup(), factory, serial);
  const auto b = run_cell(high_p_setup(), factory, parallel);
  expect_same_stats(a, b);
}

TEST(BudgetedRun, MixedJobListKeepsBothPathsIdenticalAcrossThreads) {
  // One budgeted cell between two fixed ones: the round scheduler must
  // not perturb either path at any thread count.
  const auto factory = policy::make_policy_factory("Poisson");
  MonteCarloConfig fixed;
  fixed.runs = 300;
  fixed.seed = 0xAB;
  MonteCarloConfig budgeted;
  budgeted.runs = 10'000;
  budgeted.seed = 0xCD;
  budgeted.budget.target_p_halfwidth = 0.02;

  std::vector<CellJob> jobs;
  jobs.push_back({high_p_setup(), factory, fixed});
  jobs.push_back({high_p_setup(), factory, budgeted});
  jobs.push_back({rare_event_setup(), factory, fixed});

  const auto serial = run_cells_ex(jobs, {.threads = 1});
  const auto parallel = run_cells_ex(jobs, {.threads = 4});
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    expect_same_stats(serial[j].stats, parallel[j].stats);
  }
  // The fixed cells executed exactly their configured runs; the
  // budgeted one stopped at a chunk boundary below the default.
  EXPECT_EQ(serial[0].stats.completion.trials(), 300u);
  EXPECT_EQ(serial[2].stats.completion.trials(), 300u);
  EXPECT_LT(serial[1].stats.completion.trials(), 10'000u);
  EXPECT_EQ(serial[1].stats.completion.trials() % kRunChunk, 0u);
}

TEST(BudgetedRun, BudgetedCellMatchesStandaloneRun) {
  // A budgeted job inside a batch stops at the same prefix as the same
  // job run alone (scheduling is a pure function of the budget).
  const auto factory = policy::make_policy_factory("Poisson");
  MonteCarloConfig budgeted;
  budgeted.runs = 10'000;
  budgeted.seed = 0xCD;
  budgeted.budget.target_p_halfwidth = 0.02;
  MonteCarloConfig fixed;
  fixed.runs = 512;
  fixed.seed = 0x11;

  std::vector<CellJob> jobs;
  jobs.push_back({high_p_setup(), factory, fixed});
  jobs.push_back({high_p_setup(), factory, budgeted});
  const auto batch = run_cells_ex(jobs, {.threads = 2});
  const auto standalone = run_cell(high_p_setup(), factory, budgeted);
  expect_same_stats(batch[1].stats, standalone);
}

// --- observer interplay --------------------------------------------------

class RecordingObserver final : public ISweepObserver {
 public:
  void on_cell_start(std::size_t cell) override { starts.push_back(cell); }
  void on_cell_done(std::size_t cell, const CellResult& result) override {
    done.push_back(cell);
    trials.push_back(result.stats.completion.trials());
  }
  void on_progress(const SweepProgress& progress) override {
    last = progress;
  }

  std::vector<std::size_t> starts;
  std::vector<std::size_t> done;
  std::vector<std::size_t> trials;
  SweepProgress last;
};

TEST(BudgetedRun, ObserverSeesEachCellOnceAndFinalProgressSettles) {
  const auto factory = policy::make_policy_factory("Poisson");
  MonteCarloConfig budgeted;
  budgeted.runs = 10'000;
  budgeted.seed = 3;
  budgeted.budget.target_p_halfwidth = 0.02;
  MonteCarloConfig fixed;
  fixed.runs = 300;
  fixed.seed = 4;

  std::vector<CellJob> jobs;
  jobs.push_back({high_p_setup(), factory, budgeted});
  jobs.push_back({high_p_setup(), factory, fixed});

  RecordingObserver observer;
  RunCellsOptions options;
  options.threads = 4;
  options.observer = &observer;
  const auto results = run_cells_ex(jobs, options);

  EXPECT_EQ(observer.starts.size(), 2u);
  ASSERT_EQ(observer.done.size(), 2u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto it =
        std::find(observer.done.begin(), observer.done.end(), j);
    ASSERT_NE(it, observer.done.end());
    const auto at = static_cast<std::size_t>(it - observer.done.begin());
    EXPECT_EQ(observer.trials[at], results[j].stats.completion.trials());
  }
  // Final progress: all cells done, runs_done drained the schedule
  // (including any wave overshoot), at least as many as aggregated.
  EXPECT_EQ(observer.last.cells_done, 2u);
  EXPECT_EQ(observer.last.cells_total, 2u);
  EXPECT_EQ(observer.last.runs_done, observer.last.runs_total);
  EXPECT_GE(observer.last.runs_done,
            static_cast<long long>(results[0].stats.completion.trials() +
                                   results[1].stats.completion.trials()));
}

// --- harness lowering ----------------------------------------------------

/// One high-P paper cell (U=0.5, lambda=1e-4, SCP costs, k=5, D=10000,
/// f2/f1=2) as a one-cell experiment running `scheme`.
harness::ExperimentSpec paper_cell_spec(const std::string& scheme) {
  harness::ExperimentSpec spec;
  spec.id = "budget";
  spec.title = "one paper cell";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {scheme};
  spec.rows = {{0.5, 1.0e-4, {}}};
  return spec;
}

TEST(BudgetedRun, TimeToTargetPrecisionProbe) {
  // A_D_S at a fixed 10,000 runs vs a budget targeting a 0.01 Wilson
  // half-width on P: the budget meets the target in at least 5x fewer
  // runs, and stops at the same count on 1 and 4 threads.
  MonteCarloConfig fixed;
  fixed.runs = 10'000;
  fixed.seed = 0x5EED5EED;
  const auto jobs = harness::experiment_jobs(paper_cell_spec("A_D_S"), fixed);
  ASSERT_EQ(jobs.size(), 1u);
  const auto& job = jobs[0];
  std::vector<std::size_t> budgeted_runs;
  for (int threads : {1, 4}) {
    MonteCarloConfig budgeted = job.config;
    budgeted.threads = threads;
    budgeted.budget.target_p_halfwidth = 0.01;
    const auto stats = run_cell(*job.setup, job.factory, budgeted);
    EXPECT_LE(stats.completion.wilson_halfwidth(), 0.01) << threads;
    EXPECT_LE(5 * stats.completion.trials(), 10'000u) << threads;
    budgeted_runs.push_back(stats.completion.trials());
  }
  EXPECT_EQ(budgeted_runs[0], budgeted_runs[1]);
}

TEST(BudgetedRun, ExperimentSpecBudgetLowersToEveryCell) {
  auto spec = paper_cell_spec("Poisson");
  spec.budget.target_p_halfwidth = 0.02;

  MonteCarloConfig config;
  config.runs = 10'000;
  const auto jobs = harness::experiment_jobs(spec, config);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].config.budget.enabled());
  EXPECT_DOUBLE_EQ(jobs[0].config.budget.target_p_halfwidth, 0.02);

  const auto sweep = harness::run_sweep({spec}, config);
  const auto trials =
      sweep.experiments[0].cells[0][0].completion.trials();
  EXPECT_LT(trials, 10'000u);
  // perf.total_runs counts where budgeted cells actually stopped.
  EXPECT_EQ(sweep.perf.total_runs, static_cast<long long>(trials));
}

TEST(BudgetedRun, SweepReportCarriesBudgetAndAchievedPrecision) {
  auto spec = paper_cell_spec("Poisson");
  spec.budget.target_p_halfwidth = 0.02;

  MonteCarloConfig config;
  config.runs = 10'000;
  harness::JsonReportOptions options;
  options.include_perf = false;
  const std::string json =
      harness::sweep_json(harness::run_sweep({spec}, config), options);
  EXPECT_NE(json.find("\"budget\""), std::string::npos);
  EXPECT_NE(json.find("\"target_p_halfwidth\": 0.02"), std::string::npos);
  EXPECT_NE(json.find("\"runs_executed\""), std::string::npos);
  EXPECT_NE(json.find("\"p_halfwidth\""), std::string::npos);
  EXPECT_NE(json.find("\"e_rel_halfwidth\""), std::string::npos);
}

}  // namespace
}  // namespace adacheck::sim

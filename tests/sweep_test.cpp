// The sweep subsystem: flat-queue batching, policy reuse, and the
// JSON perf report's determinism guarantees.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "policy/factory.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "tests/test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace adacheck::harness {
namespace {

using testutil::basic_setup;

/// A small custom spec (not a paper table) exercising DVS + inner SCPs.
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.id = "sweeptest";
  spec.title = "sweep test grid";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D_S"};
  spec.rows = {{0.76, 1.4e-3, {}}, {0.80, 1.6e-3, {}}};
  return spec;
}

void expect_same_stats(const sim::CellStats& a, const sim::CellStats& b) {
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
    // Fixed-grain chunking makes aggregation bit-identical, not just
    // close: chunk boundaries and merge order never depend on the
    // executing threads.
    EXPECT_DOUBLE_EQ(lhs->mean(), rhs->mean());
    EXPECT_DOUBLE_EQ(lhs->variance(), rhs->variance());
    EXPECT_DOUBLE_EQ(lhs->min(), rhs->min());
    EXPECT_DOUBLE_EQ(lhs->max(), rhs->max());
  }
}

TEST(Sweep, MatchesSequentialRunExperiment) {
  const auto spec = small_spec();
  sim::MonteCarloConfig config;
  config.runs = 300;
  config.seed = 0xABCD;
  const auto sequential = run_experiment(spec, config);
  const auto sweep = run_sweep({spec}, config);
  ASSERT_EQ(sweep.experiments.size(), 1u);
  const auto& swept = sweep.experiments[0];
  ASSERT_EQ(swept.cells.size(), sequential.cells.size());
  for (std::size_t r = 0; r < sequential.cells.size(); ++r) {
    for (std::size_t s = 0; s < sequential.cells[r].size(); ++s) {
      expect_same_stats(sequential.cells[r][s], swept.cells[r][s]);
    }
  }
}

TEST(Sweep, PerfMetricsPopulated) {
  sim::MonteCarloConfig config;
  config.runs = 100;
  const auto sweep = run_sweep({small_spec()}, config);
  EXPECT_EQ(sweep.perf.cells, 4u);  // 2 rows x 2 schemes
  EXPECT_EQ(sweep.perf.total_runs, 400);
  EXPECT_GT(sweep.perf.wall_seconds, 0.0);
  EXPECT_GT(sweep.perf.runs_per_second, 0.0);
  EXPECT_GE(sweep.perf.threads, 1);
}

TEST(Sweep, PerfThreadsReportsAppliedParallelismNotTheCap) {
  sim::MonteCarloConfig config;
  config.runs = 100;     // 1 chunk per cell -> 4 chunks total
  config.threads = 64;   // far above both the chunk count and the pool
  const auto sweep = run_sweep({small_spec()}, config);
  EXPECT_GE(sweep.perf.threads, 1);
  EXPECT_LE(sweep.perf.threads, 4);  // clamped to the chunk count
  EXPECT_LE(sweep.perf.threads, util::ThreadPool::shared().size() + 1);
}

TEST(Sweep, JsonByteIdenticalAcrossThreadCounts) {
  const auto spec = small_spec();
  sim::MonteCarloConfig serial;
  serial.runs = 300;
  serial.seed = 0x15DEAD;
  serial.threads = 1;
  sim::MonteCarloConfig parallel = serial;
  parallel.threads = 4;

  JsonReportOptions options;
  options.include_perf = false;  // timing legitimately differs
  const std::string a = sweep_json(run_sweep({spec}, serial), options);
  const std::string b = sweep_json(run_sweep({spec}, parallel), options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"adacheck-sweep-v6\""), std::string::npos);
  EXPECT_NE(a.find("\"scheme\": \"A_D_S\""), std::string::npos);
  EXPECT_NE(a.find("\"environment\""), std::string::npos);
  EXPECT_NE(a.find("\"name\": \"poisson\""), std::string::npos);
}

TEST(Sweep, JsonPerfSectionPresentByDefault) {
  sim::MonteCarloConfig config;
  config.runs = 50;
  const auto json = sweep_json(run_sweep({small_spec()}, config));
  EXPECT_NE(json.find("\"perf\""), std::string::npos);
  EXPECT_NE(json.find("\"runs_per_second\""), std::string::npos);
}

TEST(Sweep, MultipleSpecsKeepTheirSlices) {
  auto spec_a = small_spec();
  auto spec_b = small_spec();
  spec_b.id = "sweeptest-b";
  spec_b.rows = {{0.92, 1.0e-4, {}}};
  sim::MonteCarloConfig config;
  config.runs = 100;
  const auto sweep = run_sweep({spec_a, spec_b}, config);
  ASSERT_EQ(sweep.experiments.size(), 2u);
  EXPECT_EQ(sweep.experiments[0].cells.size(), 2u);
  EXPECT_EQ(sweep.experiments[1].cells.size(), 1u);
  // Same spec content -> same seeds -> spec_a's first row must match a
  // standalone run.
  const auto standalone = run_experiment(spec_a, config);
  expect_same_stats(standalone.cells[0][0], sweep.experiments[0].cells[0][0]);
}

/// Wrapper hiding a policy's reset support, forcing the per-run
/// factory fallback.
class NoResetPolicy final : public sim::ICheckpointPolicy {
 public:
  explicit NoResetPolicy(std::unique_ptr<sim::ICheckpointPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bool reset() override { return false; }
  sim::Decision initial(const sim::ExecContext& ctx) override {
    return inner_->initial(ctx);
  }
  sim::Decision on_fault(const sim::ExecContext& ctx) override {
    return inner_->on_fault(ctx);
  }
  std::optional<sim::Decision> on_commit(const sim::ExecContext& ctx) override {
    return inner_->on_commit(ctx);
  }

 private:
  std::unique_ptr<sim::ICheckpointPolicy> inner_;
};

TEST(Sweep, PolicyReuseMatchesFreshConstruction) {
  // reset()-reused policies must be indistinguishable from per-run
  // fresh instances.
  const auto setup = testutil::dvs_setup(7'800.0, 10'000.0, 5, 1.4e-3);
  sim::MonteCarloConfig config;
  config.runs = 500;
  config.seed = 77;
  const auto reused =
      sim::run_cell(setup, policy::make_policy_factory("A_D_S"), config);
  const auto fresh = sim::run_cell(
      setup,
      [] {
        return std::make_unique<NoResetPolicy>(policy::make_policy("A_D_S"));
      },
      config);
  expect_same_stats(reused, fresh);
}

TEST(Sweep, ResettablePolicyBuiltOncePerChunk) {
  const auto setup = basic_setup(1'000.0, 10'000.0);
  sim::MonteCarloConfig config;
  config.runs = 600;  // 3 chunks of 256/256/88
  config.threads = 1;
  auto constructions = std::make_shared<std::atomic<int>>(0);
  const auto stats = sim::run_cell(
      setup,
      [constructions] {
        ++*constructions;
        return policy::make_policy("Poisson");
      },
      config);
  EXPECT_EQ(stats.completion.trials(), 600u);
  EXPECT_EQ(constructions->load(), 3);
}

TEST(Sweep, NonResettablePolicyBuiltPerRun) {
  const auto setup = basic_setup(1'000.0, 10'000.0);
  const sim::Decision plan = testutil::plain_plan(setup, 100.0);
  sim::MonteCarloConfig config;
  config.runs = 100;
  config.threads = 1;
  auto constructions = std::make_shared<std::atomic<int>>(0);
  const auto stats = sim::run_cell(
      setup,
      [constructions, plan] {
        ++*constructions;
        // ScriptedPolicy keeps per-run cursor state and does not
        // override reset().
        return std::make_unique<testutil::ScriptedPolicy>(plan);
      },
      config);
  EXPECT_EQ(stats.completion.trials(), 100u);
  EXPECT_EQ(constructions->load(), 100);
}

// --- shared cells: one execution per distinct result key ---------------

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_bits(const util::RunningStats& a, const util::RunningStats& b,
                      const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(bits(a.mean()), bits(b.mean())) << what;
  EXPECT_EQ(bits(a.variance()), bits(b.variance())) << what;
  EXPECT_EQ(bits(a.min()), bits(b.min())) << what;
  EXPECT_EQ(bits(a.max()), bits(b.max())) << what;
}

/// Every stat and every metric value of two cell results, bit for bit.
void expect_same_result(const sim::CellResult& a, const sim::CellResult& b) {
  EXPECT_EQ(a.stats.completion.trials(), b.stats.completion.trials());
  EXPECT_EQ(a.stats.completion.successes(), b.stats.completion.successes());
  EXPECT_EQ(a.stats.aborted_runs, b.stats.aborted_runs);
  EXPECT_EQ(a.stats.validation_failures, b.stats.validation_failures);
  expect_same_bits(a.stats.energy_success, b.stats.energy_success, "E");
  expect_same_bits(a.stats.energy_all, b.stats.energy_all, "energy_all");
  expect_same_bits(a.stats.finish_time_success, b.stats.finish_time_success,
                   "finish_time");
  expect_same_bits(a.stats.faults, b.stats.faults, "faults");
  expect_same_bits(a.stats.rollbacks, b.stats.rollbacks, "rollbacks");
  expect_same_bits(a.stats.corrections, b.stats.corrections, "corrections");
  expect_same_bits(a.stats.high_speed_cycles, b.stats.high_speed_cycles,
                   "high_speed_cycles");
  ASSERT_EQ(a.metrics.groups.size(), b.metrics.groups.size());
  for (std::size_t g = 0; g < a.metrics.groups.size(); ++g) {
    const auto& lhs = a.metrics.groups[g];
    const auto& rhs = b.metrics.groups[g];
    EXPECT_EQ(lhs.recorder, rhs.recorder);
    ASSERT_EQ(lhs.entries.size(), rhs.entries.size()) << lhs.recorder;
    for (std::size_t e = 0; e < lhs.entries.size(); ++e) {
      EXPECT_EQ(lhs.entries[e].key, rhs.entries[e].key);
      EXPECT_EQ(bits(lhs.entries[e].value), bits(rhs.entries[e].value))
          << lhs.recorder << "." << lhs.entries[e].key;
    }
  }
}

std::vector<sim::CellJob> jobs_for(const std::vector<ExperimentSpec>& specs,
                                   const sim::MonteCarloConfig& config) {
  std::vector<sim::CellJob> jobs;
  for (const auto& spec : specs) {
    auto more = experiment_jobs(spec, config);
    std::move(more.begin(), more.end(), std::back_inserter(jobs));
  }
  return jobs;
}

/// Runs the jobs with sharing, then every alias again alone (no key,
/// so nothing shared) and compares the two results bit for bit.
/// Returns the number of aliases.
std::size_t expect_aliases_match_fresh_runs(
    const std::vector<sim::CellJob>& jobs, int threads) {
  sim::RunCellsOptions options;
  options.threads = threads;
  std::size_t shared = 0;
  options.cells_shared = &shared;
  const auto results = sim::run_cells_ex(jobs, options);
  std::map<std::string, std::size_t> first;
  std::size_t aliases = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (first.try_emplace(jobs[j].key, j).second) continue;
    ++aliases;
    SCOPED_TRACE("alias " + std::to_string(j) + " of " +
                 std::to_string(first[jobs[j].key]));
    auto config = jobs[j].config;
    config.threads = 1;
    expect_same_result(
        results[j], sim::run_cell_ex(jobs[j].setup, jobs[j].factory, config));
  }
  EXPECT_EQ(shared, aliases);
  return aliases;
}

/// Runs per cell for the shipped documents: one chunk per cell keeps
/// the suite quick under ThreadSanitizer's repeats.
constexpr int kRuns = 64;

scenario::ScenarioSpec shipped(const std::string& name) {
  return scenario::load_scenario_file(
      (std::filesystem::path(ADACHECK_SCENARIO_DIR) / name).string());
}

/// A scenario's classic specs and config at `runs` runs per cell.
std::pair<std::vector<ExperimentSpec>, sim::MonteCarloConfig> bound(
    const scenario::ScenarioSpec& doc, int runs) {
  auto config = scenario::monte_carlo_config(doc);
  config.runs = runs;
  return {scenario::bind_experiments(doc), config};
}

TEST(SharedCells, EveryShippedScenarioAliasEqualsAFreshRun) {
  std::size_t aliases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(ADACHECK_SCENARIO_DIR))) {
    const std::string file = entry.path().filename().string();
    if (entry.path().extension() != ".json" || file.rfind("campaign_", 0) == 0)
      continue;
    SCOPED_TRACE(file);
    const auto [specs, config] = bound(shipped(file), kRuns);
    const std::size_t found =
        expect_aliases_match_fresh_runs(jobs_for(specs, config), 4);
    if (file == "paper_tables.json") {
      EXPECT_EQ(found, 78u);
    }
    aliases += found;
  }
  EXPECT_GE(aliases, 78u);
}

TEST(SharedCells, PaperTablesAliasesMatchFreshRunsInEveryEnvironment) {
  const auto [specs, config] = bound(shipped("paper_tables.json"), kRuns);
  for (const char* env : {"poisson", "bursty-orbit", "weibull-infant"}) {
    SCOPED_TRACE(env);
    const auto jobs = jobs_for(with_environments(specs, {env}), config);
    ASSERT_EQ(jobs.size(), 208u);
    EXPECT_EQ(expect_aliases_match_fresh_runs(jobs, 4), 78u);
  }
}

/// A grid that reaches every optional input a key must hold: three
/// replicas, overhead faults, a budget, validated traced runs, both
/// extra metric recorders and re-planning at commits.  Its CCP-flavor
/// twin differs only in id and in swapped store/compare costs.
std::vector<ExperimentSpec> synthetic_twins() {
  ExperimentSpec scp;
  scp.id = "synthetic-scp";
  scp.costs = {2.0, 20.0, 3.0};
  scp.deadline = 10'000.0;
  scp.fault_tolerance = 5;
  scp.processors = 3;
  scp.faults_during_overhead = true;
  scp.recompute_at_commit = true;
  scp.budget.target_p_halfwidth = 0.05;
  scp.budget.min_runs = 256;
  scp.budget.max_runs = 1024;
  scp.schemes = {"Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C", "A_D-est"};
  scp.rows = {{0.76, 1.4e-3, {}}, {0.84, 2.0e-3, {}}};
  ExperimentSpec ccp = scp;
  ccp.id = "synthetic-ccp";
  std::swap(ccp.costs.store, ccp.costs.compare);
  return {scp, ccp};
}

TEST(SharedCells, SyntheticGridAliasesMatchFreshRuns) {
  sim::MonteCarloConfig config;
  config.runs = 512;
  config.seed = 0x5A5A;
  config.validate = true;
  config.metrics = sim::make_metric_suite({"tails", "checkpoints"});
  const auto jobs = jobs_for(synthetic_twins(), config);
  // Poisson, k-f-t, A_D and A_D-est of both rows repeat; the two
  // inner-checkpoint schemes see different t_s and t_cp.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(expect_aliases_match_fresh_runs(jobs, threads), 8u);
  }
}

TEST(SharedCells, KeyChangesWithEveryInputButNames) {
  ExperimentSpec spec = small_spec();
  spec.fault_tolerance = 5;
  const sim::SimSetup base = make_setup(spec, spec.rows[0]);
  sim::MonteCarloConfig base_config;
  base_config.runs = 500;
  base_config.seed = 11;

  for (const std::string scheme : {"Poisson", "A_D_S"}) {
    SCOPED_TRACE(scheme);
    const auto key = [&](const sim::SimSetup& setup,
                         const sim::MonteCarloConfig& config,
                         const std::string& name = "",
                         std::size_t util_level = 0, bool recompute = false) {
      return cell_result_key(setup, name.empty() ? scheme : name, util_level,
                             recompute, config);
    };
    const std::string reference = key(base, base_config);

    using SetupEdit = std::function<void(sim::SimSetup&)>;
    const std::vector<std::pair<const char*, SetupEdit>> setup_edits = {
        {"cycles", [](auto& s) { s.task.cycles += 1.0; }},
        {"deadline", [](auto& s) { s.task.deadline += 1.0; }},
        {"period", [](auto& s) { s.task.period = 20'000.0; }},
        {"k", [](auto& s) { s.task.fault_tolerance += 1; }},
        {"store", [](auto& s) { s.costs.store += 1.0; }},
        {"compare", [](auto& s) { s.costs.compare += 1.0; }},
        {"rollback", [](auto& s) { s.costs.rollback += 1.0; }},
        {"f1", [](auto& s) {
           s.processor = model::DvsProcessor(
               {{0.9, s.processor.level(0).voltage}, s.processor.level(1)});
         }},
        {"V1", [](auto& s) {
           s.processor = model::DvsProcessor(
               {{1.0, s.processor.level(0).voltage + 0.1},
                s.processor.level(1)});
         }},
        {"f2", [](auto& s) {
           s.processor = model::DvsProcessor(
               {s.processor.level(0), {2.5, s.processor.level(1).voltage}});
         }},
        {"V2", [](auto& s) {
           s.processor = model::DvsProcessor(
               {s.processor.level(0),
                {2.0, s.processor.level(1).voltage + 0.1}});
         }},
        {"third level", [](auto& s) {
           s.processor = model::DvsProcessor(
               {s.processor.level(0), s.processor.level(1), {3.0, 4.0}});
         }},
        {"lambda", [](auto& s) { s.fault_model.rate *= 1.5; }},
        {"overhead faults",
         [](auto& s) { s.fault_model.faults_during_overhead = true; }},
        {"processors", [](auto& s) { s.fault_model.processors = 3; }},
        {"arrival", [](auto& s) {
           s.environment.arrival = model::ArrivalKind::kGamma;
         }},
        {"shape", [](auto& s) { s.environment.shape = 0.7; }},
        {"burst", [](auto& s) { s.environment.burst.enabled = true; }},
        {"burst rate",
         [](auto& s) { s.environment.burst.rate_multiplier = 12.0; }},
        {"quiet dwell",
         [](auto& s) { s.environment.burst.mean_quiet_dwell = 2300.0; }},
        {"burst dwell",
         [](auto& s) { s.environment.burst.mean_burst_dwell = 250.0; }},
        {"common cause",
         [](auto& s) { s.environment.common_cause_fraction = 0.25; }},
    };
    for (const auto& [what, edit] : setup_edits) {
      sim::SimSetup setup = base;
      edit(setup);
      EXPECT_NE(key(setup, base_config), reference) << what;
    }

    using ConfigEdit = std::function<void(sim::MonteCarloConfig&)>;
    const std::vector<std::pair<const char*, ConfigEdit>> config_edits = {
        {"runs", [](auto& c) { c.runs += 1; }},
        {"seed", [](auto& c) { c.seed += 1; }},
        {"validate", [](auto& c) { c.validate = true; }},
        {"p target", [](auto& c) { c.budget.target_p_halfwidth = 0.01; }},
        {"e target", [](auto& c) { c.budget.target_e_rel_halfwidth = 0.01; }},
        {"min runs", [](auto& c) { c.budget.min_runs = 256; }},
        {"max runs", [](auto& c) { c.budget.max_runs = 4096; }},
        {"tails", [](auto& c) { c.metrics = sim::make_metric_suite({"tails"}); }},
        {"checkpoints",
         [](auto& c) { c.metrics = sim::make_metric_suite({"checkpoints"}); }},
    };
    for (const auto& [what, edit] : config_edits) {
      sim::MonteCarloConfig config = base_config;
      edit(config);
      EXPECT_NE(key(base, config), reference) << what;
    }
    EXPECT_NE(key(base, base_config, scheme == "Poisson" ? "k-f-t" : "A_D_C"),
              reference);
    EXPECT_NE(key(base, base_config, "", 1), reference);
    EXPECT_NE(key(base, base_config, "", 0, true), reference);

    // Names and the parallelism cap are not inputs of a run.
    sim::SimSetup renamed = base;
    renamed.task.name = "another-table";
    EXPECT_EQ(key(renamed, base_config), reference);
    sim::MonteCarloConfig wider = base_config;
    wider.threads = 4;
    EXPECT_EQ(key(base, wider), reference);
  }

  // Swapping t_s and t_cp keeps c = t_s + t_cp: only the schemes that
  // plan inner checkpoints read the two apart.
  sim::SimSetup swapped = base;
  std::swap(swapped.costs.store, swapped.costs.compare);
  for (const std::string scheme : {"Poisson", "k-f-t", "A_D", "A_D-est"}) {
    EXPECT_EQ(cell_result_key(swapped, scheme, 0, false, base_config),
              cell_result_key(base, scheme, 0, false, base_config))
        << scheme;
  }
  for (const std::string scheme : {"A_D_S", "A_D_C", "A_D_S-est"}) {
    EXPECT_NE(cell_result_key(swapped, scheme, 0, false, base_config),
              cell_result_key(base, scheme, 0, false, base_config))
        << scheme;
  }
}

// --- observer and cancellation contracts under sharing -----------------

/// Counts callbacks per flat cell and keeps the last progress report.
class CountingObserver final : public sim::ISweepObserver {
 public:
  void on_cell_start(std::size_t cell) override { ++starts[cell]; }
  void on_cell_done(std::size_t cell, const sim::CellResult&) override {
    ++dones[cell];
  }
  void on_progress(const sim::SweepProgress& progress) override {
    last = progress;
  }
  std::map<std::size_t, int> starts;
  std::map<std::size_t, int> dones;
  sim::SweepProgress last;
};

TEST(SharedCells, PaperTablesObserverSeesEveryFlatCellOnce) {
  auto [specs, config] = bound(shipped("paper_tables.json"), kRuns);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    CountingObserver observer;
    SweepOptions options;
    options.observer = &observer;
    const auto sweep = run_sweep(specs, config, options);
    EXPECT_EQ(sweep.perf.cells, 208u);
    EXPECT_EQ(sweep.perf.cells_shared, 78u);
    EXPECT_EQ(sweep.perf.total_runs, 208 * kRuns);  // aggregated, not executed
    ASSERT_EQ(observer.dones.size(), 208u);
    ASSERT_EQ(observer.starts.size(), 208u);
    for (const auto& [cell, count] : observer.dones) {
      EXPECT_EQ(count, 1) << cell;
      EXPECT_EQ(observer.starts[cell], 1) << cell;
    }
    EXPECT_EQ(observer.last.cells_done, 208u);
    EXPECT_EQ(observer.last.cells_total, 208u);
    // Runs count what executed: the 130 distinct cells.
    EXPECT_EQ(observer.last.runs_done, 130 * kRuns);
    EXPECT_EQ(observer.last.runs_total, 130 * kRuns);
  }
}

TEST(SharedCells, PaperTablesStreamEqualsTheUnsharedBatchStream) {
  auto [specs, config] = bound(shipped("paper_tables.json"), kRuns);
  // Reference: every cell executed on its own, keys cleared.
  auto unshared = jobs_for(specs, config);
  for (auto& job : unshared) job.key.clear();
  std::ostringstream reference;
  {
    JsonlCellStream stream(reference, sweep_cell_refs(specs));
    sim::RunCellsOptions options;
    options.threads = 1;
    options.observer = &stream;
    std::size_t shared = 1;
    options.cells_shared = &shared;
    sim::run_cells_ex(unshared, options);
    EXPECT_EQ(shared, 0u);
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    std::ostringstream bytes;
    JsonlCellStream stream(bytes, sweep_cell_refs(specs));
    SweepOptions options;
    options.observer = &stream;
    run_sweep(specs, config, options);
    EXPECT_EQ(bytes.str(), reference.str());
  }
}

/// Requests a stop from the first on_cell_done.
class StopOnFirstDone final : public sim::ISweepObserver {
 public:
  explicit StopOnFirstDone(sim::CancellationToken& token) : token_(token) {}
  void on_cell_done(std::size_t, const sim::CellResult&) override {
    ++dones;
    token_.request_stop();
  }
  int dones = 0;

 private:
  sim::CancellationToken& token_;
};

TEST(SharedCells, StopFromTheFirstCellDoneStillCancels) {
  auto [specs, config] = bound(shipped("paper_tables.json"), kRuns);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    sim::CancellationToken token;
    StopOnFirstDone observer(token);
    SweepOptions options;
    options.observer = &observer;
    options.cancel = &token;
    EXPECT_THROW(run_sweep(specs, config, options), sim::SweepCancelled);
    EXPECT_GE(observer.dones, 1);
    EXPECT_LT(observer.dones, 208);
  }
}

TEST(SharedCells, RunnerJobsCarryNoKey) {
  sim::CellJob job{std::nullopt, {}, {}};
  job.config.runs = 10;
  job.runner = [](const sim::MonteCarloConfig&, int, int) {
    return sim::MetricSet::for_cell(testutil::basic_setup(100.0, 1'000.0),
                                    nullptr);
  };
  job.key = "k";
  EXPECT_THROW(sim::run_cells_ex({job}), std::invalid_argument);
  EXPECT_THROW(sim::run_cell_ex(job.setup, job.factory, job.config),
               std::invalid_argument);
}

}  // namespace
}  // namespace adacheck::harness

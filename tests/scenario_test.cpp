// The scenario subsystem: schema parsing, path-qualified validation
// errors with "did you mean" suggestions, binder lowering onto
// harness::ExperimentSpec, and the acceptance pin — a scenario-driven
// sweep is byte-identical in its cell section to the programmatic
// equivalent at any thread count.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "harness/json_report.hpp"
#include "harness/paper_params.hpp"
#include "harness/stream_report.hpp"
#include "harness/sweep.hpp"
#include "scenario/binder.hpp"
#include "util/json.hpp"

namespace adacheck::scenario {
namespace {

constexpr const char* kMinimal = R"json({
  "schema": "adacheck-scenario-v1",
  "name": "mini",
  "experiments": [
    {"id": "grid", "fault_tolerance": 5,
     "schemes": ["Poisson", "A_D_S"],
     "grid": {"utilization": [0.76, 0.8], "lambda": [1.4e-3, 1.6e-3]}}
  ]
})json";

TEST(ScenarioParse, DefaultsApplied) {
  const auto scenario = parse_scenario_text(kMinimal);
  EXPECT_EQ(scenario.name, "mini");
  EXPECT_EQ(scenario.title, "mini");
  EXPECT_EQ(scenario.config.runs, 10'000);
  EXPECT_EQ(scenario.config.seed, 0x5EED5EEDu);
  EXPECT_FALSE(scenario.config.validate);
  EXPECT_EQ(scenario.config.threads, 0);
  EXPECT_TRUE(scenario.output.empty());
  ASSERT_EQ(scenario.experiments.size(), 1u);
  const auto& exp = scenario.experiments[0];
  EXPECT_EQ(exp.title, "grid");
  EXPECT_DOUBLE_EQ(exp.costs.store, 2.0);
  EXPECT_DOUBLE_EQ(exp.costs.compare, 20.0);
  EXPECT_DOUBLE_EQ(exp.deadline, 10'000.0);
  EXPECT_DOUBLE_EQ(exp.speed_ratio, 2.0);
  EXPECT_DOUBLE_EQ(exp.voltage_kappa, 4.0);
  EXPECT_EQ(exp.util_level, 0u);
  EXPECT_EQ(exp.environment, "poisson");
  EXPECT_TRUE(exp.environments.empty());
}

TEST(ScenarioParse, GridExpandsRowMajor) {
  const auto specs = bind_experiments(parse_scenario_text(kMinimal));
  ASSERT_EQ(specs.size(), 1u);
  const auto& rows = specs[0].rows;
  ASSERT_EQ(rows.size(), 4u);  // utilization outer, lambda inner
  EXPECT_DOUBLE_EQ(rows[0].utilization, 0.76);
  EXPECT_DOUBLE_EQ(rows[0].lambda, 1.4e-3);
  EXPECT_DOUBLE_EQ(rows[1].utilization, 0.76);
  EXPECT_DOUBLE_EQ(rows[1].lambda, 1.6e-3);
  EXPECT_DOUBLE_EQ(rows[2].utilization, 0.8);
  EXPECT_DOUBLE_EQ(rows[2].lambda, 1.4e-3);
  EXPECT_DOUBLE_EQ(rows[3].utilization, 0.8);
  EXPECT_DOUBLE_EQ(rows[3].lambda, 1.6e-3);
  EXPECT_EQ(specs[0].schemes,
            (std::vector<std::string>{"Poisson", "A_D_S"}));
}

TEST(ScenarioParse, ExplicitRowsPreserved) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "rows",
    "experiments": [
      {"id": "r", "fault_tolerance": 1, "schemes": ["A_D"],
       "rows": [{"utilization": 0.92, "lambda": 1e-4},
                {"utilization": 0.95, "lambda": 2e-4}]}
    ]})json");
  const auto specs = bind_experiments(scenario);
  ASSERT_EQ(specs[0].rows.size(), 2u);
  EXPECT_DOUBLE_EQ(specs[0].rows[1].utilization, 0.95);
  EXPECT_DOUBLE_EQ(specs[0].rows[1].lambda, 2e-4);
}

TEST(ScenarioBind, TableReferenceMatchesPaperParams) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "t",
    "experiments": [{"table": "table1a"}]})json");
  const auto specs = bind_experiments(scenario);
  const auto reference = harness::table1a();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].id, reference.id);
  EXPECT_EQ(specs[0].title, reference.title);
  EXPECT_EQ(specs[0].schemes, reference.schemes);
  EXPECT_EQ(specs[0].rows.size(), reference.rows.size());
  EXPECT_EQ(specs[0].environment, "poisson");
}

TEST(ScenarioBind, EnvironmentAxisUsesWithEnvironmentsNaming) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "axis",
    "experiments": [
      {"table": "table1a",
       "environments": ["poisson", "bursty-orbit"]}
    ]})json");
  const auto specs = bind_experiments(scenario);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].id, "table1a@poisson");
  EXPECT_EQ(specs[0].environment, "poisson");
  EXPECT_EQ(specs[1].id, "table1a@bursty-orbit");
  EXPECT_EQ(specs[1].environment, "bursty-orbit");
}

constexpr const char* kKnobs = R"json({
  "schema": "adacheck-scenario-v1", "name": "knobs",
  "experiments": [
    {"id": "knobs", "fault_tolerance": 5, "processors": 3,
     "faults_during_overhead": true, "recompute_at_commit": true,
     "schemes": ["Poisson", "A_D_S"],
     "rows": [{"utilization": 0.8, "lambda": 1.6e-3}]}
  ]})json";

/// A one-row inline experiment carrying `knob`, a `"key": value` member.
std::string with_knob(const std::string& knob) {
  std::string text = R"json({"schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [{"id": "a", "schemes": ["A_D"], )json";
  text += knob;
  text += R"json(, "rows": [{"utilization": 0.8, "lambda": 1e-3}]}]})json";
  return text;
}

TEST(ScenarioParse, EngineAndReplanKnobs) {
  const auto defaults = parse_scenario_text(kMinimal).experiments[0];
  EXPECT_EQ(defaults.processors, 2);
  EXPECT_FALSE(defaults.faults_during_overhead);
  EXPECT_FALSE(defaults.recompute_at_commit);

  const auto exp = parse_scenario_text(kKnobs).experiments[0];
  EXPECT_EQ(exp.processors, 3);
  EXPECT_TRUE(exp.faults_during_overhead);
  EXPECT_TRUE(exp.recompute_at_commit);
  // The range ends are accepted.
  EXPECT_EQ(parse_scenario_text(with_knob(R"("processors": 2)"))
                .experiments[0]
                .processors,
            2);
  EXPECT_EQ(parse_scenario_text(with_knob(R"("processors": 32)"))
                .experiments[0]
                .processors,
            32);
}

TEST(ScenarioBind, EngineAndReplanKnobsReachTheEngine) {
  const auto specs = bind_experiments(parse_scenario_text(kKnobs));
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].processors, 3);
  EXPECT_TRUE(specs[0].faults_during_overhead);
  EXPECT_TRUE(specs[0].recompute_at_commit);

  const auto jobs = harness::experiment_jobs(specs[0], {});
  ASSERT_EQ(jobs.size(), 2u);  // one row x {Poisson, A_D_S}
  for (const auto& job : jobs) {
    EXPECT_EQ(job.setup.fault_model.processors, 3);
    EXPECT_TRUE(job.setup.fault_model.faults_during_overhead);
  }
  // recompute_at_commit reaches the adaptive scheme only.
  EXPECT_EQ(jobs[0].factory()->commit_rule(), sim::CommitRule::kKeep);
  EXPECT_EQ(jobs[1].factory()->commit_rule(), sim::CommitRule::kCustom);

  // Left at their defaults, the knobs bind to the paper's setup.
  const auto plain = harness::experiment_jobs(
      bind_experiments(parse_scenario_text(kMinimal))[0], {});
  EXPECT_EQ(plain[1].setup.fault_model.processors, 2);
  EXPECT_FALSE(plain[1].setup.fault_model.faults_during_overhead);
  EXPECT_EQ(plain[1].factory()->commit_rule(),
            sim::CommitRule::kDeadlineGuard);
}

TEST(ScenarioParse, OutputObjectAndMetricsBlock) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "m",
    "output": {"report": "m_sweep.json", "jsonl": "m_cells.jsonl"},
    "metrics": ["tails", "checkpoints"],
    "experiments": [{"table": "table1a"}]})json");
  EXPECT_EQ(scenario.output, "m_sweep.json");
  EXPECT_EQ(scenario.output_jsonl, "m_cells.jsonl");
  EXPECT_EQ(scenario.metrics,
            (std::vector<std::string>{"tails", "checkpoints"}));
  // The binder lowers the names onto a sim::MetricSuite.
  const auto config = monte_carlo_config(scenario);
  ASSERT_NE(config.metrics, nullptr);
  EXPECT_EQ(config.metrics->names(), scenario.metrics);

  // The plain-string form still works and implies no JSONL stream.
  const auto plain = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "p",
    "output": "p_sweep.json",
    "experiments": [{"table": "table1a"}]})json");
  EXPECT_EQ(plain.output, "p_sweep.json");
  EXPECT_TRUE(plain.output_jsonl.empty());
  EXPECT_EQ(monte_carlo_config(plain).metrics, nullptr);
}

TEST(ScenarioBind, MonteCarloConfigCarriesTheKnobs) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "cfg",
    "config": {"runs": 123, "seed": 77, "validate": true, "threads": 2},
    "experiments": [{"table": "table1a"}]})json");
  const auto config = monte_carlo_config(scenario);
  EXPECT_EQ(config.runs, 123);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_TRUE(config.validate);
  EXPECT_EQ(config.threads, 2);
}

TEST(ScenarioParse, BudgetDisabledByDefault) {
  const auto scenario = parse_scenario_text(kMinimal);
  EXPECT_FALSE(scenario.budget.enabled());
  EXPECT_FALSE(monte_carlo_config(scenario).budget.enabled());
}

TEST(ScenarioParse, BudgetObjectParsedAndLowered) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "budgeted",
    "config": {"runs": 5000},
    "budget": {"target_p_halfwidth": 0.02, "target_e_rel_halfwidth": 0.05,
               "min_runs": 256, "max_runs": 2048},
    "experiments": [{"table": "table1a"}]})json");
  EXPECT_TRUE(scenario.budget.enabled());
  EXPECT_DOUBLE_EQ(scenario.budget.target_p_halfwidth, 0.02);
  EXPECT_DOUBLE_EQ(scenario.budget.target_e_rel_halfwidth, 0.05);
  EXPECT_EQ(scenario.budget.min_runs, 256);
  EXPECT_EQ(scenario.budget.max_runs, 2048);
  // The binder lowers the budget into the Monte-Carlo config, so every
  // cell of the scenario runs under it.
  const auto config = monte_carlo_config(scenario);
  EXPECT_TRUE(config.budget.enabled());
  EXPECT_DOUBLE_EQ(config.budget.target_p_halfwidth, 0.02);
  EXPECT_EQ(config.budget.resolved_max(config.runs), 2048);
}

// --- the acceptance pin --------------------------------------------------

TEST(ScenarioRun, ByteIdenticalToProgrammaticTableSweep) {
  auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "table1",
    "config": {"runs": 120},
    "experiments": [{"table": "table1a"}, {"table": "table1b"}]})json");

  sim::MonteCarloConfig config;
  config.runs = 120;
  const auto programmatic =
      harness::run_sweep({harness::table1a(), harness::table1b()}, config);

  const harness::JsonReportOptions no_perf{/*include_perf=*/false};
  EXPECT_EQ(harness::sweep_json(run_scenario(scenario), no_perf),
            harness::sweep_json(programmatic, no_perf));
}

TEST(ScenarioRun, ByteIdenticalAcrossThreadCounts) {
  auto scenario = parse_scenario_text(kMinimal);
  scenario.config.runs = 300;
  scenario.config.threads = 1;
  const harness::JsonReportOptions no_perf{/*include_perf=*/false};
  const std::string serial =
      harness::sweep_json(run_scenario(scenario), no_perf);
  scenario.config.threads = 4;
  const std::string parallel =
      harness::sweep_json(run_scenario(scenario), no_perf);
  EXPECT_EQ(serial, parallel);
}

// An embedded NUL is a legal JSON string character (the parser accepts
// \u0000); every byte after it must survive into the report and the
// JSONL stream.
TEST(ScenarioRun, EmbeddedNulInAnIdRoundTripsThroughEveryEncoder) {
  auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "nul",
    "config": {"runs": 32},
    "experiments": [{"id": "sm\u0000oke", "fault_tolerance": 5,
                     "schemes": ["Poisson"],
                     "rows": [{"utilization": 0.8, "lambda": 1.4e-3}]}]
  })json");
  const std::string id("sm\0oke", 6);
  ASSERT_EQ(scenario.experiments[0].id, id);

  std::ostringstream jsonl;
  harness::JsonlCellStream stream(
      jsonl, harness::sweep_cell_refs(bind_experiments(scenario)));
  harness::SweepOptions options;
  options.observer = &stream;
  const harness::JsonReportOptions no_perf{/*include_perf=*/false};
  const auto report = util::json::parse(
      harness::sweep_json(run_scenario(scenario, options), no_perf));
  EXPECT_EQ(report.find("experiments")->as_array()[0].find("id")->as_string(),
            id);

  const std::string line = jsonl.str();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  const auto cell = util::json::parse(line.substr(0, line.size() - 1));
  EXPECT_EQ(cell.find("experiment")->as_string(), id);
}

// --- DAG graph sections ---------------------------------------------------

constexpr const char* kGraphScenario = R"json({
  "schema": "adacheck-scenario-v1",
  "name": "dag",
  "output": "dag_sweep.json",
  "graphs": [
    {"id": "diamond",
     "graph": {
       "period": 18000, "deadline": 17000,
       "nodes": [
         {"name": "split", "cycles": 1500, "fault_tolerance": 2},
         {"name": "left", "cycles": 4000, "fault_tolerance": 2,
          "resources": ["bus"]},
         {"name": "right", "cycles": 3500, "fault_tolerance": 2,
          "resources": ["bus"]},
         {"name": "join", "cycles": 1000, "fault_tolerance": 2}
       ],
       "edges": [
         {"from": "split", "to": "left"}, {"from": "split", "to": "right"},
         {"from": "left", "to": "join"}, {"from": "right", "to": "join"}
       ],
       "resources": [{"name": "bus", "capacity": 1}]},
     "workers": 2,
     "schedulers": ["edf", "critical-path"],
     "lambdas": [1e-4, 8e-4]}
  ]})json";

TEST(ScenarioParse, GraphDefaultsAndBinding) {
  const auto scenario = parse_scenario_text(kGraphScenario);
  EXPECT_TRUE(scenario.experiments.empty());
  ASSERT_EQ(scenario.graphs.size(), 1u);
  const auto& parsed = scenario.graphs[0];
  EXPECT_EQ(parsed.title, "diamond");  // defaults to the id
  EXPECT_EQ(parsed.instances, 8);
  EXPECT_TRUE(parsed.skip_late_jobs);
  EXPECT_EQ(parsed.environment, "poisson");

  const auto graphs = bind_graphs(scenario);
  ASSERT_EQ(graphs.size(), 1u);
  const auto& spec = graphs[0];
  EXPECT_EQ(spec.id, "diamond");
  EXPECT_EQ(spec.graph.name, "diamond");
  EXPECT_EQ(spec.workers, 2);
  ASSERT_EQ(spec.graph.nodes.size(), 4u);
  EXPECT_EQ(spec.graph.edges.size(), 4u);
  // Resource name references were resolved to declared-list indices.
  ASSERT_EQ(spec.graph.nodes[1].resources.size(), 1u);
  EXPECT_EQ(spec.graph.resources[spec.graph.nodes[1].resources[0]].name,
            "bus");
  EXPECT_EQ(spec.schedulers,
            (std::vector<std::string>{"edf", "critical-path"}));
  EXPECT_EQ(spec.lambdas, (std::vector<double>{1e-4, 8e-4}));
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioParse, GraphNodeOwnReleaseStream) {
  const auto scenario = parse_scenario_text(R"json({
    "schema": "adacheck-scenario-v1", "name": "tasks",
    "graphs": [
      {"id": "tasks", "schedulers": ["edf"], "lambdas": [1e-3],
       "instances": 10,
       "graph": {"period": 40000,
                 "nodes": [{"name": "a", "cycles": 2600, "period": 10000,
                            "deadline": 6000},
                           {"name": "t", "cycles": 4000, "period": 40000,
                            "phase": 5000},
                           {"name": "g", "cycles": 100}]}}
    ]})json");
  const auto& nodes = scenario.graphs[0].graph.nodes;
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(nodes[0].period, 10'000.0);
  EXPECT_DOUBLE_EQ(nodes[0].relative_deadline(), 6'000.0);
  EXPECT_DOUBLE_EQ(nodes[0].phase, 0.0);
  EXPECT_DOUBLE_EQ(nodes[1].relative_deadline(), 40'000.0);  // implicit
  EXPECT_DOUBLE_EQ(nodes[1].phase, 5'000.0);
  EXPECT_FALSE(nodes[2].own_period());  // released with the graph
}

TEST(ScenarioBind, GraphEnvironmentAxisExpandsLikeExperiments) {
  auto scenario = parse_scenario_text(kGraphScenario);
  scenario.graphs[0].environments = {"poisson", "bursty-orbit"};
  const auto graphs = bind_graphs(scenario);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].id, "diamond@poisson");
  EXPECT_EQ(graphs[0].environment, "poisson");
  EXPECT_EQ(graphs[1].id, "diamond@bursty-orbit");
  EXPECT_EQ(graphs[1].environment, "bursty-orbit");
}

// --- path-qualified validation errors ------------------------------------

void expect_scenario_error(std::string_view text,
                           const std::string& expected_path,
                           std::string_view message_piece) {
  try {
    parse_scenario_text(text);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.path(), expected_path) << e.what();
    EXPECT_NE(std::string(e.what()).find(message_piece), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioErrors, UnknownEnvironmentSuggestsTheClosestName) {
  try {
    parse_scenario_text(R"json({
      "schema": "adacheck-scenario-v1", "name": "x",
      "experiments": [
        {"id": "a", "schemes": ["A_D"], "environment": "bursty-orbitt",
         "grid": {"utilization": [0.8], "lambda": [1e-3]}}
      ]})json");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_STREQ(e.what(),
                 "experiments[0].environment: unknown name "
                 "\"bursty-orbitt\", did you mean \"bursty-orbit\"?");
  }
}

TEST(ScenarioErrors, MetricsAndOutputViolations) {
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "metrics": ["tailz"],
    "experiments": [{"table": "table1a"}]})json",
                        "metrics[0]", "did you mean \"tails\"?");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "metrics": ["tails", "tails"],
    "experiments": [{"table": "table1a"}]})json",
                        "metrics[1]", "duplicate metric recorder");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "output": 7,
    "experiments": [{"table": "table1a"}]})json",
                        "output", "expected string");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "output": {"reprot": "a.json"},
    "experiments": [{"table": "table1a"}]})json",
                        "output", "did you mean \"report\"?");
}

TEST(ScenarioErrors, UnknownSchemeAndTableAndKey) {
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "schemes": ["A_D", "Poison"],
       "grid": {"utilization": [0.8], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0].schemes[1]",
                        "did you mean \"Poisson\"?");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [{"table": "table5a"}]})json",
                        "experiments[0].table", "unknown name \"table5a\"");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "scheems": ["A_D"],
       "grid": {"utilization": [0.8], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0]",
                        "unknown key \"scheems\", did you mean \"schemes\"?");
}

TEST(ScenarioErrors, BudgetViolations) {
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "budget": {"target_p_halfwith": 0.02},
    "experiments": [{"table": "table1a"}]})json",
                        "budget",
                        "did you mean \"target_p_halfwidth\"?");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "budget": {"min_runs": 256},
    "experiments": [{"table": "table1a"}]})json",
                        "budget", "set at least one of");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "budget": {"target_p_halfwidth": 0.02, "min_runs": 512, "max_runs": 256},
    "experiments": [{"table": "table1a"}]})json",
                        "budget.min_runs", "must be <= max_runs");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "budget": {"target_p_halfwidth": -0.5},
    "experiments": [{"table": "table1a"}]})json",
                        "budget.target_p_halfwidth", "must be > 0");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "budget": {"target_p_halfwidth": 0.02, "max_runs": 0},
    "experiments": [{"table": "table1a"}]})json",
                        "budget.max_runs", "must be >= 1");
}

TEST(ScenarioErrors, TypeAndRangeViolations) {
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "config": {"runs": "many"},
    "experiments": [{"table": "table1a"}]})json",
                        "config.runs", "expected number, got string");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "config": {"seed": -1},
    "experiments": [{"table": "table1a"}]})json",
                        "config.seed", "must be >= 0");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "schemes": ["A_D"], "util_level": 2,
       "grid": {"utilization": [0.8], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0].util_level", "must be 0 (f1) or 1");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "schemes": ["A_D"],
       "grid": {"utilization": [], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0].grid.utilization",
                        "must not be empty");
}

TEST(ScenarioErrors, EngineAndReplanKnobViolations) {
  expect_scenario_error(with_knob(R"("processors": 1)"),
                        "experiments[0].processors", "must be in [2, 32]");
  expect_scenario_error(with_knob(R"("processors": 33)"),
                        "experiments[0].processors", "must be in [2, 32]");
  expect_scenario_error(with_knob(R"("processors": 2.5)"),
                        "experiments[0].processors", "expected an integer");
  expect_scenario_error(with_knob(R"("processors": "3")"),
                        "experiments[0].processors",
                        "expected number, got string");
  expect_scenario_error(with_knob(R"("faults_during_overhead": 1)"),
                        "experiments[0].faults_during_overhead",
                        "expected boolean, got number");
  expect_scenario_error(with_knob(R"("recompute_at_commit": "yes")"),
                        "experiments[0].recompute_at_commit",
                        "expected boolean, got string");
  // A paper-table reference keeps the paper's setup: the knobs belong
  // to inline experiments, like the other grid knobs.
  for (const char* knob : {"processors", "faults_during_overhead",
                           "recompute_at_commit"}) {
    expect_scenario_error(
        std::string(R"json({"schema": "adacheck-scenario-v1", "name": "x",
          "experiments": [{"table": "table1a", ")json") +
            knob + R"json(": true}]})json",
        "experiments[0]", std::string("unknown key \"") + knob + "\"");
  }
}

TEST(ScenarioErrors, StructuralViolations) {
  expect_scenario_error(R"json({"name": "x", "experiments": []})json", "",
                        "missing required key \"schema\"");
  expect_scenario_error(R"json({
    "schema": "adacheck-sweep-v2", "name": "x",
    "experiments": [{"table": "table1a"}]})json",
                        "schema", "unsupported schema");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "schemes": ["A_D"],
       "rows": [{"utilization": 0.8, "lambda": 1e-3}],
       "grid": {"utilization": [0.8], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0]", "exactly one of \"rows\"");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"id": "a", "schemes": ["A_D"], "environment": "poisson",
       "environments": ["poisson"],
       "grid": {"utilization": [0.8], "lambda": [1e-3]}}
    ]})json",
                        "experiments[0]", "at most one of \"environment\"");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [{"table": "table1a"}, {"table": "table1a"}]})json",
                        "experiments", "duplicate experiment id");
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [
      {"table": "table1a", "deadline": 5000}
    ]})json",
                        "experiments[0]", "unknown key \"deadline\"");
}

TEST(ScenarioErrors, GraphViolations) {
  // Unknown scheduler name, with a did-you-mean suggestion.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edff"], "lambdas": [1e-3],
       "graph": {"period": 100, "nodes": [{"name": "a", "cycles": 10}]}}
    ]})json",
                        "graphs[0].schedulers[0]", "did you mean \"edf\"?");
  // Edge endpoints must name declared nodes.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100,
                 "nodes": [{"name": "split", "cycles": 10},
                           {"name": "join", "cycles": 10}],
                 "edges": [{"from": "split", "to": "jion"}]}}
    ]})json",
                        "graphs[0].graph.edges[0].to",
                        "did you mean \"join\"?");
  // Node resource references must name declared resources.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100,
                 "resources": [{"name": "bus"}],
                 "nodes": [{"name": "a", "cycles": 10,
                            "resources": ["buss"]}]}}
    ]})json",
                        "graphs[0].graph.nodes[0].resources[0]",
                        "did you mean \"bus\"?");
  // Unknown node keys get the same did-you-mean treatment.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100, "nodes": [{"name": "a", "cyles": 10}]}}
    ]})json",
                        "graphs[0].graph.nodes[0]",
                        "did you mean \"cycles\"?");
  // Cyclic graphs are rejected at parse time, path spelled out.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100,
                 "nodes": [{"name": "a", "cycles": 10},
                           {"name": "b", "cycles": 10}],
                 "edges": [{"from": "a", "to": "b"},
                           {"from": "b", "to": "a"}]}}
    ]})json",
                        "graphs[0].graph", "cycle: a -> b -> a");
  // A node's own release stream: each key checked at its path.
  const auto node_error = [](const char* node, const char* at,
                             const char* message) {
    expect_scenario_error(
        std::string(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100, "nodes": [)json") +
            node + "]}}]}",
        at, message);
  };
  node_error(R"({"name": "a", "cycles": 10, "period": 0})",
             "graphs[0].graph.nodes[0].period", "must be > 0");
  node_error(R"({"name": "a", "cycles": 10, "period": 50, "deadline": 60})",
             "graphs[0].graph.nodes[0].deadline",
             "must be <= the node period");
  node_error(R"({"name": "a", "cycles": 10, "deadline": 60})",
             "graphs[0].graph.nodes[0].deadline", "needs a node \"period\"");
  node_error(R"({"name": "a", "cycles": 10, "period": 50, "phase": -1})",
             "graphs[0].graph.nodes[0].phase", "must be >= 0");
  node_error(R"({"name": "a", "cycles": 10, "phase": 5})",
             "graphs[0].graph.nodes[0].phase", "needs a node \"period\"");
  node_error(R"({"name": "a", "cycles": 10, "period": "fast"})",
             "graphs[0].graph.nodes[0].period", "");
  node_error(R"({"name": "a", "cycles": 10, "period": 1e-5})",
             "graphs[0].graph.nodes[0].period", "more than 1e6 jobs");
  // An own-period node takes no edges.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "graphs": [
      {"id": "g", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100,
                 "nodes": [{"name": "a", "cycles": 10},
                           {"name": "b", "cycles": 10, "period": 50}],
                 "edges": [{"from": "a", "to": "b"}]}}
    ]})json",
                        "graphs[0].graph",
                        "node \"b\" has its own period");
  // Ids must be unique across experiments and graphs together.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [{"table": "table1a"}],
    "graphs": [
      {"id": "table1a", "schedulers": ["edf"], "lambdas": [1e-3],
       "graph": {"period": 100, "nodes": [{"name": "a", "cycles": 10}]}}
    ]})json",
                        "graphs", "duplicate experiment id \"table1a\"");
  // A scenario needs at least one of the two sections.
  expect_scenario_error(R"json({
    "schema": "adacheck-scenario-v1", "name": "x",
    "experiments": [], "graphs": []})json",
                        "",
                        "at least one of \"experiments\" or \"graphs\"");
}

TEST(ScenarioErrors, SyntaxErrorsPropagateWithPosition) {
  try {
    parse_scenario_text("{\"schema\": \"adacheck-scenario-v1\",");
    FAIL() << "expected ParseError";
  } catch (const util::json::ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

// --- shipped scenario files ----------------------------------------------

TEST(ScenarioFiles, EveryShippedScenarioValidatesAndBinds) {
  const std::filesystem::path dir = ADACHECK_SCENARIO_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    // Campaign documents live in the same directory but have their own
    // schema and tests (campaign_test.cpp).
    if (entry.path().filename().string().rfind("campaign_", 0) == 0) {
      continue;
    }
    ++count;
    SCOPED_TRACE(entry.path().string());
    const auto scenario = load_scenario_file(entry.path().string());
    const auto specs = bind_experiments(scenario);
    const auto graphs = bind_graphs(scenario);
    EXPECT_FALSE(specs.empty() && graphs.empty());
    std::size_t cells = 0;
    for (const auto& spec : specs) {
      EXPECT_NO_THROW(spec.validate());
      cells += spec.rows.size() * spec.schemes.size();
    }
    for (const auto& graph : graphs) {
      EXPECT_NO_THROW(graph.validate());
      cells += graph.lambdas.size() * graph.schedulers.size();
    }
    EXPECT_GT(cells, 0u);
    EXPECT_FALSE(scenario.output.empty())
        << "shipped scenarios should name their report file";
  }
  EXPECT_GE(count, 12u);  // tables 1-4, paper_tables, environments,
                          // satellite, uav, smoke, dag_*
}

TEST(ScenarioFiles, MissingFileErrorNamesThePath) {
  try {
    load_scenario_file("/nonexistent/nope.json");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nope.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace adacheck::scenario

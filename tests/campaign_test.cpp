// campaign/spec.hpp + campaign/runner.hpp: the adacheck-campaign-v1
// schema, cell fingerprints, the content-addressed result cache, and
// the runner.  The load-bearing properties: a fingerprint depends on
// every result-affecting knob and nothing else, a warm rerun replays
// byte-identical streams with zero simulation runs, and flipping one
// cell's seed re-executes exactly that cell.
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness/stream_report.hpp"
#include "obs/registry.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "util/canonical_json.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace adacheck::campaign {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioError;

const char* kMiniScenario = R"({
  "schema": "adacheck-scenario-v1",
  "name": "mini",
  "config": {"runs": 64, "seed": 5},
  "output": "mini_sweep.json",
  "experiments": [{
    "id": "mini",
    "costs": {"store": 2, "compare": 20, "rollback": 0},
    "fault_tolerance": 5,
    "schemes": ["Poisson"],
    "rows": [{"utilization": 0.8, "lambda": 1.4e-3}]
  }]
})";

/// Fresh per-test scratch directory holding mini.json and the cache.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("adacheck_campaign_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_file("mini.json", kMiniScenario);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << text;
  }

  CampaignSpec mini_campaign(std::vector<std::uint64_t> seeds = {1, 2}) {
    CampaignSpec spec;
    spec.name = "c";
    spec.title = "c";
    spec.cache_dir = (dir_ / "cache").string();
    spec.base_dir = dir_.string();
    MatrixEntry entry;
    entry.scenario = "mini.json";
    entry.seeds = std::move(seeds);
    spec.matrix.push_back(entry);
    return spec;
  }

  fs::path dir_;
};

// --- schema --------------------------------------------------------------

TEST(CampaignSchema, ParsesDefaultsAndOverrides) {
  const auto spec = parse_campaign_text(R"({
    "schema": "adacheck-campaign-v1",
    "name": "study",
    "matrix": [
      {"scenario": "smoke.json", "seeds": [1, 2],
       "environments": ["bursty-orbit"], "runs": 500,
       "budget": {"target_p_halfwidth": 0.01}}
    ]
  })");
  EXPECT_EQ(spec.name, "study");
  EXPECT_EQ(spec.title, "study");            // defaults to name
  EXPECT_EQ(spec.cache_dir, "study_cache");  // defaults to <name>_cache
  ASSERT_EQ(spec.matrix.size(), 1u);
  const auto& entry = spec.matrix[0];
  EXPECT_EQ(entry.scenario, "smoke.json");
  EXPECT_EQ(entry.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(entry.environments, (std::vector<std::string>{"bursty-orbit"}));
  EXPECT_EQ(entry.runs, 500);
  EXPECT_DOUBLE_EQ(entry.budget.target_p_halfwidth, 0.01);
}

TEST(CampaignSchema, UnknownKeySuggestsTheClosest) {
  try {
    parse_campaign_text(R"({"schema": "adacheck-campaign-v1",
                            "name": "c", "matrx": []})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"matrix\"?"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignSchema, EntryKeyTypoIsPathQualified) {
  try {
    parse_campaign_text(R"({"schema": "adacheck-campaign-v1", "name": "c",
                            "matrix": [{"sceanrio": "x.json"}]})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.path(), "matrix[0]");
    EXPECT_NE(std::string(e.what()).find("did you mean \"scenario\"?"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignSchema, UnknownEnvironmentSuggests) {
  try {
    parse_campaign_text(R"({"schema": "adacheck-campaign-v1", "name": "c",
      "matrix": [{"scenario": "x.json",
                  "environments": ["bursty-orbitt"]}]})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"bursty-orbit\"?"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignSchema, RejectsDuplicateAndNegativeSeeds) {
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema": "adacheck-campaign-v1", "name": "c",
                       "matrix": [{"scenario": "x", "seeds": [1, 1]}]})"),
               ScenarioError);
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema": "adacheck-campaign-v1", "name": "c",
                       "matrix": [{"scenario": "x", "seeds": [-1]}]})"),
               ScenarioError);
}

TEST(CampaignSchema, IsCampaignDocumentDispatches) {
  EXPECT_TRUE(is_campaign_document(util::json::parse(
      R"({"schema": "adacheck-campaign-v1", "name": "c", "matrix": []})")));
  EXPECT_FALSE(is_campaign_document(
      util::json::parse(R"({"schema": "adacheck-scenario-v1"})")));
  EXPECT_FALSE(is_campaign_document(util::json::parse("[1]")));
}

// --- fingerprints --------------------------------------------------------

TEST(CampaignFingerprint, StableUnderDocumentKeyReordering) {
  const auto a = scenario::parse_scenario_text(kMiniScenario);
  // The same scenario with every object's keys in a different order.
  const auto b = scenario::parse_scenario_text(R"({
    "experiments": [{
      "rows": [{"lambda": 1.4e-3, "utilization": 0.8}],
      "schemes": ["Poisson"],
      "fault_tolerance": 5,
      "costs": {"rollback": 0, "compare": 20, "store": 2},
      "id": "mini"
    }],
    "output": "mini_sweep.json",
    "config": {"seed": 5, "runs": 64},
    "name": "mini",
    "schema": "adacheck-scenario-v1"
  })");
  EXPECT_EQ(cell_fingerprint_document(a), cell_fingerprint_document(b));
  EXPECT_EQ(cell_fingerprint(a), cell_fingerprint(b));
}

TEST(CampaignFingerprint, SensitiveToEveryResultAffectingKnob) {
  const auto base = scenario::parse_scenario_text(kMiniScenario);
  const std::string fp = cell_fingerprint(base);

  auto seed = base;
  seed.config.seed = 6;
  EXPECT_NE(cell_fingerprint(seed), fp);

  auto runs = base;
  runs.config.runs = 65;
  EXPECT_NE(cell_fingerprint(runs), fp);

  auto validate = base;
  validate.config.validate = true;
  EXPECT_NE(cell_fingerprint(validate), fp);

  auto environment = base;
  environment.experiments[0].spec.environment = "bursty-orbit";
  EXPECT_NE(cell_fingerprint(environment), fp);

  auto budget = base;
  budget.budget.target_p_halfwidth = 0.01;
  EXPECT_NE(cell_fingerprint(budget), fp);

  auto metrics = base;
  metrics.metrics = {"tails"};
  EXPECT_NE(cell_fingerprint(metrics), fp);

  auto row = base;
  row.experiments[0].spec.rows[0].utilization = 0.76;
  EXPECT_NE(cell_fingerprint(row), fp);

  // Bytes after an embedded NUL are part of the identity too.
  auto nul = base;
  nul.experiments[0].spec.id = std::string("mini\0x", 6);
  EXPECT_NE(cell_fingerprint(nul), fp);
}

// processors, faults_during_overhead and recompute_at_commit change
// results, so each must change the fingerprint: otherwise a warm
// campaign would replay a DMR cell's cached result for a TMR cell.
// They are written only off their defaults (DocumentBytesArePinned
// below shows a spec that leaves them alone).
TEST(CampaignFingerprint, SensitiveToTheEngineAndReplanKnobs) {
  const auto base = scenario::parse_scenario_text(kMiniScenario);
  const std::string fp = cell_fingerprint(base);

  auto tmr = base;
  tmr.experiments[0].spec.processors = 3;
  auto overhead = base;
  overhead.experiments[0].spec.faults_during_overhead = true;
  auto recompute = base;
  recompute.experiments[0].spec.recompute_at_commit = true;
  const std::vector<std::string> fingerprints = {
      fp, cell_fingerprint(tmr), cell_fingerprint(overhead),
      cell_fingerprint(recompute)};
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    for (std::size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]) << i << " vs " << j;
    }
  }
  EXPECT_NE(cell_fingerprint_document(tmr).find("\"processors\":3"),
            std::string::npos);
  EXPECT_EQ(cell_fingerprint_document(base).find("processors"),
            std::string::npos);
}

// A node's own release stream changes its schedule, so period,
// deadline and phase are part of the identity; they are written only
// when a node sets them (DocumentBytesArePinned's nodes set none).
TEST(CampaignFingerprint, SensitiveToANodePeriod) {
  const auto base = scenario::parse_scenario_text(R"({
    "schema": "adacheck-scenario-v1",
    "name": "tasks",
    "graphs": [{
      "id": "tasks",
      "graph": {"period": 4000,
                "nodes": [{"name": "a", "cycles": 300, "period": 1000},
                          {"name": "b", "cycles": 500, "period": 2000}]},
      "instances": 2,
      "schedulers": ["edf"],
      "lambdas": [1e-3]
    }]
  })");
  auto slower = base;
  slower.graphs[0].spec.graph.nodes[1].period = 4000.0;
  EXPECT_NE(cell_fingerprint(slower), cell_fingerprint(base));
  EXPECT_NE(cell_fingerprint_document(base).find(
                R"("deadline":2000,"fault_tolerance":0,"name":"b")"),
            std::string::npos)
      << cell_fingerprint_document(base);
}

TEST(CampaignFingerprint, ThreadsAreNotPartOfTheIdentity) {
  const auto base = scenario::parse_scenario_text(kMiniScenario);
  auto threaded = base;
  threaded.config.threads = 7;
  EXPECT_EQ(cell_fingerprint(threaded), cell_fingerprint(base));
}

TEST(CampaignFingerprint, CarriesTheCodeVersion) {
  const auto base = scenario::parse_scenario_text(kMiniScenario);
  const std::string doc = cell_fingerprint_document(base);
  EXPECT_NE(doc.find("\"code_version\":\"" + util::version_string() + "\""),
            std::string::npos)
      << doc;
  // The document is already canonical: re-canonicalizing is a no-op.
  EXPECT_EQ(util::canonical_json(util::json::parse(doc)), doc);
}

// The exact fingerprint bytes of a small spec.  Every byte here is part
// of the cache key: a change to number spelling (runs = 1e6 spells
// "1e+06"), string escaping or member order silently invalidates every
// existing campaign cache, so this text must only change together with
// a deliberate cache-format bump.
TEST(CampaignFingerprint, DocumentBytesArePinned) {
  const auto spec = scenario::parse_scenario_text(R"({
    "schema": "adacheck-scenario-v1",
    "name": "pin",
    "config": {"runs": 1000000, "seed": 9},
    "budget": {"target_p_halfwidth": 0.02, "min_runs": 256,
               "max_runs": 2048},
    "experiments": [{
      "id": "pin",
      "costs": {"store": 2, "compare": 20, "rollback": 0},
      "fault_tolerance": 5,
      "schemes": ["Poisson", "A_D_S"],
      "rows": [{"utilization": 0.76, "lambda": 1.4e-3}]
    }],
    "graphs": [{
      "id": "pair",
      "graph": {
        "period": 9000,
        "deadline": 8500,
        "nodes": [
          {"name": "a", "cycles": 1500, "fault_tolerance": 2,
           "resources": ["bus"]},
          {"name": "b", "cycles": 1000, "fault_tolerance": 1}
        ],
        "edges": [{"from": "a", "to": "b"}],
        "resources": [{"name": "bus", "capacity": 1}]
      },
      "workers": 2,
      "instances": 3,
      "costs": {"store": 2, "compare": 20, "rollback": 0},
      "schedulers": ["edf"],
      "lambdas": [1.4e-3]
    }]
  })");
  const std::string expected =
      R"({"budget":{"max_runs":2048,"min_runs":256,"target_p_halfwidth":0.02},)"
      R"("code_version":")" + util::version_string() + R"(",)"
      R"("config":{"runs":1e+06,"seed":9,"validate":false},)"
      R"("experiments":[{"costs":{"compare":20,"rollback":0,"store":2},)"
      R"("deadline":10000,"environment":"poisson","fault_tolerance":5,)"
      R"("id":"pin","rows":[{"lambda":0.0014,"utilization":0.76}],)"
      R"("schemes":["Poisson","A_D_S"],"speed_ratio":2,"util_level":0,)"
      R"("voltage_kappa":4}],)"
      R"("graphs":[{"costs":{"compare":20,"rollback":0,"store":2},)"
      R"("environment":"poisson","graph":{"deadline":8500,)"
      R"("edges":[{"from":0,"to":1}],)"
      R"("nodes":[{"cycles":1500,"fault_tolerance":2,"name":"a",)"
      R"("policy":"A_D_S","resources":[0]},)"
      R"({"cycles":1000,"fault_tolerance":1,"name":"b","policy":"A_D_S",)"
      R"("resources":[]}],"period":9000,)"
      R"("resources":[{"capacity":1,"name":"bus"}]},)"
      R"("id":"pair","instances":3,"lambdas":[0.0014],"schedulers":["edf"],)"
      R"("skip_late_jobs":true,"speed_ratio":2,"voltage_kappa":4,)"
      R"("workers":2}]})";
  EXPECT_EQ(cell_fingerprint_document(spec), expected);
}

/// The fingerprint document is written canonically in one pass, with
/// no parse and re-serialization: it must be the fixed point of
/// util::canonical_json.
void expect_canonical(const scenario::ScenarioSpec& spec) {
  const std::string doc = cell_fingerprint_document(spec);
  EXPECT_EQ(util::canonical_json(util::json::parse(doc)), doc);
}

TEST(CampaignFingerprint, DocumentIsCanonicalForEveryShippedCell) {
  const fs::path dir = ADACHECK_SCENARIO_DIR;
  std::size_t scenarios = 0, cells = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string schema =
        util::json::parse(text.str()).find("schema")->as_string();
    if (schema == "adacheck-scenario-v1") {
      ++scenarios;
      expect_canonical(scenario::load_scenario_file(entry.path().string()));
    } else if (schema == "adacheck-campaign-v1") {
      for (const auto& cell :
           plan_campaign(load_campaign_file(entry.path().string())).cells) {
        ++cells;
        expect_canonical(cell.resolved);
      }
    }
  }
  EXPECT_GT(scenarios, 10u);
  EXPECT_GT(cells, 0u);
}

TEST(CampaignFingerprint, DocumentIsCanonicalWithEveryOptionalKey) {
  auto spec = scenario::parse_scenario_text(R"({
    "schema": "adacheck-scenario-v1",
    "name": "every key",
    "config": {"runs": 1000000, "seed": 9, "validate": true},
    "budget": {"target_p_halfwidth": 0.02, "target_e_rel_halfwidth": 0.05,
               "min_runs": 256, "max_runs": 2048},
    "metrics": ["tails", "checkpoints"],
    "experiments": [{
      "id": "tmr\u0000\"x\"",
      "costs": {"store": 2.5, "compare": 20, "rollback": 1e-3},
      "deadline": 12345.678,
      "fault_tolerance": 5,
      "speed_ratio": 1.5,
      "voltage_kappa": 3.25,
      "util_level": 1,
      "processors": 3,
      "faults_during_overhead": true,
      "recompute_at_commit": true,
      "schemes": ["Poisson", "A_D_S", "A_D_C"],
      "rows": [{"utilization": 0.76, "lambda": 1.4e-3},
               {"utilization": 0.9, "lambda": 2e-5}]
    }],
    "graphs": [{
      "id": "tasks",
      "graph": {
        "period": 9000,
        "deadline": 8500,
        "nodes": [
          {"name": "a", "cycles": 300, "period": 1000, "deadline": 900,
           "phase": 50, "fault_tolerance": 2, "policy": "A_D_C",
           "resources": ["bus", "dma"]},
          {"name": "b", "cycles": 500, "fault_tolerance": 1},
          {"name": "c", "cycles": 700.25, "resources": ["dma"]}
        ],
        "edges": [{"from": "b", "to": "c"}],
        "resources": [{"name": "bus", "capacity": 1},
                      {"name": "dma", "capacity": 2}]
      },
      "workers": 2,
      "instances": 3,
      "skip_late_jobs": false,
      "costs": {"store": 2, "compare": 20, "rollback": 0},
      "speed_ratio": 2.5,
      "voltage_kappa": 4,
      "schedulers": ["edf", "fifo"],
      "lambdas": [1.4e-3, 0]
    }]
  })");
  // A seed past 2^53 is spelled as the double a reader makes of it, and
  // per-spec budgets are set by callers, not by the scenario schema.
  spec.config.seed = 18446744073709551557ULL;
  sim::RunBudget budget;
  budget.target_p_halfwidth = 0.01;
  budget.target_e_rel_halfwidth = 0.03;
  budget.min_runs = 100;
  budget.max_runs = 100000;
  spec.experiments[0].spec.budget = budget;
  spec.graphs[0].spec.budget = budget;
  expect_canonical(spec);
  const std::string doc = cell_fingerprint_document(spec);
  for (const char* key :
       {"\"processors\":3", "\"faults_during_overhead\":true",
        "\"recompute_at_commit\":true", "\"metrics\":[",
        "\"target_e_rel_halfwidth\":0.03", "\"phase\":50",
        "\"seed\":18446744073709551616"}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key << " in " << doc;
  }
}

// --- planning ------------------------------------------------------------

TEST_F(CampaignTest, PlanExpandsSeedsByEnvironments) {
  auto spec = mini_campaign({1, 2});
  spec.matrix[0].environments = {"poisson", "bursty-orbit"};
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 4u);  // 2 environments x 2 seeds
  EXPECT_EQ(plan.cells[0].environment, "poisson");
  EXPECT_EQ(plan.cells[0].seed, 1u);
  EXPECT_EQ(plan.cells[1].seed, 2u);
  EXPECT_EQ(plan.cells[2].environment, "bursty-orbit");
  EXPECT_EQ(plan.cells[0].sweep_cells, 1u);
  // Every cell's identity is distinct.
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.cells.size(); ++j) {
      EXPECT_NE(plan.cells[i].fingerprint, plan.cells[j].fingerprint);
    }
  }
}

TEST_F(CampaignTest, ConcurrentPlanStampsEachCellLikeTheSerialFunctions) {
  auto spec = mini_campaign({1, 2, 3, 4});
  spec.matrix[0].environments = {"poisson", "bursty-orbit", "weibull-aging"};
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 12u);  // 3 environments x 4 seeds
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const CampaignCell& cell = plan.cells[i];
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.environment, spec.matrix[0].environments[i / 4]);
    EXPECT_EQ(cell.seed, spec.matrix[0].seeds[i % 4]);
    EXPECT_EQ(cell.fingerprint, cell_fingerprint(cell.resolved)) << i;
    EXPECT_EQ(cell.sweep_cells,
              harness::sweep_cell_refs(
                  scenario::bind_experiments(cell.resolved),
                  scenario::bind_graphs(cell.resolved))
                  .size())
        << i;
  }
}

// A matrix environment collapses a scenario's own environment axis in
// place: each entry binds one spec under its base id, runs in the
// override environment, and fingerprints like the same scenario
// written with that environment in place.
TEST_F(CampaignTest, EnvironmentOverrideCollapsesTheScenarioAxis) {
  const auto scenario_text = [](const std::string& environment) {
    return R"({
      "schema": "adacheck-scenario-v1",
      "name": "axis",
      "config": {"runs": 64, "seed": 5},
      "experiments": [{
        "id": "mini", "fault_tolerance": 5, "schemes": ["Poisson"],
        "rows": [{"utilization": 0.8, "lambda": 1.4e-3}], )" +
           environment + R"(
      }],
      "graphs": [{
        "id": "pair",
        "graph": {"period": 9000,
                  "nodes": [{"name": "a", "cycles": 1500},
                            {"name": "b", "cycles": 1000}],
                  "edges": [{"from": "a", "to": "b"}]},
        "schedulers": ["edf"], "lambdas": [1e-3], )" +
           environment + R"(
      }]
    })";
  };
  write_file("axis.json",
             scenario_text(R"("environments": ["poisson", "bursty-orbit"])"));
  write_file("in_place.json",
             scenario_text(R"("environment": "bursty-orbit")"));
  // Without an override the axis expands.
  const auto axis = scenario::load_scenario_file((dir_ / "axis.json").string());
  ASSERT_EQ(scenario::bind_experiments(axis).size(), 2u);
  ASSERT_EQ(scenario::bind_graphs(axis).size(), 2u);

  auto spec = mini_campaign({1});
  spec.matrix[0].scenario = "axis.json";
  spec.matrix[0].environments = {"bursty-orbit"};
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 1u);
  const CampaignCell& cell = plan.cells[0];
  const auto experiments = scenario::bind_experiments(cell.resolved);
  const auto graphs = scenario::bind_graphs(cell.resolved);
  ASSERT_EQ(experiments.size(), 1u);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(experiments[0].id, "mini");
  EXPECT_EQ(graphs[0].id, "pair");
  EXPECT_EQ(experiments[0].environment, "bursty-orbit");
  EXPECT_EQ(graphs[0].environment, "bursty-orbit");
  EXPECT_EQ(cell.sweep_cells, 2u);

  auto in_place = mini_campaign({1});
  in_place.matrix[0].scenario = "in_place.json";
  const auto reference = plan_campaign(in_place);
  ASSERT_EQ(reference.cells.size(), 1u);
  EXPECT_EQ(cell_fingerprint_document(cell.resolved),
            cell_fingerprint_document(reference.cells[0].resolved));
  EXPECT_EQ(cell.fingerprint, reference.cells[0].fingerprint);
}

TEST_F(CampaignTest, PlanAppliesRunsAndBudgetOverrides) {
  auto spec = mini_campaign({1});
  spec.matrix[0].runs = 128;
  spec.matrix[0].budget.target_p_halfwidth = 0.05;
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].resolved.config.runs, 128);
  EXPECT_DOUBLE_EQ(plan.cells[0].resolved.budget.target_p_halfwidth, 0.05);
}

TEST_F(CampaignTest, MissingScenarioRefNamesThePath) {
  auto spec = mini_campaign({1});
  spec.matrix[0].scenario = "nope.json";
  try {
    plan_campaign(spec);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nope.json"), std::string::npos);
  }
}

// --- the cache -----------------------------------------------------------

TEST_F(CampaignTest, WarmRerunIsFullyCachedAndByteIdentical) {
  const auto spec = mini_campaign();

  CampaignOptions options;
  options.threads = 1;
  std::ostringstream first_stream;
  options.jsonl = &first_stream;
  const auto first = run_campaign(spec, options);
  ASSERT_EQ(first.outcomes.size(), 2u);
  for (const auto& outcome : first.outcomes) {
    EXPECT_EQ(outcome.status, CellStatus::kExecuted);
    EXPECT_GT(outcome.runs_executed, 0);
    EXPECT_EQ(outcome.result_hash.size(), 32u);
  }

  // Second run at a DIFFERENT thread count: everything cached, zero
  // simulation runs, byte-identical stream.
  options.threads = 2;
  std::ostringstream second_stream;
  options.jsonl = &second_stream;
  const auto second = run_campaign(spec, options);
  for (std::size_t i = 0; i < second.outcomes.size(); ++i) {
    EXPECT_EQ(second.outcomes[i].status, CellStatus::kCached);
    EXPECT_EQ(second.outcomes[i].runs_executed, 0);
    EXPECT_EQ(second.outcomes[i].result_hash, first.outcomes[i].result_hash);
  }
  EXPECT_EQ(first_stream.str(), second_stream.str());
  EXPECT_FALSE(first_stream.str().empty());

  // The deterministic report section is identical too.
  CampaignReportOptions report;
  report.include_execution = false;
  EXPECT_EQ(campaign_json(spec, first, report),
            campaign_json(spec, second, report));
}

TEST_F(CampaignTest, CachedResultHashIsThePayloadsAndTheMetas) {
  const auto spec = mini_campaign({1});
  CampaignOptions options;
  options.threads = 1;
  run_campaign(spec, options);
  const auto warm = run_campaign(spec, options);
  ASSERT_EQ(warm.outcomes[0].status, CellStatus::kCached);

  const fs::path stem =
      fs::path(spec.cache_dir) / warm.plan.cells[0].fingerprint;
  std::ifstream payload(stem.string() + ".jsonl", std::ios::binary);
  std::ifstream meta(stem.string() + ".meta.json", std::ios::binary);
  std::stringstream payload_bytes, meta_bytes;
  payload_bytes << payload.rdbuf();
  meta_bytes << meta.rdbuf();
  EXPECT_EQ(warm.outcomes[0].result_hash,
            util::content_hash128(payload_bytes.str()).hex());
  const auto parsed = util::json::parse(meta_bytes.str());
  EXPECT_EQ(warm.outcomes[0].result_hash,
            parsed.find("result_hash")->as_string());
}

TEST_F(CampaignTest, WarmRerunExecutesOnlyTheCorruptedCell) {
  const auto spec = mini_campaign({1, 2, 3, 4, 5, 6, 7, 8, 9});
  CampaignReportOptions no_perf;
  no_perf.include_execution = false;

  CampaignOptions options;
  std::ostringstream cold_jsonl;
  options.jsonl = &cold_jsonl;
  const auto cold = run_campaign(spec, options);
  const std::string fp = cold.plan.cells[4].fingerprint;
  write_file("cache/" + fp + ".jsonl", "{\"corrupt\":true}\n");

  std::mutex mu;
  std::vector<std::size_t> executed;
  options.before_execute = [&](const CampaignCell& cell) {
    std::lock_guard<std::mutex> lock(mu);
    executed.push_back(cell.index);
  };
  std::ostringstream warm_jsonl;
  options.jsonl = &warm_jsonl;
  obs::Registry& registry = obs::Registry::instance();
  const bool was_enabled = registry.enabled();
  const long long hits = registry.counter("campaign.cache_hits").value();
  const long long corrupt = registry.counter("campaign.cache_corrupt").value();
  registry.set_enabled(true);
  const auto warm = run_campaign(spec, options);
  registry.set_enabled(was_enabled);

  EXPECT_EQ(executed, std::vector<std::size_t>{4});
  EXPECT_EQ(registry.counter("campaign.cache_hits").value() - hits, 8);
  EXPECT_EQ(registry.counter("campaign.cache_corrupt").value() - corrupt, 1);
  for (std::size_t i = 0; i < warm.outcomes.size(); ++i) {
    EXPECT_EQ(warm.outcomes[i].status,
              i == 4 ? CellStatus::kExecuted : CellStatus::kCached);
    EXPECT_EQ(warm.outcomes[i].result_hash, cold.outcomes[i].result_hash);
  }
  EXPECT_EQ(warm_jsonl.str(), cold_jsonl.str());
  EXPECT_EQ(campaign_json(spec, warm, no_perf),
            campaign_json(spec, cold, no_perf));
}

TEST_F(CampaignTest, FreshRerunOverATornEntryCommitsAValidOne) {
  const auto spec = mini_campaign({1});
  CampaignOptions options;
  options.threads = 1;
  const auto first = run_campaign(spec, options);
  const std::string fp = first.plan.cells[0].fingerprint;
  // A torn write: half the payload under a meta that names the whole.
  const fs::path payload = fs::path(spec.cache_dir) / (fp + ".jsonl");
  fs::resize_file(payload, fs::file_size(payload) / 2);
  ASSERT_FALSE(cache_probe(spec.cache_dir, fp));

  options.resume = false;
  const auto fresh = run_campaign(spec, options);
  EXPECT_EQ(fresh.outcomes[0].status, CellStatus::kExecuted);
  const auto entries = cache_ls(spec.cache_dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].valid) << entries[0].defect;
  for (const auto& file : fs::directory_iterator(spec.cache_dir)) {
    const std::string name = file.path().filename().string();
    EXPECT_TRUE(name == fp + ".jsonl" || name == fp + ".meta.json") << name;
  }
}

TEST_F(CampaignTest, SeedFlipReexecutesExactlyThatCell) {
  CampaignOptions options;
  options.threads = 1;
  run_campaign(mini_campaign({1, 2}), options);

  const auto flipped = run_campaign(mini_campaign({1, 3}), options);
  ASSERT_EQ(flipped.outcomes.size(), 2u);
  EXPECT_EQ(flipped.outcomes[0].status, CellStatus::kCached);    // seed 1
  EXPECT_EQ(flipped.outcomes[1].status, CellStatus::kExecuted);  // seed 3
}

TEST_F(CampaignTest, FreshIgnoresTheCache) {
  CampaignOptions options;
  options.threads = 1;
  run_campaign(mini_campaign(), options);

  options.resume = false;
  const auto fresh = run_campaign(mini_campaign(), options);
  for (const auto& outcome : fresh.outcomes) {
    EXPECT_EQ(outcome.status, CellStatus::kExecuted);
  }
}

TEST_F(CampaignTest, CorruptedPayloadIsAMissNotAnError) {
  const auto spec = mini_campaign({1});
  CampaignOptions options;
  options.threads = 1;
  const auto first = run_campaign(spec, options);
  ASSERT_EQ(first.outcomes[0].status, CellStatus::kExecuted);

  // Flip the cached payload; the meta hash no longer matches.
  const auto plan = plan_campaign(spec);
  const fs::path payload =
      fs::path(spec.cache_dir) / (plan.cells[0].fingerprint + ".jsonl");
  ASSERT_TRUE(fs::exists(payload));
  std::ofstream(payload, std::ios::binary) << "{\"corrupt\":true}\n";

  const auto second = run_campaign(spec, options);
  EXPECT_EQ(second.outcomes[0].status, CellStatus::kExecuted);
  EXPECT_EQ(second.outcomes[0].result_hash, first.outcomes[0].result_hash);
  EXPECT_TRUE(cache_probe(spec.cache_dir, plan.cells[0].fingerprint));
}

TEST_F(CampaignTest, PayloadWithoutMetaIsAMiss) {
  const auto spec = mini_campaign({1});
  const auto plan = plan_campaign(spec);
  fs::create_directories(spec.cache_dir);
  std::ofstream(fs::path(spec.cache_dir) /
                    (plan.cells[0].fingerprint + ".jsonl"),
                std::ios::binary)
      << "orphan payload\n";
  EXPECT_FALSE(cache_probe(spec.cache_dir, plan.cells[0].fingerprint));
}

// --- failure handling ----------------------------------------------------

TEST_F(CampaignTest, FailFastSkipsTheRemainingCells) {
  CampaignOptions options;
  options.threads = 1;
  options.fail_fast = true;
  std::atomic<int> attempts{0};
  options.before_execute = [&](const CampaignCell&) {
    ++attempts;
    // Slow enough that cells started beside this one would be seen.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("injected failure");
  };
  const auto result = run_campaign(mini_campaign({1, 2, 3, 4}), options);
  ASSERT_EQ(result.outcomes.size(), 4u);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kFailed);
  EXPECT_NE(result.outcomes[0].error.find("injected failure"),
            std::string::npos);
  for (std::size_t i = 1; i < result.outcomes.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].status, CellStatus::kSkipped) << i;
  }
  EXPECT_TRUE(result.any_failed());
  // No cell after the failure is even attempted.
  EXPECT_EQ(attempts.load(), 1);
}

TEST_F(CampaignTest, WithoutFailFastEveryCellIsAttempted) {
  CampaignOptions options;
  options.threads = 1;
  options.before_execute = [](const CampaignCell&) {
    throw std::runtime_error("injected failure");
  };
  const auto result = run_campaign(mini_campaign({1, 2}), options);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kFailed);
}

TEST_F(CampaignTest, FailedCellDoesNotPoisonTheCache) {
  const auto spec = mini_campaign({1});
  CampaignOptions options;
  options.threads = 1;
  options.before_execute = [](const CampaignCell&) {
    throw std::runtime_error("injected failure");
  };
  const auto failed = run_campaign(spec, options);
  ASSERT_EQ(failed.outcomes[0].status, CellStatus::kFailed);

  // Next run (no injection) must execute — nothing was committed.
  const auto retry = run_campaign(spec, CampaignOptions{.threads = 1});
  EXPECT_EQ(retry.outcomes[0].status, CellStatus::kExecuted);
}

// --- report --------------------------------------------------------------

TEST_F(CampaignTest, ReportCarriesPlanExecutionAndVersion) {
  const auto spec = mini_campaign({1});
  const auto result = run_campaign(spec, CampaignOptions{.threads = 1});
  const std::string report = campaign_json(spec, result);
  EXPECT_NE(report.find("\"schema\": \"adacheck-campaign-report-v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"version\": \"" + util::version_string() + "\""),
            std::string::npos);
  EXPECT_NE(report.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(report.find("\"status\": \"executed\""), std::string::npos);

  CampaignReportOptions no_execution;
  no_execution.include_execution = false;
  const std::string stable = campaign_json(spec, result, no_execution);
  EXPECT_EQ(stable.find("\"execution\""), std::string::npos);
  EXPECT_EQ(stable.find("wall_seconds"), std::string::npos);
}

// --- shipped campaign documents ------------------------------------------

TEST(CampaignFiles, EveryShippedCampaignValidatesAndPlans) {
  const fs::path dir = ADACHECK_SCENARIO_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    if (entry.path().filename().string().rfind("campaign_", 0) != 0) {
      continue;
    }
    ++count;
    SCOPED_TRACE(entry.path().string());
    const auto spec = load_campaign_file(entry.path().string());
    EXPECT_FALSE(spec.output.empty())
        << "shipped campaigns should name their report file";
    const auto plan = plan_campaign(spec);
    EXPECT_FALSE(plan.cells.empty());
    for (const auto& cell : plan.cells) {
      EXPECT_EQ(cell.fingerprint.size(), 32u);
      EXPECT_GT(cell.sweep_cells, 0u);
    }
  }
  EXPECT_GE(count, 2u);  // campaign_smoke, campaign_tables
}

// --- concurrent execution ------------------------------------------------

TEST_F(CampaignTest, ConcurrentMissesMatchSequentialByteForByte) {
  auto spec = mini_campaign({1, 2, 3, 4});
  // A fifth cell repeats the second's fingerprint: an alias, replayed
  // inside its primary's task.
  spec.matrix.push_back(mini_campaign({2}).matrix[0]);

  CampaignOptions sequential;
  sequential.cell_parallelism = 1;
  std::ostringstream seq_jsonl, seq_status;
  sequential.jsonl = &seq_jsonl;
  sequential.status = &seq_status;
  const auto seq = run_campaign(spec, sequential);

  CampaignOptions parallel;
  parallel.resume = false;  // force every cell to execute again
  parallel.cell_parallelism = 0;
  std::ostringstream par_jsonl, par_status;
  parallel.jsonl = &par_jsonl;
  parallel.status = &par_status;
  const auto par = run_campaign(spec, parallel);

  ASSERT_EQ(seq.outcomes.size(), 5u);
  ASSERT_EQ(seq.plan.cells[4].fingerprint, seq.plan.cells[1].fingerprint);
  for (std::size_t i = 0; i < seq.outcomes.size(); ++i) {
    const CellStatus expected = i < 4 ? CellStatus::kExecuted
                                      : CellStatus::kCached;
    EXPECT_EQ(seq.outcomes[i].status, expected) << i;
    EXPECT_EQ(par.outcomes[i].status, expected) << i;
    EXPECT_EQ(par.outcomes[i].result_hash, seq.outcomes[i].result_hash);
  }
  EXPECT_EQ(par.outcomes[4].result_hash, par.outcomes[1].result_hash);
  // Emission is plan-ordered regardless of completion order, so the
  // streams are byte-identical at any parallelism.
  EXPECT_EQ(par_jsonl.str(), seq_jsonl.str());
  EXPECT_EQ(par_status.str(), seq_status.str());
}

TEST_F(CampaignTest, DuplicateFingerprintsExecuteOnce) {
  // Same scenario, same seed, twice: identical fingerprints.  The
  // first occurrence executes, the duplicate replays its committed
  // result — they never race on the same cache files.
  auto spec = mini_campaign({9});
  spec.matrix.push_back(spec.matrix[0]);

  CampaignOptions options;
  std::ostringstream jsonl;
  options.jsonl = &jsonl;
  const auto result = run_campaign(spec, options);

  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_EQ(result.plan.cells[0].fingerprint,
            result.plan.cells[1].fingerprint);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kExecuted);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kCached);
  EXPECT_EQ(result.outcomes[0].result_hash, result.outcomes[1].result_hash);

  // --fresh re-executes the first occurrence and overwrites its entry;
  // the duplicate still replays what it just committed.
  options.resume = false;
  const auto fresh = run_campaign(spec, options);
  EXPECT_EQ(fresh.outcomes[0].status, CellStatus::kExecuted);
  EXPECT_EQ(fresh.outcomes[1].status, CellStatus::kCached);
  EXPECT_EQ(fresh.outcomes[1].runs_executed, 0);
  EXPECT_EQ(fresh.outcomes[1].result_hash, fresh.outcomes[0].result_hash);
}

TEST_F(CampaignTest, FailFastSkipsADuplicateThatFollowsTheFailure) {
  // Plan: seed 1, seed 2 (fails), seed 1 again.  The third cell
  // replays inside the first one's task before the second fails, but
  // it comes after the failure in plan order: skipped, nothing emitted.
  auto spec = mini_campaign({1, 2});
  spec.matrix.push_back(mini_campaign({1}).matrix[0]);

  CampaignOptions options;
  options.fail_fast = true;
  options.before_execute = [](const CampaignCell& cell) {
    if (cell.seed == 2) throw std::runtime_error("injected failure");
  };
  std::ostringstream jsonl, status;
  options.jsonl = &jsonl;
  options.status = &status;
  const auto result = run_campaign(spec, options);

  ASSERT_EQ(result.outcomes.size(), 3u);
  ASSERT_EQ(result.plan.cells[2].fingerprint, result.plan.cells[0].fingerprint);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kExecuted);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kFailed);
  EXPECT_EQ(result.outcomes[2].status, CellStatus::kSkipped);
  EXPECT_TRUE(result.outcomes[2].result_hash.empty());

  const std::string stream = jsonl.str();
  std::size_t headers = 0;
  for (auto pos = stream.find("adacheck-campaign-cell-v1");
       pos != std::string::npos;
       pos = stream.find("adacheck-campaign-cell-v1", pos + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 2u) << stream;
  EXPECT_EQ(stream.find("\"cell\":2"), std::string::npos) << stream;
  EXPECT_EQ(status.str().find("[3/3]"), std::string::npos) << status.str();
}

// --- cache inspection (ls / gc) ------------------------------------------

TEST_F(CampaignTest, CacheLsReportsValidEntriesWithProvenance) {
  const auto spec = mini_campaign({1, 2});
  const auto result = run_campaign(spec, {});

  const auto entries = cache_ls(result.cache_dir);
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& entry : entries) {
    EXPECT_TRUE(entry.valid) << entry.defect;
    EXPECT_EQ(entry.scenario, "mini");
    EXPECT_EQ(entry.sweep_cells, 1u);
    EXPECT_GT(entry.total_runs, 0);
    EXPECT_EQ(entry.code_version, util::version_string());
    EXPECT_GT(entry.bytes, 0u);
    EXPECT_GE(entry.age_seconds, 0.0);
  }
  EXPECT_TRUE(entries[0].seed == 1 || entries[0].seed == 2);
}

TEST_F(CampaignTest, CacheLsFlagsEveryDefectKind) {
  const auto spec = mini_campaign({1});
  const auto result = run_campaign(spec, {});
  const std::string fp = result.plan.cells[0].fingerprint;

  // Corrupt the committed payload; add an orphan payload and a
  // meta-only stub alongside.
  write_file("cache/" + fp + ".jsonl", "{\"tampered\": true}\n");
  write_file("cache/orphan.jsonl", "{}\n");
  write_file("cache/stub.meta.json", "{\"fingerprint\": \"stub\"}\n");

  const auto entries = cache_ls(result.cache_dir);
  ASSERT_EQ(entries.size(), 3u);  // sorted by fingerprint
  for (const auto& entry : entries) {
    EXPECT_FALSE(entry.valid);
    EXPECT_FALSE(entry.defect.empty());
  }
}

// An entry committed before the cache meta moved to v2 (the FNV-era
// content hash): `ls` names it as an older adacheck's, not as a hash
// mismatch, and gc prunes it while keeping the current entry.
TEST_F(CampaignTest, CacheLsLabelsAnOlderAdacheckEntryAndGcPrunesIt) {
  const auto spec = mini_campaign({1});
  const auto result = run_campaign(spec, {});
  const std::string old_fp = "13e216a9c01b4e6fa2f5e2b3d1c0a987";
  // The payload's hash as the v1 meta recorded it (two FNV-1a lanes).
  write_file("cache/" + old_fp + ".jsonl", "{\"cell\":0,\"id\":\"old\"}\n");
  write_file("cache/" + old_fp + ".meta.json",
             "{\n  \"schema\": \"adacheck-cache-meta-v1\",\n"
             "  \"fingerprint\": \"" + old_fp + "\",\n"
             "  \"code_version\": \"0.4.0\",\n  \"scenario\": \"mini\",\n"
             "  \"seed\": 1,\n  \"sweep_cells\": 1,\n  \"total_runs\": 64,\n"
             "  \"result_hash\": \"30334b183a09db0108e6f8af56a75ea3\"\n}\n");

  const auto entries = cache_ls(result.cache_dir);
  ASSERT_EQ(entries.size(), 2u);
  const auto& old = entries[0].fingerprint == old_fp ? entries[0] : entries[1];
  const auto& current = &old == &entries[0] ? entries[1] : entries[0];
  EXPECT_FALSE(old.valid);
  EXPECT_TRUE(old.stale);  // intact bytes, only written by an older build
  EXPECT_EQ(old.defect,
            "written by an older adacheck: adacheck-cache-meta-v1");
  EXPECT_TRUE(current.valid) << current.defect;
  EXPECT_FALSE(current.stale);

  const auto gc = cache_gc(result.cache_dir, {});
  ASSERT_EQ(gc.removed.size(), 1u);
  EXPECT_EQ(gc.removed[0].fingerprint, old_fp);
  EXPECT_TRUE(gc.removed[0].stale);
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "cache" / (old_fp + ".jsonl")));
  EXPECT_FALSE(fs::exists(dir_ / "cache" / (old_fp + ".meta.json")));
}

TEST_F(CampaignTest, CacheLsOfMissingDirectoryIsEmpty) {
  EXPECT_TRUE(cache_ls((dir_ / "no_such_cache").string()).empty());
}

TEST_F(CampaignTest, CacheGcPrunesCorruptKeepsValid) {
  const auto spec = mini_campaign({1, 2});
  const auto result = run_campaign(spec, {});
  const std::string fp = result.plan.cells[0].fingerprint;
  write_file("cache/" + fp + ".jsonl", "tampered\n");

  CacheGcOptions dry;
  dry.dry_run = true;
  const auto preview = cache_gc(result.cache_dir, dry);
  ASSERT_EQ(preview.removed.size(), 1u);
  EXPECT_EQ(preview.removed[0].fingerprint, fp);
  EXPECT_FALSE(preview.removed[0].stale);  // damaged, not merely old
  EXPECT_EQ(preview.kept, 1u);
  // Dry run touched nothing: the defective entry is still there.
  EXPECT_EQ(cache_ls(result.cache_dir).size(), 2u);

  const auto gc = cache_gc(result.cache_dir, {});
  ASSERT_EQ(gc.removed.size(), 1u);
  EXPECT_GT(gc.bytes_freed, 0u);
  const auto left = cache_ls(result.cache_dir);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_TRUE(left[0].valid);

  // The pruned cell is an ordinary miss on the next resume run.
  CampaignOptions options;
  const auto rerun = run_campaign(spec, options);
  EXPECT_EQ(rerun.outcomes[0].status, CellStatus::kExecuted);
  EXPECT_EQ(rerun.outcomes[1].status, CellStatus::kCached);
}

TEST_F(CampaignTest, CacheGcRemovesLeftoverTempFilesButCountsNoEntry) {
  const auto spec = mini_campaign({1});
  const auto result = run_campaign(spec, {});
  const std::string fp = result.plan.cells[0].fingerprint;
  write_file("cache/" + fp + ".jsonl.123-0.tmp", "{\"partial\"");
  write_file("cache/" + fp + ".meta.json.123-1.tmp", "{");
  EXPECT_EQ(cache_ls(result.cache_dir).size(), 1u);  // temps are not entries

  CacheGcOptions dry;
  dry.dry_run = true;
  const auto preview = cache_gc(result.cache_dir, dry);
  EXPECT_TRUE(preview.removed.empty());
  EXPECT_EQ(preview.kept, 1u);
  EXPECT_EQ(preview.temp_files, 2u);
  EXPECT_TRUE(fs::exists(dir_ / "cache" / (fp + ".jsonl.123-0.tmp")));

  const auto gc = cache_gc(result.cache_dir, {});
  EXPECT_TRUE(gc.removed.empty());
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_EQ(gc.temp_files, 2u);
  EXPECT_GT(gc.bytes_freed, 0u);
  std::size_t files = 0;
  for (const auto& file : fs::directory_iterator(result.cache_dir)) {
    EXPECT_FALSE(file.path().filename().string().ends_with(".tmp"));
    ++files;
  }
  EXPECT_EQ(files, 2u);
  EXPECT_TRUE(cache_probe(result.cache_dir, fp));
}

TEST_F(CampaignTest, CacheGcAgePrunesOldValidEntries) {
  const auto spec = mini_campaign({1});
  const auto result = run_campaign(spec, {});

  CacheGcOptions young;
  young.older_than_seconds = 3600.0;  // entries are seconds old
  EXPECT_TRUE(cache_gc(result.cache_dir, young).removed.empty());

  // Backdate the entry's files: age is measured from mtime.
  const auto past =
      fs::file_time_type::clock::now() - std::chrono::hours(48);
  for (const auto& file : fs::directory_iterator(result.cache_dir)) {
    fs::last_write_time(file.path(), past);
  }
  CacheGcOptions old_enough;
  old_enough.older_than_seconds = 3600.0;
  const auto gc = cache_gc(result.cache_dir, old_enough);
  ASSERT_EQ(gc.removed.size(), 1u);
  EXPECT_TRUE(gc.removed[0].valid);  // pruned by age, not by defect
  EXPECT_TRUE(cache_ls(result.cache_dir).empty());
}

TEST(CampaignDuration, ParsesUnitsAndRejectsJunk) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("30"), 30.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("45s"), 45.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("30m"), 1800.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("12h"), 43200.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("7d"), 604800.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2w"), 1209600.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("1.5h"), 5400.0);
  EXPECT_THROW(parse_duration_seconds(""), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("abc"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("10x"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("-5m"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("m"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("nanh"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("infd"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("inf"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("0x1"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("+5m"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds("1.2.3s"), std::invalid_argument);
  EXPECT_THROW(parse_duration_seconds(std::string(400, '9') + "w"),
               std::invalid_argument);
}

}  // namespace
}  // namespace adacheck::campaign

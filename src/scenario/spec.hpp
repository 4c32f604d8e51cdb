// Declarative scenario files: schema "adacheck-scenario-v1".
//
// A scenario is a JSON document describing a whole sweep as *data* —
// policies by factory name, fault environments by registry name,
// checkpoint/energy/speed knobs, a (utilization, lambda) grid, the
// Monte-Carlo budget and seed, and the output path — so opening a new
// workload means writing a file, not compiling a binary.  The adacheck
// driver (tools/adacheck_main.cpp) runs them; scenarios/*.json ship
// the paper tables and the satellite/UAV examples in this form.
//
// Document layout (full reference in README.md "Scenarios"):
//
//   {
//     "schema": "adacheck-scenario-v1",
//     "name": "table1",                      // required identifier
//     "title": "...",                        // optional, defaults to name
//     "config": {"runs": 10000, "seed": 1592614637,
//                "validate": false, "threads": 0},      // all optional
//     "budget": {"target_p_halfwidth": 0.01,  // optional sequential
//                "target_e_rel_halfwidth": 0.02,  // stopping; at least
//                "min_runs": 256,                 // one target required
//                "max_runs": 100000},
//     "output": "table1_sweep.json",         // optional report path, or
//     "output": {"report": "table1_sweep.json",
//                "jsonl": "table1_cells.jsonl"},  // + JSONL cell stream
//     "metrics": ["tails", "checkpoints"],   // optional extra recorders
//     "experiments": [                       // classic cells (see below
//       {"table": "table1a"},                // for "graphs"): a table, or:
//       {"id": "custom",
//        "title": "...",
//        "costs": {"store": 2, "compare": 20, "rollback": 0},
//        "deadline": 10000, "fault_tolerance": 5,
//        "speed_ratio": 2.0, "voltage_kappa": 4.0, "util_level": 0,
//        "processors": 2,                    // replicas: 2 DMR, 3 TMR
//        "faults_during_overhead": false,    // faults in checkpoint ops
//        "recompute_at_commit": false,       // adaptive re-plan per CSCP
//        "schemes": ["Poisson", "A_D_S"],    // policy factory names
//        "grid": {"utilization": [0.76, 0.8],
//                 "lambda": [1.4e-3, 1.6e-3]},   // cross product, or
//        "rows": [{"utilization": 0.92, "lambda": 1e-4}],
//        "environment": "poisson",           // one registry name, or
//        "environments": ["poisson", "bursty-orbit"]}  // an axis
//     ],
//     "graphs": [                            // optional DAG experiments
//       {"id": "pipeline",
//        "title": "...",
//        "graph": {"period": 30000, "deadline": 28000,  // end-to-end
//                  "nodes": [{"name": "decode", "cycles": 5000,
//                             "fault_tolerance": 2, "policy": "A_D_S",
//                             "resources": ["bus"]},
//                            {"name": "tick", "cycles": 500,
//                             "period": 10000,  // own releases: a
//                             "deadline": 6000,  // periodic task, no
//                             "phase": 0}],      // edges; deadline
//                                                // <= period (default)
//                  "edges": [{"from": "decode", "to": "filter"}],
//                  "resources": [{"name": "bus", "capacity": 1}]},
//        "workers": 2, "instances": 8,   // window = instances * period
//        "skip_late_jobs": true,
//        "costs": {"store": 2, "compare": 20, "rollback": 0},
//        "speed_ratio": 2.0, "voltage_kappa": 4.0,
//        "schedulers": ["edf", "critical-path"],  // registry names
//        "lambdas": [1e-4, 1e-3],            // fault-rate rows
//        "environment": "poisson",           // one registry name, or
//        "environments": ["poisson", "bursty-orbit"]}  // an axis
//     ]
//   }
//
// At least one of "experiments" / "graphs" must be non-empty; ids
// share one uniqueness domain (the sweep report keys cells by them).
//
// Validation reports path-qualified errors with "did you mean"
// suggestions, e.g.:
//   experiments[2].environment: unknown name "bursty-orbitt", did you
//   mean "bursty-orbit"?
//
// The parser builds the harness specs directly: a paper-table
// reference resolves to its harness/paper_params builder, a "grid"
// expands into rows (utilization outer, lambda inner), and the schema
// defaults are the harness defaults.  Each entry keeps only its
// unexpanded environment axis beside its spec; the binder
// (scenario/binder.hpp) expands those axes, so a scenario-driven sweep
// is byte-identical in its cell section to the equivalent
// programmatic one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/graph_experiment.hpp"
#include "sim/metrics.hpp"
#include "util/json.hpp"

namespace adacheck::scenario {

/// Schema violation with the JSON path of the offending field; what()
/// is "<path>: <message>" (just the message for root-level errors).
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(const std::string& path, const std::string& message);
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Upper bound on every run count the schema accepts ("runs",
/// "min_runs", "max_runs"); the lower bound is 1.
inline constexpr int kMaxRuns = 1'000'000'000;

/// Monte-Carlo budget and seed knobs (the "config" object).
struct ScenarioConfig {
  int runs = 10'000;
  std::uint64_t seed = 0x5EED5EED;
  bool validate = false;
  /// Parallelism cap and requested shared-pool width; 0 = pool default.
  int threads = 0;
};

/// One "experiments" or "graphs" entry: the harness spec it describes
/// plus its unexpanded environment axis.
template <typename Spec>
struct ScenarioEntry {
  /// spec.environment is the single environment, applied in place with
  /// the id unchanged; the axis below replaces it when set.
  Spec spec;
  /// Environment axis: one spec copy per name, ids become "id@env"
  /// (harness::with_environments naming).  Exclusive with the
  /// document's "environment" key.
  std::vector<std::string> environments;
};

/// A paper-table reference or an inline grid, resolved at parse time.
using ScenarioExperiment = ScenarioEntry<harness::ExperimentSpec>;
/// A task graph crossed with a scheduler axis and a fault-rate
/// (lambda) axis.
using ScenarioGraph = ScenarioEntry<harness::GraphExperimentSpec>;

struct ScenarioSpec {
  std::string name;
  std::string title;  ///< defaults to name
  ScenarioConfig config;
  /// Precision-targeted sequential stopping (the "budget" object);
  /// disabled — fixed config.runs per cell — when absent.
  sim::RunBudget budget;
  /// Default report path for `adacheck run`.  In the document "output"
  /// is either that string directly or an object
  /// {"report": PATH, "jsonl": PATH} — the object form also names the
  /// default JSONL cell-stream path.
  std::string output;
  std::string output_jsonl;  ///< default JSONL stream path ("" = none)
  /// Extra metric recorders applied to every cell, by registry name
  /// (sim::known_metric_recorders(); the "metrics" array).
  std::vector<std::string> metrics;
  /// At least one of experiments / graphs is non-empty.
  std::vector<ScenarioExperiment> experiments;
  std::vector<ScenarioGraph> graphs;
};

/// Paper tables addressable from an experiment's "table" key
/// ("table1a" ... "table4b", see harness/paper_params.hpp).
std::vector<std::string> known_tables();

/// Parses a "budget" object (shared by scenario and campaign
/// documents): the four RunBudget knobs, at least one target required,
/// min_runs <= max_runs when both are set.  Throws ScenarioError.
sim::RunBudget parse_budget(const util::json::Value& v,
                            const std::string& path);

/// Lowers a parsed JSON document into a validated ScenarioSpec.
/// Throws ScenarioError on any schema violation.
ScenarioSpec parse_scenario(const util::json::Value& root);

/// util::json::parse + parse_scenario.  json::ParseError propagates
/// for syntax errors (with line/column), ScenarioError for schema
/// violations.
ScenarioSpec parse_scenario_text(std::string_view text);

/// Reads and parses a scenario file; all error messages are prefixed
/// with the file path.  Throws std::runtime_error.
ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace adacheck::scenario

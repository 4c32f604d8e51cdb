#include "scenario/spec.hpp"

#include <algorithm>
#include <utility>

#include "harness/paper_params.hpp"
#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "policy/factory.hpp"
#include "sched/scheduler.hpp"
#include "scenario/schema.hpp"
#include "sim/metrics.hpp"
#include "util/file.hpp"
#include "util/text.hpp"

namespace adacheck::scenario {

// Path-qualified accessors and did-you-mean checks live in
// scenario/schema.hpp, shared with the campaign parser.
using namespace schema;
using util::json::Value;

namespace {

/// The ids of a harness spec list, in order.
std::vector<std::string> spec_ids(const auto& specs) {
  std::vector<std::string> ids;
  ids.reserve(specs.size());
  for (const auto& spec : specs) ids.push_back(spec.id);
  return ids;
}

// --- section parsers -----------------------------------------------------

ScenarioConfig parse_config(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path, {"runs", "seed", "validate", "threads"});
  ScenarioConfig config;
  if (const Value* runs = v.find("runs")) {
    const auto value = as_int(*runs, member_path(path, "runs"));
    if (value < 1) fail(member_path(path, "runs"), "must be >= 1");
    if (value > kMaxRuns) fail(member_path(path, "runs"), "must be <= 1e9");
    config.runs = static_cast<int>(value);
  }
  if (const Value* seed = v.find("seed")) {
    const auto value = as_int(*seed, member_path(path, "seed"));
    if (value < 0) fail(member_path(path, "seed"), "must be >= 0");
    config.seed = static_cast<std::uint64_t>(value);
  }
  if (const Value* validate = v.find("validate")) {
    config.validate = as_bool(*validate, member_path(path, "validate"));
  }
  if (const Value* threads = v.find("threads")) {
    const auto value = as_int(*threads, member_path(path, "threads"));
    if (value < 0 || value > 4096) {
      fail(member_path(path, "threads"), "must be in [0, 4096]");
    }
    config.threads = static_cast<int>(value);
  }
  return config;
}

model::CheckpointCosts parse_costs(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path, {"store", "compare", "rollback"});
  model::CheckpointCosts costs;
  costs.store = v.find("store")
                    ? as_number(*v.find("store"), member_path(path, "store"))
                    : 0.0;
  costs.compare =
      v.find("compare")
          ? as_number(*v.find("compare"), member_path(path, "compare"))
          : 0.0;
  costs.rollback =
      v.find("rollback")
          ? as_number(*v.find("rollback"), member_path(path, "rollback"))
          : 0.0;
  if (costs.store < 0.0) fail(member_path(path, "store"), "must be >= 0");
  if (costs.compare < 0.0) fail(member_path(path, "compare"), "must be >= 0");
  if (costs.rollback < 0.0) {
    fail(member_path(path, "rollback"), "must be >= 0");
  }
  if (costs.store + costs.compare <= 0.0) {
    fail(path, "store + compare must be > 0 (a free checkpoint would "
               "make infinitely many optimal)");
  }
  return costs;
}

std::vector<harness::ExperimentRow> parse_rows(const Value& v,
                                               const std::string& path) {
  std::vector<harness::ExperimentRow> rows;
  const auto& array = as_array(v, path);
  if (array.empty()) fail(path, "must not be empty");
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string row_path = index_path(path, i);
    require_object(array[i], row_path);
    check_keys(array[i], row_path, {"utilization", "lambda"});
    harness::ExperimentRow row;
    row.utilization =
        positive_number(require(array[i], row_path, "utilization"),
                        member_path(row_path, "utilization"));
    row.lambda = as_number(require(array[i], row_path, "lambda"),
                           member_path(row_path, "lambda"));
    if (row.lambda < 0.0) {
      fail(member_path(row_path, "lambda"), "must be >= 0");
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<double> parse_axis(const Value& v, const std::string& path,
                               bool strictly_positive) {
  std::vector<double> values;
  const auto& array = as_array(v, path);
  if (array.empty()) fail(path, "must not be empty");
  for (std::size_t i = 0; i < array.size(); ++i) {
    const double value = as_number(array[i], index_path(path, i));
    if (strictly_positive && value <= 0.0) {
      fail(index_path(path, i), "must be > 0");
    }
    if (!strictly_positive && value < 0.0) {
      fail(index_path(path, i), "must be >= 0");
    }
    values.push_back(value);
  }
  return values;
}

void parse_environment_keys(const Value& v, const std::string& path,
                            std::string& environment,
                            std::vector<std::string>& environments) {
  const Value* env = v.find("environment");
  const Value* envs = v.find("environments");
  if (env != nullptr && envs != nullptr) {
    fail(path, "give at most one of \"environment\" (in place) or "
               "\"environments\" (axis, ids become \"id@env\")");
  }
  if (env != nullptr) {
    const std::string env_path = member_path(path, "environment");
    environment = as_string(*env, env_path);
    check_name(environment, model::known_environments(), env_path);
  }
  if (envs != nullptr) {
    const std::string axis_path = member_path(path, "environments");
    const auto& array = as_array(*envs, axis_path);
    if (array.empty()) fail(axis_path, "must not be empty");
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string item_path = index_path(axis_path, i);
      const std::string& name = as_string(array[i], item_path);
      check_name(name, model::known_environments(), item_path);
      if (std::find(environments.begin(), environments.end(), name) !=
          environments.end()) {
        fail(item_path, "duplicate environment \"" + name + "\"");
      }
      environments.push_back(name);
    }
  }
}

ScenarioExperiment parse_experiment(const Value& v, const std::string& path) {
  require_object(v, path);
  ScenarioExperiment exp;
  harness::ExperimentSpec& spec = exp.spec;

  if (const Value* table = v.find("table")) {
    // A paper-table reference admits only the environment axis on top;
    // grid knobs belong to inline experiments.
    check_keys(v, path, {"table", "environment", "environments"});
    const std::string table_path = member_path(path, "table");
    const std::string& name = as_string(*table, table_path);
    // One builder call serves the name check and the resolution.
    auto tables = harness::all_paper_tables();
    check_name(name, spec_ids(tables), table_path);
    spec = std::move(*std::find_if(
        tables.begin(), tables.end(),
        [&](const harness::ExperimentSpec& t) { return t.id == name; }));
    parse_environment_keys(v, path, spec.environment, exp.environments);
    return exp;
  }

  check_keys(v, path,
             {"id", "title", "costs", "deadline", "fault_tolerance",
              "speed_ratio", "voltage_kappa", "util_level", "processors",
              "faults_during_overhead", "recompute_at_commit", "schemes",
              "rows", "grid", "environment", "environments"});

  spec.id = as_string(require(v, path, "id"), member_path(path, "id"));
  if (spec.id.empty()) fail(member_path(path, "id"), "must not be empty");
  spec.title = v.find("title")
                   ? as_string(*v.find("title"), member_path(path, "title"))
                   : spec.id;
  if (const Value* costs = v.find("costs")) {
    spec.costs = parse_costs(*costs, member_path(path, "costs"));
  }
  if (const Value* deadline = v.find("deadline")) {
    spec.deadline =
        positive_number(*deadline, member_path(path, "deadline"));
  }
  if (const Value* k = v.find("fault_tolerance")) {
    const auto value = as_int(*k, member_path(path, "fault_tolerance"));
    if (value < 0) fail(member_path(path, "fault_tolerance"), "must be >= 0");
    spec.fault_tolerance = static_cast<int>(value);
  }
  if (const Value* ratio = v.find("speed_ratio")) {
    spec.speed_ratio = as_number(*ratio, member_path(path, "speed_ratio"));
    if (spec.speed_ratio <= 1.0) {
      fail(member_path(path, "speed_ratio"), "must be > 1 (f2/f1)");
    }
  }
  if (const Value* kappa = v.find("voltage_kappa")) {
    spec.voltage.kappa =
        positive_number(*kappa, member_path(path, "voltage_kappa"));
  }
  if (const Value* level = v.find("util_level")) {
    const auto value = as_int(*level, member_path(path, "util_level"));
    if (value != 0 && value != 1) {
      fail(member_path(path, "util_level"),
           "must be 0 (f1) or 1 (f2): the speed level that converts "
           "utilization to cycles");
    }
    spec.util_level = static_cast<std::size_t>(value);
  }
  if (const Value* processors = v.find("processors")) {
    const std::string processors_path = member_path(path, "processors");
    const auto value = as_int(*processors, processors_path);
    if (value < 2 || value > model::kMaxProcessors) {
      std::string message = "must be in [2, ";
      message += std::to_string(model::kMaxProcessors);
      message += "] (2 = DMR, 3 = TMR)";
      fail(processors_path, message);
    }
    spec.processors = static_cast<int>(value);
  }
  if (const Value* overhead = v.find("faults_during_overhead")) {
    spec.faults_during_overhead =
        as_bool(*overhead, member_path(path, "faults_during_overhead"));
  }
  if (const Value* recompute = v.find("recompute_at_commit")) {
    spec.recompute_at_commit =
        as_bool(*recompute, member_path(path, "recompute_at_commit"));
  }

  const std::string schemes_path = member_path(path, "schemes");
  const auto& schemes = as_array(require(v, path, "schemes"), schemes_path);
  if (schemes.empty()) fail(schemes_path, "must not be empty");
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const std::string item_path = index_path(schemes_path, i);
    const std::string& name = as_string(schemes[i], item_path);
    check_name(name, policy::known_policies(), item_path);
    if (std::find(spec.schemes.begin(), spec.schemes.end(), name) !=
        spec.schemes.end()) {
      fail(item_path, "duplicate scheme \"" + name + "\"");
    }
    spec.schemes.push_back(name);
  }

  const Value* rows = v.find("rows");
  const Value* grid = v.find("grid");
  if ((rows == nullptr) == (grid == nullptr)) {
    fail(path, "give exactly one of \"rows\" (explicit points) or "
               "\"grid\" (utilization x lambda cross product)");
  }
  if (rows != nullptr) {
    spec.rows = parse_rows(*rows, member_path(path, "rows"));
  } else {
    const std::string grid_path = member_path(path, "grid");
    require_object(*grid, grid_path);
    check_keys(*grid, grid_path, {"utilization", "lambda"});
    const auto utilizations =
        parse_axis(require(*grid, grid_path, "utilization"),
                   member_path(grid_path, "utilization"),
                   /*strictly_positive=*/true);
    const auto lambdas = parse_axis(require(*grid, grid_path, "lambda"),
                                    member_path(grid_path, "lambda"),
                                    /*strictly_positive=*/false);
    for (const double utilization : utilizations) {
      for (const double lambda : lambdas) {
        spec.rows.push_back({utilization, lambda, {}});
      }
    }
  }

  parse_environment_keys(v, path, spec.environment, exp.environments);
  return exp;
}

// --- graph parsers -------------------------------------------------------

/// A declared-name list for did-you-mean checks on edge and node
/// resource references.
std::vector<std::string> declared_names(const auto& items) {
  std::vector<std::string> names;
  names.reserve(items.size());
  for (const auto& item : items) names.push_back(item.name);
  return names;
}

sched::GraphNode parse_graph_node(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"name", "cycles", "fault_tolerance", "policy", "resources",
              "period", "deadline", "phase"});
  sched::GraphNode node;
  node.name = as_string(require(v, path, "name"), member_path(path, "name"));
  if (node.name.empty()) fail(member_path(path, "name"), "must not be empty");
  node.cycles = positive_number(require(v, path, "cycles"),
                                member_path(path, "cycles"));
  if (const Value* k = v.find("fault_tolerance")) {
    const auto value = as_int(*k, member_path(path, "fault_tolerance"));
    if (value < 0) fail(member_path(path, "fault_tolerance"), "must be >= 0");
    node.fault_tolerance = static_cast<int>(value);
  }
  if (const Value* policy = v.find("policy")) {
    const std::string policy_path = member_path(path, "policy");
    node.policy = as_string(*policy, policy_path);
    check_name(node.policy, policy::known_policies(), policy_path);
  }
  // Own release stream: a periodic task (see sched/task_graph.hpp).
  if (const Value* period = v.find("period")) {
    node.period = positive_number(*period, member_path(path, "period"));
  }
  if (const Value* deadline = v.find("deadline")) {
    const std::string deadline_path = member_path(path, "deadline");
    node.deadline = positive_number(*deadline, deadline_path);
    if (!node.own_period()) fail(deadline_path, "needs a node \"period\"");
    if (node.deadline > node.period) {
      fail(deadline_path, "must be <= the node period");
    }
  }
  if (const Value* phase = v.find("phase")) {
    const std::string phase_path = member_path(path, "phase");
    node.phase = as_number(*phase, phase_path);
    if (node.phase < 0.0) fail(phase_path, "must be >= 0");
    if (!node.own_period()) fail(phase_path, "needs a node \"period\"");
  }
  // Resource name references are resolved to indices by the caller,
  // which knows the declared resource list.
  return node;
}

sched::TaskGraph parse_task_graph(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path, {"period", "deadline", "nodes", "edges", "resources"});
  sched::TaskGraph graph;
  graph.period = positive_number(require(v, path, "period"),
                                 member_path(path, "period"));
  if (const Value* deadline = v.find("deadline")) {
    graph.deadline =
        positive_number(*deadline, member_path(path, "deadline"));
  }

  if (const Value* resources = v.find("resources")) {
    const std::string res_path = member_path(path, "resources");
    const auto& array = as_array(*resources, res_path);
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string item_path = index_path(res_path, i);
      require_object(array[i], item_path);
      check_keys(array[i], item_path, {"name", "capacity"});
      sched::GraphResource resource;
      resource.name = as_string(require(array[i], item_path, "name"),
                                member_path(item_path, "name"));
      if (resource.name.empty()) {
        fail(member_path(item_path, "name"), "must not be empty");
      }
      if (const Value* capacity = array[i].find("capacity")) {
        const auto value =
            as_int(*capacity, member_path(item_path, "capacity"));
        if (value < 1 || value > 1'000'000) {
          fail(member_path(item_path, "capacity"), "must be in [1, 1e6]");
        }
        resource.capacity = static_cast<int>(value);
      }
      graph.resources.push_back(std::move(resource));
    }
  }
  const auto resource_names = declared_names(graph.resources);

  const std::string nodes_path = member_path(path, "nodes");
  const auto& nodes = as_array(require(v, path, "nodes"), nodes_path);
  if (nodes.empty()) fail(nodes_path, "must not be empty");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string node_path = index_path(nodes_path, i);
    sched::GraphNode node = parse_graph_node(nodes[i], node_path);
    if (const Value* refs = nodes[i].find("resources")) {
      const std::string refs_path = member_path(node_path, "resources");
      const auto& array = as_array(*refs, refs_path);
      for (std::size_t r = 0; r < array.size(); ++r) {
        const std::string item_path = index_path(refs_path, r);
        const std::string& name = as_string(array[r], item_path);
        check_name(name, resource_names, item_path);
        for (std::size_t j = 0; j < graph.resources.size(); ++j) {
          if (graph.resources[j].name == name) {
            node.resources.push_back(j);
            break;
          }
        }
      }
    }
    graph.nodes.push_back(std::move(node));
  }
  const auto node_names = declared_names(graph.nodes);

  if (const Value* edges = v.find("edges")) {
    const std::string edges_path = member_path(path, "edges");
    const auto& array = as_array(*edges, edges_path);
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string edge_path = index_path(edges_path, i);
      require_object(array[i], edge_path);
      check_keys(array[i], edge_path, {"from", "to"});
      const std::string from_path = member_path(edge_path, "from");
      const std::string to_path = member_path(edge_path, "to");
      const std::string& from =
          as_string(require(array[i], edge_path, "from"), from_path);
      const std::string& to =
          as_string(require(array[i], edge_path, "to"), to_path);
      check_name(from, node_names, from_path);
      check_name(to, node_names, to_path);
      graph.edges.push_back(
          {graph.node_index(from), graph.node_index(to)});
    }
  }

  // Cross-field invariants (duplicate names, self-edges, cycles with
  // the path spelled out) live in TaskGraph::validate; re-throw its
  // errors at the JSON path that declared the graph.
  try {
    graph.validate();
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
  return graph;
}

ScenarioGraph parse_graph(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path,
             {"id", "title", "graph", "workers", "instances",
              "skip_late_jobs", "costs", "speed_ratio", "voltage_kappa",
              "schedulers", "lambdas", "environment", "environments"});

  ScenarioGraph entry;
  harness::GraphExperimentSpec& graph = entry.spec;
  graph.id = as_string(require(v, path, "id"), member_path(path, "id"));
  if (graph.id.empty()) fail(member_path(path, "id"), "must not be empty");
  graph.title = v.find("title")
                    ? as_string(*v.find("title"), member_path(path, "title"))
                    : graph.id;
  graph.graph = parse_task_graph(require(v, path, "graph"),
                                 member_path(path, "graph"));
  graph.graph.name = graph.id;
  if (const Value* workers = v.find("workers")) {
    const auto value = as_int(*workers, member_path(path, "workers"));
    if (value < 1 || value > 4096) {
      fail(member_path(path, "workers"), "must be in [1, 4096]");
    }
    graph.workers = static_cast<int>(value);
  }
  if (const Value* instances = v.find("instances")) {
    const auto value = as_int(*instances, member_path(path, "instances"));
    if (value < 1 || value > 1'000'000) {
      fail(member_path(path, "instances"), "must be in [1, 1e6]");
    }
    graph.instances = static_cast<int>(value);
  }
  // An own-period node's releases are bounded like the instances.
  const double window = graph.instances * graph.graph.period;
  const std::string nodes_path =
      member_path(member_path(path, "graph"), "nodes");
  for (std::size_t n = 0; n < graph.graph.nodes.size(); ++n) {
    const auto& node = graph.graph.nodes[n];
    if (node.own_period() && window / node.period > 1e6) {
      fail(member_path(index_path(nodes_path, n), "period"),
           "releases more than 1e6 jobs in instances * graph period");
    }
  }
  if (const Value* skip = v.find("skip_late_jobs")) {
    graph.skip_late_jobs =
        as_bool(*skip, member_path(path, "skip_late_jobs"));
  }
  if (const Value* costs = v.find("costs")) {
    graph.costs = parse_costs(*costs, member_path(path, "costs"));
  }
  if (const Value* ratio = v.find("speed_ratio")) {
    graph.speed_ratio = as_number(*ratio, member_path(path, "speed_ratio"));
    if (graph.speed_ratio <= 1.0) {
      fail(member_path(path, "speed_ratio"), "must be > 1 (f2/f1)");
    }
  }
  if (const Value* kappa = v.find("voltage_kappa")) {
    graph.voltage.kappa =
        positive_number(*kappa, member_path(path, "voltage_kappa"));
  }

  const std::string sched_path = member_path(path, "schedulers");
  const auto& schedulers =
      as_array(require(v, path, "schedulers"), sched_path);
  if (schedulers.empty()) fail(sched_path, "must not be empty");
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const std::string item_path = index_path(sched_path, i);
    const std::string& name = as_string(schedulers[i], item_path);
    check_name(name, sched::known_schedulers(), item_path);
    if (std::find(graph.schedulers.begin(), graph.schedulers.end(), name) !=
        graph.schedulers.end()) {
      fail(item_path, "duplicate scheduler \"" + name + "\"");
    }
    graph.schedulers.push_back(name);
  }

  graph.lambdas = parse_axis(require(v, path, "lambdas"),
                             member_path(path, "lambdas"),
                             /*strictly_positive=*/false);

  parse_environment_keys(v, path, graph.environment, entry.environments);
  return entry;
}

}  // namespace

ScenarioError::ScenarioError(const std::string& path,
                             const std::string& message)
    : std::runtime_error(path.empty() ? message : path + ": " + message),
      path_(path) {}

std::vector<std::string> known_tables() {
  // Derived from the paper-table builders (each sets spec.id to its
  // registry name) so new tables need no registration here.
  return spec_ids(harness::all_paper_tables());
}

sim::RunBudget parse_budget(const util::json::Value& v,
                            const std::string& path) {
  require_object(v, path);
  check_keys(v, path, {"target_p_halfwidth", "target_e_rel_halfwidth",
                       "min_runs", "max_runs"});
  sim::RunBudget budget;
  if (const Value* target = v.find("target_p_halfwidth")) {
    budget.target_p_halfwidth =
        positive_number(*target, member_path(path, "target_p_halfwidth"));
  }
  if (const Value* target = v.find("target_e_rel_halfwidth")) {
    budget.target_e_rel_halfwidth = positive_number(
        *target, member_path(path, "target_e_rel_halfwidth"));
  }
  const auto parse_cap = [&](const char* key) {
    const Value* cap = v.find(key);
    if (cap == nullptr) return 0;
    const std::string cap_path = member_path(path, key);
    const auto value = as_int(*cap, cap_path);
    if (value < 1) fail(cap_path, "must be >= 1");
    if (value > kMaxRuns) fail(cap_path, "must be <= 1e9");
    return static_cast<int>(value);
  };
  budget.min_runs = parse_cap("min_runs");
  budget.max_runs = parse_cap("max_runs");
  if (!budget.enabled()) {
    fail(path, "set at least one of \"target_p_halfwidth\" or "
               "\"target_e_rel_halfwidth\" (a budget without a target "
               "never stops early)");
  }
  if (budget.min_runs > 0 && budget.max_runs > 0 &&
      budget.min_runs > budget.max_runs) {
    fail(member_path(path, "min_runs"), "must be <= max_runs");
  }
  return budget;
}

/// "output": either the report path directly, or an object splitting
/// the report and the JSONL cell-stream paths.
void parse_output(const Value& v, const std::string& path,
                  ScenarioSpec& spec) {
  if (v.is_string()) {
    spec.output = v.as_string();
    return;
  }
  if (!v.is_object()) {
    fail(path, "expected string (report path) or object "
               "{\"report\", \"jsonl\"}, got " + kind_name(v));
  }
  check_keys(v, path, {"report", "jsonl"});
  if (const Value* report = v.find("report")) {
    spec.output = as_string(*report, member_path(path, "report"));
  }
  if (const Value* jsonl = v.find("jsonl")) {
    spec.output_jsonl = as_string(*jsonl, member_path(path, "jsonl"));
  }
}

/// "metrics": extra recorder registry names, validated with
/// did-you-mean like every other registry reference.
std::vector<std::string> parse_metrics(const Value& v,
                                       const std::string& path) {
  std::vector<std::string> metrics;
  const auto& array = as_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = index_path(path, i);
    const std::string& name = as_string(array[i], item_path);
    check_name(name, sim::known_metric_recorders(), item_path);
    if (std::find(metrics.begin(), metrics.end(), name) != metrics.end()) {
      fail(item_path, "duplicate metric recorder \"" + name + "\"");
    }
    metrics.push_back(name);
  }
  return metrics;
}

ScenarioSpec parse_scenario(const util::json::Value& root) {
  const std::string top;  // the document root has no path prefix
  require_object(root, top);
  check_keys(root, top,
             {"schema", "name", "title", "config", "budget", "output",
              "metrics", "experiments", "graphs"});

  const std::string& schema = as_string(require(root, top, "schema"), "schema");
  if (schema != "adacheck-scenario-v1") {
    fail("schema", "unsupported schema \"" + schema +
                       "\"; expected \"adacheck-scenario-v1\"");
  }

  ScenarioSpec spec;
  spec.name = as_string(require(root, top, "name"), "name");
  if (spec.name.empty()) fail("name", "must not be empty");
  spec.title =
      root.find("title") ? as_string(*root.find("title"), "title") : spec.name;
  if (const Value* config = root.find("config")) {
    spec.config = parse_config(*config, "config");
  }
  if (const Value* budget = root.find("budget")) {
    spec.budget = parse_budget(*budget, "budget");
  }
  if (const Value* output = root.find("output")) {
    parse_output(*output, "output", spec);
  }
  if (const Value* metrics = root.find("metrics")) {
    spec.metrics = parse_metrics(*metrics, "metrics");
  }

  if (const Value* experiments = root.find("experiments")) {
    const auto& array = as_array(*experiments, "experiments");
    for (std::size_t i = 0; i < array.size(); ++i) {
      spec.experiments.push_back(
          parse_experiment(array[i], index_path("experiments", i)));
    }
  }
  if (const Value* graphs = root.find("graphs")) {
    const auto& array = as_array(*graphs, "graphs");
    for (std::size_t i = 0; i < array.size(); ++i) {
      spec.graphs.push_back(parse_graph(array[i], index_path("graphs", i)));
    }
  }
  if (spec.experiments.empty() && spec.graphs.empty()) {
    fail(top, "at least one of \"experiments\" or \"graphs\" must be a "
              "non-empty array");
  }

  // Bound ids must be unique across both lists: the sweep report keys
  // cells by them.  They are spelled here as binding spells them, from
  // each entry's id and environment axis, without binding.
  std::vector<std::string> seen;
  const auto claim_id = [&](std::string id, const std::string& where) {
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) {
      fail(where, "duplicate experiment id \"" + id +
                      "\" (use an environment axis or distinct ids)");
    }
    seen.push_back(std::move(id));
  };
  const auto claim = [&](const auto& entries, const std::string& where) {
    for (const auto& entry : entries) {
      if (entry.environments.empty()) claim_id(entry.spec.id, where);
      for (const auto& env : entry.environments) {
        claim_id(harness::environment_id(entry.spec.id, env), where);
      }
    }
  };
  claim(spec.experiments, "experiments");
  claim(spec.graphs, "graphs");
  return spec;
}

ScenarioSpec parse_scenario_text(std::string_view text) {
  return parse_scenario(util::json::parse(text));
}

ScenarioSpec load_scenario_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) {
    throw std::runtime_error(path + ": cannot open scenario file");
  }
  try {
    return parse_scenario_text(*text);
  } catch (const util::json::ParseError& e) {
    throw std::runtime_error(path + ": " + e.what());
  } catch (const ScenarioError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace adacheck::scenario

#include "harness/graph_experiment.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "model/fault_env.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace adacheck::harness {

void GraphExperimentSpec::validate() const {
  if (id.empty()) throw std::invalid_argument("GraphExperimentSpec: empty id");
  graph.validate();
  if (workers < 1)
    throw std::invalid_argument("GraphExperimentSpec: workers < 1");
  if (instances <= 0)
    throw std::invalid_argument("GraphExperimentSpec: instances <= 0");
  costs.validate();
  if (speed_ratio <= 1.0)
    throw std::invalid_argument("GraphExperimentSpec: speed_ratio <= 1");
  if (!model::is_known_environment(environment)) {
    throw std::invalid_argument(
        "GraphExperimentSpec: unknown environment \"" + environment + "\"");
  }
  budget.validate();
  if (schedulers.empty())
    throw std::invalid_argument("GraphExperimentSpec: no schedulers");
  for (const auto& name : schedulers) {
    if (!sched::is_known_scheduler(name)) {
      throw std::invalid_argument(
          "GraphExperimentSpec: unknown scheduler \"" + name + "\"");
    }
  }
  if (lambdas.empty())
    throw std::invalid_argument("GraphExperimentSpec: no lambdas");
  for (const double lambda : lambdas) {
    if (lambda < 0.0)
      throw std::invalid_argument("GraphExperimentSpec: lambda < 0");
  }
}

std::vector<GraphExperimentSpec> graphs_with_environments(
    const std::vector<GraphExperimentSpec>& specs,
    const std::vector<std::string>& environments) {
  if (environments.empty()) {
    throw std::invalid_argument("graphs_with_environments: no environments");
  }
  std::vector<GraphExperimentSpec> expanded;
  expanded.reserve(specs.size() * environments.size());
  for (const auto& env : environments) {
    if (!model::is_known_environment(env)) {
      throw std::invalid_argument(
          "graphs_with_environments: unknown environment \"" + env + "\"");
    }
    for (const auto& spec : specs) {
      GraphExperimentSpec copy = spec;
      copy.environment = env;
      copy.id += "@" + env;
      expanded.push_back(std::move(copy));
    }
  }
  return expanded;
}

std::uint64_t graph_cell_seed(std::uint64_t master,
                              std::size_t row) noexcept {
  return util::derive_seed(master, (row << 8) ^ 0xDA6ULL);
}

namespace {

/// The graph executive's full schedule, attached to each RunView so
/// the "graph" recorder can aggregate beyond the synthetic RunResult.
struct GraphRunDetail final : sim::IRunDetail {
  const sched::GraphScheduleResult* schedule = nullptr;
};

/// Per-cell graph aggregates: end-to-end response, blocking, and
/// per-node breakdowns, emitted as the "graph" metrics group.  All
/// accumulators are RunningStats over per-run scalars merged with the
/// same Chan merges CellStats uses — deterministic in chunk order.
class GraphMetricsRecorder final : public sim::IMetricRecorder {
 public:
  explicit GraphMetricsRecorder(const sched::TaskGraph& graph) {
    node_names_.reserve(graph.nodes.size());
    for (const auto& node : graph.nodes) node_names_.push_back(node.name);
    per_node_.resize(graph.nodes.size());
  }

  std::string_view name() const override { return "graph"; }

  void observe(const sim::RunView& run) override {
    const auto* detail = dynamic_cast<const GraphRunDetail*>(run.detail);
    if (detail == nullptr || detail->schedule == nullptr) {
      throw std::logic_error(
          "GraphMetricsRecorder: RunView carries no graph schedule");
    }
    const auto& schedule = *detail->schedule;
    instances_released_.add(
        static_cast<double>(schedule.instances_released));
    instances_missed_.add(static_cast<double>(schedule.instances_missed));
    if (!schedule.end_to_end.empty()) {
      end_to_end_.add(schedule.end_to_end.mean());
    }
    blocking_.add(schedule.total_blocking);
    busy_.add(schedule.busy_time);
    makespan_.add(schedule.makespan);
    for (std::size_t n = 0; n < per_node_.size(); ++n) {
      const auto& node = schedule.per_node[n];
      auto& acc = per_node_[n];
      if (!node.response_time.empty()) {
        acc.response.add(node.response_time.mean());
      }
      if (!node.blocking_time.empty()) {
        acc.blocking.add(node.blocking_time.mean());
      }
      acc.missed.add(static_cast<double>(node.missed));
    }
  }

  void merge(const sim::IMetricRecorder& peer) override {
    const auto& other = static_cast<const GraphMetricsRecorder&>(peer);
    instances_released_.merge(other.instances_released_);
    instances_missed_.merge(other.instances_missed_);
    end_to_end_.merge(other.end_to_end_);
    blocking_.merge(other.blocking_);
    busy_.merge(other.busy_);
    makespan_.merge(other.makespan_);
    for (std::size_t n = 0; n < per_node_.size(); ++n) {
      per_node_[n].response.merge(other.per_node_[n].response);
      per_node_[n].blocking.merge(other.per_node_[n].blocking);
      per_node_[n].missed.merge(other.per_node_[n].missed);
    }
  }

  void emit(sim::MetricValues::Group& out) const override {
    out.entries.push_back(
        {"instances_released_mean", instances_released_.mean()});
    out.entries.push_back(
        {"instances_missed_mean", instances_missed_.mean()});
    out.entries.push_back({"end_to_end_mean", end_to_end_.mean()});
    out.entries.push_back({"blocking_time_mean", blocking_.mean()});
    out.entries.push_back({"busy_time_mean", busy_.mean()});
    out.entries.push_back({"makespan_mean", makespan_.mean()});
    for (std::size_t n = 0; n < per_node_.size(); ++n) {
      const std::string prefix = "node." + node_names_[n] + ".";
      out.entries.push_back(
          {prefix + "response_mean", per_node_[n].response.mean()});
      out.entries.push_back(
          {prefix + "blocking_mean", per_node_[n].blocking.mean()});
      out.entries.push_back(
          {prefix + "missed_mean", per_node_[n].missed.mean()});
    }
  }

 private:
  struct NodeAccumulators {
    util::RunningStats response;
    util::RunningStats blocking;
    util::RunningStats missed;
  };
  std::vector<std::string> node_names_;
  util::RunningStats instances_released_;
  util::RunningStats instances_missed_;
  util::RunningStats end_to_end_;
  util::RunningStats blocking_;
  util::RunningStats busy_;
  util::RunningStats makespan_;
  std::vector<NodeAccumulators> per_node_;
};

}  // namespace

sched::GraphExecutiveConfig graph_executive_config(
    const GraphExperimentSpec& spec, double lambda,
    const std::string& scheduler) {
  sched::GraphExecutiveConfig exec;
  exec.instances = spec.instances;
  exec.skip_late_jobs = spec.skip_late_jobs;
  exec.workers = spec.workers;
  exec.scheduler = scheduler;
  exec.costs = spec.costs;
  exec.fault_model = model::FaultModel{lambda, false};
  exec.environment = model::find_environment(spec.environment);
  exec.speed_ratio = spec.speed_ratio;
  exec.voltage = spec.voltage;
  return exec;
}

namespace {

/// The chunk runner for one (lambda, scheduler) cell: replays the
/// graph executive once per run index, synthesizing a RunResult so the
/// built-in CellStats recorder (and the budget evaluator) see the cell
/// exactly like a classic one.  Run `i`'s executive seed is
/// derive_seed(cell seed, i) — the same per-index derivation as the
/// engine loop — and node seeds inside are scheduler-independent.
sim::MetricSet run_graph_chunk(const GraphExperimentSpec& spec, double lambda,
                               const std::string& scheduler,
                               const sim::MonteCarloConfig& config, int begin,
                               int end) {
  std::vector<std::unique_ptr<sim::IMetricRecorder>> recorders;
  recorders.push_back(std::make_unique<sim::CellStatsRecorder>());
  recorders.push_back(std::make_unique<GraphMetricsRecorder>(spec.graph));
  auto metrics = sim::MetricSet::from_recorders(std::move(recorders));

  const bool tracing = obs::Tracer::instance().enabled();

  // One prepared executive for the whole chunk.
  sched::GraphExecutive executive(
      spec.graph, graph_executive_config(spec, lambda, scheduler));
  for (int i = begin; i < end; ++i) {
    // One exemplar schedule per cell in the trace: run 0's spans.
    const auto& schedule = executive.run(
        util::derive_seed(config.seed, static_cast<std::uint64_t>(i)),
        tracing && i == 0);

    sim::RunResult run;
    run.outcome = schedule.instances_missed == 0
                      ? sim::RunOutcome::kCompleted
                      : sim::RunOutcome::kDeadlineMiss;
    run.finish_time = schedule.makespan;
    run.energy = schedule.total_energy;
    run.faults = static_cast<int>(schedule.total_faults);
    run.rollbacks = static_cast<int>(schedule.total_rollbacks);
    run.corrections = static_cast<int>(schedule.total_corrections);

    GraphRunDetail detail;
    detail.schedule = &schedule;
    // Recorders read nothing from the setup (base_frequency rides the
    // view); the executive's bound one satisfies the reference.
    metrics.observe({executive.setup(), run, 1.0, false, &detail});
  }
  return metrics;
}

}  // namespace

std::vector<sim::CellJob> graph_experiment_jobs(
    const GraphExperimentSpec& spec, const sim::MonteCarloConfig& config) {
  spec.validate();
  // One shared immutable copy for every cell's runner closure.
  const auto shared = std::make_shared<const GraphExperimentSpec>(spec);
  std::vector<sim::CellJob> jobs;
  jobs.reserve(spec.lambdas.size() * spec.schedulers.size());
  for (std::size_t r = 0; r < spec.lambdas.size(); ++r) {
    for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
      // A runner job: no setup, no factory, no result key.
      sim::CellJob job{std::nullopt, {}, config};
      job.config.seed = graph_cell_seed(config.seed, r);
      if (spec.budget.enabled()) job.config.budget = spec.budget;
      const double lambda = spec.lambdas[r];
      const std::string scheduler = spec.schedulers[s];
      job.runner = [shared, lambda, scheduler](
                       const sim::MonteCarloConfig& cell_config, int begin,
                       int end) {
        return run_graph_chunk(*shared, lambda, scheduler, cell_config,
                               begin, end);
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

GraphExperimentResult assemble_graph_experiment(
    const GraphExperimentSpec& spec,
    const std::vector<sim::CellResult>& results, std::size_t offset) {
  GraphExperimentResult result;
  result.spec = spec;
  result.cells.reserve(spec.lambdas.size());
  result.metrics.reserve(spec.lambdas.size());
  const std::size_t width = spec.schedulers.size();
  for (std::size_t r = 0; r < spec.lambdas.size(); ++r) {
    auto& cells = result.cells.emplace_back();
    auto& metrics = result.metrics.emplace_back();
    cells.reserve(width);
    metrics.reserve(width);
    for (std::size_t s = 0; s < width; ++s) {
      const auto& cell = results[offset + r * width + s];
      cells.push_back(cell.stats);
      metrics.push_back(cell.metrics);
    }
  }
  return result;
}

}  // namespace adacheck::harness

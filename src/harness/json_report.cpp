#include "harness/json_report.hpp"

#include <cstdint>
#include <sstream>

#include "model/fault_env.hpp"
#include "util/version.hpp"

namespace adacheck::harness {

void write_cell_fields(obs::JsonWriter& json, const std::string& scheme,
                       const sim::CellStats& stats,
                       const sim::MetricValues& metrics) {
  json.kv("scheme", scheme);
  json.kv("trials", stats.completion.trials());
  json.kv("successes", stats.completion.successes());
  json.kv("p", stats.probability());
  json.kv("p_lo", stats.completion.wilson_lo());
  json.kv("p_hi", stats.completion.wilson_hi());
  json.kv("e", stats.energy());
  json.kv("e_ci95", stats.energy_success.ci95_halfwidth());
  json.kv("e_all", stats.energy_all.mean());
  json.kv("finish_time", stats.finish_time_success.mean());
  json.kv("faults", stats.faults.mean());
  json.kv("rollbacks", stats.rollbacks.mean());
  json.kv("corrections", stats.corrections.mean());
  json.kv("high_speed_cycles", stats.high_speed_cycles.mean());
  json.kv("aborted_runs", stats.aborted_runs);
  json.kv("validation_failures", stats.validation_failures);
  // v4: how many runs the cell actually executed (== trials; explicit
  // so budgeted reports read naturally) and the achieved precisions
  // the stop rule evaluates.  Null (NaN) e_rel_halfwidth means fewer
  // than two successful runs — reported, never silently wrong.
  json.kv("runs_executed", stats.completion.trials());
  json.kv("p_halfwidth", stats.completion.wilson_halfwidth());
  json.kv("e_rel_halfwidth", stats.energy_success.rel_ci95_halfwidth());
  if (!metrics.empty()) {
    json.key("metrics");
    json.begin_object();
    for (const auto& group : metrics.groups) {
      json.key(group.recorder);
      json.begin_object();
      for (const auto& entry : group.entries) {
        json.kv(entry.key, entry.value);
      }
      json.end_object();
    }
    json.end_object();
  }
}

namespace {

/// The fault environment of one experiment, fully expanded so report
/// consumers need no registry lookup.  rate_multiplier is the
/// documented effective-rate approximation: lambda_eff = lambda * it.
void write_environment(obs::JsonWriter& json, const std::string& name) {
  const auto& env = model::find_environment(name);
  json.begin_object();
  json.kv("name", name);
  json.kv("arrival", model::to_string(env.arrival));
  json.kv("shape", env.shape);
  json.kv("common_cause_fraction", env.common_cause_fraction);
  json.kv("rate_multiplier", env.rate_multiplier());
  json.key("burst");
  json.begin_object();
  json.kv("enabled", env.burst.enabled);
  if (env.burst.enabled) {
    json.kv("rate_multiplier", env.burst.rate_multiplier);
    json.kv("mean_quiet_dwell", env.burst.mean_quiet_dwell);
    json.kv("mean_burst_dwell", env.burst.mean_burst_dwell);
  }
  json.end_object();
  json.end_object();
}

/// A RunBudget, all four knobs expanded (zeros mean "unset", matching
/// the in-memory defaults).
void write_budget(obs::JsonWriter& json, const sim::RunBudget& budget) {
  json.begin_object();
  json.kv("target_p_halfwidth", budget.target_p_halfwidth);
  json.kv("target_e_rel_halfwidth", budget.target_e_rel_halfwidth);
  json.kv("min_runs", budget.min_runs);
  json.kv("max_runs", budget.max_runs);
  json.end_object();
}

}  // namespace

void write_sweep_json(const SweepResult& sweep, std::ostream& os,
                      const JsonReportOptions& options) {
  obs::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "adacheck-sweep-v6");

  // Only result-affecting parameters here — thread count is an
  // execution detail and lives in "perf", keeping the no-perf document
  // byte-identical across thread counts.  "version" is the same
  // code-version string the campaign cache fingerprints, so a report
  // always records which build produced it.
  json.key("config");
  json.begin_object();
  json.kv("version", util::version_string());
  json.kv("runs", sweep.config.runs);
  json.kv("seed", static_cast<std::uint64_t>(sweep.config.seed));
  json.kv("validate", sweep.config.validate);
  if (sweep.config.budget.enabled()) {
    json.key("budget");
    write_budget(json, sweep.config.budget);
  }
  if (sweep.config.metrics && !sweep.config.metrics->empty()) {
    json.key("metrics");
    json.begin_array();
    for (const auto& name : sweep.config.metrics->names()) json.value(name);
    json.end_array();
  }
  json.end_object();

  if (options.include_perf) {
    json.key("perf");
    json.begin_object();
    json.kv("wall_seconds", sweep.perf.wall_seconds);
    json.kv("total_runs", sweep.perf.total_runs);
    json.kv("runs_per_second", sweep.perf.runs_per_second);
    json.kv("threads", sweep.perf.threads);
    json.kv("cells", sweep.perf.cells);
    json.end_object();
  }

  json.key("experiments");
  json.begin_array();
  for (const auto& experiment : sweep.experiments) {
    const auto& spec = experiment.spec;
    json.begin_object();
    json.kv("id", spec.id);
    json.kv("title", spec.title);
    json.key("environment");
    write_environment(json, spec.environment);
    if (spec.budget.enabled()) {
      json.key("budget");
      write_budget(json, spec.budget);
    }
    json.key("schemes");
    json.begin_array();
    for (const auto& scheme : spec.schemes) json.value(scheme);
    json.end_array();
    json.key("rows");
    json.begin_array();
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      json.begin_object();
      json.kv("utilization", spec.rows[r].utilization);
      json.kv("lambda", spec.rows[r].lambda);
      json.key("cells");
      json.begin_array();
      for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
        // Hand-assembled results may omit the metrics grid entirely.
        static const sim::MetricValues kNoMetrics;
        const auto& metrics = r < experiment.metrics.size() &&
                                      s < experiment.metrics[r].size()
                                  ? experiment.metrics[r][s]
                                  : kNoMetrics;
        json.begin_object();
        write_cell_fields(json, spec.schemes[s], experiment.cells[r][s],
                          metrics);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  // v6: DAG experiments, present only when the sweep ran any — classic
  // sweeps keep their v5 byte layout under the new schema tag.
  if (!sweep.graph_experiments.empty()) {
    json.key("graph_experiments");
    json.begin_array();
    for (const auto& experiment : sweep.graph_experiments) {
      const auto& spec = experiment.spec;
      json.begin_object();
      json.kv("id", spec.id);
      json.kv("title", spec.title);
      json.key("environment");
      write_environment(json, spec.environment);
      json.kv("workers", spec.workers);
      json.kv("instances", spec.instances);
      json.kv("skip_late_jobs", spec.skip_late_jobs);
      if (spec.budget.enabled()) {
        json.key("budget");
        write_budget(json, spec.budget);
      }
      json.key("graph");
      json.begin_object();
      json.kv("period", spec.graph.period);
      json.kv("deadline", spec.graph.end_to_end_deadline());
      json.kv("critical_path_cycles", spec.graph.critical_path_cycles());
      json.key("nodes");
      json.begin_array();
      for (const auto& node : spec.graph.nodes) {
        json.begin_object();
        json.kv("name", node.name);
        json.kv("cycles", node.cycles);
        json.kv("fault_tolerance", node.fault_tolerance);
        json.kv("policy", node.policy);
        json.key("resources");
        json.begin_array();
        for (const std::size_t r : node.resources) {
          json.value(spec.graph.resources[r].name);
        }
        json.end_array();
        if (node.own_period()) {
          json.kv("period", node.period);
          json.kv("deadline", node.relative_deadline());
          json.kv("phase", node.phase);
        }
        json.end_object();
      }
      json.end_array();
      json.key("edges");
      json.begin_array();
      for (const auto& edge : spec.graph.edges) {
        json.begin_object();
        json.kv("from", spec.graph.nodes[edge.from].name);
        json.kv("to", spec.graph.nodes[edge.to].name);
        json.end_object();
      }
      json.end_array();
      json.key("resources");
      json.begin_array();
      for (const auto& resource : spec.graph.resources) {
        json.begin_object();
        json.kv("name", resource.name);
        json.kv("capacity", resource.capacity);
        json.end_object();
      }
      json.end_array();
      json.end_object();
      json.key("schedulers");
      json.begin_array();
      for (const auto& scheduler : spec.schedulers) json.value(scheduler);
      json.end_array();
      json.key("rows");
      json.begin_array();
      for (std::size_t r = 0; r < spec.lambdas.size(); ++r) {
        json.begin_object();
        json.kv("lambda", spec.lambdas[r]);
        json.key("cells");
        json.begin_array();
        for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
          static const sim::MetricValues kNoMetrics;
          const auto& metrics = r < experiment.metrics.size() &&
                                        s < experiment.metrics[r].size()
                                    ? experiment.metrics[r][s]
                                    : kNoMetrics;
          json.begin_object();
          write_cell_fields(json, spec.schedulers[s], experiment.cells[r][s],
                            metrics);
          json.end_object();
        }
        json.end_array();
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  os << "\n";
}

std::string sweep_json(const SweepResult& sweep,
                       const JsonReportOptions& options) {
  std::ostringstream out;
  write_sweep_json(sweep, out, options);
  return out.str();
}

}  // namespace adacheck::harness

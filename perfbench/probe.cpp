// Traced per-layer probe for the adacheck benchmark (run.py --trace 1).
//
// Times calls into each layer's public functions from outside src/, so
// the program under test carries no benchmark spans, and prints one
// JSON object: {"metrics": {name: value, ...}, "checks": {...}}.
// Metric names, units and the end-to-end metric each should move are
// listed in perfbench/README.md.
//
// Usage:
//   perfbench_probe --dir=DIR [--runs=N] [--rounds=R] [--min-ms=MS]
//
// DIR holds the documents run.py generated for the workload seed:
// paper_tables.json, dag.json, serve_job.json and campaign.json (with
// the scenario it references).  --runs is the per-cell run count of
// the probe's sweeps (default one 256-run chunk), --rounds the number
// of alternating repeats behind every median, --min-ms the time each
// analytic kernel is looped for.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analytic/dvs_estimate.hpp"
#include "analytic/interval_policy.hpp"
#include "analytic/num_checkpoints.hpp"
#include "analytic/renewal_tmr.hpp"
#include "campaign/runner.hpp"
#include "harness/experiment.hpp"
#include "harness/graph_experiment.hpp"
#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "harness/sweep.hpp"
#include "model/fault_env.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/graph_executive.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace adacheck;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double timed(F&& body) {
  const auto t0 = Clock::now();
  body();
  return since(t0);
}

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::logic_error("median of nothing");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Keeps kernel results observable so the timed loops are not elided.
volatile double g_sink = 0.0;

/// Ordered name -> value list, printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  void print(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", values_[i].second);
      os << (i ? ", " : "") << "\"" << values_[i].first << "\": "
         << (std::isfinite(values_[i].second) ? buf : "null");
    }
    os << "}";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Output checks made while probing; a failed one is a wrong result.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench_probe: check failed: " << what << "\n";
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- analytic ------------------------------------------------------------

/// Decision arguments spanning the paper tables: both cost flavors at
/// both speeds, per-processor and DMR-system fault rates of every table,
/// and CSCP intervals from about one checkpoint cost to 4000 time
/// units.  Fixed, so analytic.m_mismatch repeats exactly.
struct AnalyticGrid {
  std::vector<analytic::ScpRenewalParams> scp;
  std::vector<analytic::CcpRenewalParams> ccp;
  std::vector<analytic::TmrRenewalParams> tmr;
  struct Interval {
    double rd, rt, c;
    int rf;
    double lambda;
  };
  std::vector<Interval> interval;
  struct Speed {
    double cycles, deadline, lambda;
  };
  std::vector<Speed> speed;
};

AnalyticGrid make_grid() {
  const double lambdas[] = {1e-4, 2e-4, 4e-4, 1.4e-3, 1.6e-3, 2.8e-3, 3.2e-3};
  const model::CheckpointCosts flavors[] = {
      model::CheckpointCosts::paper_scp_flavor(),
      model::CheckpointCosts::paper_ccp_flavor()};
  AnalyticGrid g;
  for (const double f : {1.0, 2.0}) {
    for (const auto& c : flavors) {
      const model::CheckpointCosts t{c.store / f, c.compare / f,
                                     c.rollback / f};
      for (const double lambda : lambdas) {
        for (int i = 0; i < 36; ++i) {
          const double interval = 20.0 * std::pow(200.0, i / 35.0);
          g.scp.push_back({interval, lambda, t});
          g.ccp.push_back({interval, lambda, t});
          g.tmr.push_back({interval, lambda, t});
        }
      }
    }
  }
  for (const double rd : {1000.0, 4000.0, 10000.0}) {
    for (const double share : {0.5, 0.8, 0.95, 1.1}) {
      for (const double c : {11.0, 22.0}) {
        for (const int rf : {0, 1, 3, 5}) {
          for (const double lambda : lambdas) {
            g.interval.push_back({rd, rd * share, c, rf, lambda});
          }
        }
      }
    }
  }
  for (const double cycles : {1000.0, 4000.0, 7600.0, 9500.0}) {
    for (const double deadline : {2000.0, 5000.0, 10000.0}) {
      for (const double lambda : lambdas) {
        g.speed.push_back({cycles, deadline, lambda});
      }
    }
  }
  return g;
}

/// ns per call of `kernel` over `args`, looping whole passes for at
/// least `min_seconds`.
template <typename Args, typename Kernel>
double ns_per_call(const Args& args, double min_seconds, Kernel kernel) {
  long long calls = 0;
  double sink = 0.0;
  const auto t0 = Clock::now();
  do {
    for (const auto& a : args) sink += kernel(a);
    calls += static_cast<long long>(args.size());
  } while (since(t0) < min_seconds);
  const double elapsed = since(t0);
  g_sink = g_sink + sink;
  return elapsed * 1e9 / static_cast<double>(calls);
}

void probe_analytic(Metrics& m, double min_seconds) {
  const auto g = make_grid();
  m.set("analytic.num_scp_ns", ns_per_call(g.scp, min_seconds, [](auto& p) {
          return analytic::num_scp(p);
        }));
  m.set("analytic.num_ccp_ns", ns_per_call(g.ccp, min_seconds, [](auto& p) {
          return analytic::num_ccp(p);
        }));
  m.set("analytic.num_scp_tmr_ns",
        ns_per_call(g.tmr, min_seconds,
                    [](auto& p) { return analytic::num_scp_tmr(p); }));
  m.set("analytic.num_ccp_tmr_ns",
        ns_per_call(g.tmr, min_seconds,
                    [](auto& p) { return analytic::num_ccp_tmr(p); }));
  m.set("analytic.adaptive_interval_ns",
        ns_per_call(g.interval, min_seconds, [](auto& a) {
          return analytic::adaptive_interval(a.rd, a.rt, a.c, a.rf, a.lambda)
              .interval;
        }));
  const auto processor = model::DvsProcessor::two_speed(2.0);
  m.set("analytic.choose_speed_ns",
        ns_per_call(g.speed, min_seconds, [&](auto& a) {
          return analytic::choose_speed(processor, a.cycles, a.deadline, 22.0,
                                        a.lambda)
              .frequency;
        }));
  long long mismatch = 0;
  for (const auto& p : g.scp) {
    mismatch += analytic::num_scp(p) != analytic::num_scp_exhaustive(p);
  }
  for (const auto& p : g.ccp) {
    mismatch += analytic::num_ccp(p) != analytic::num_ccp_exhaustive(p);
  }
  m.set("analytic.m_mismatch", static_cast<double>(mismatch));
}

// --- policy and sim ------------------------------------------------------

/// Time and call counts of one scheme's policy consults and cells.
struct Tally {
  long long decisions = 0;
  long long runs = 0;
  double decide_s = 0.0;
  double cell_s = 0.0;
};

/// Forwards every consult (and reset) to the wrapped policy, timing
/// each one.  initial() runs once per simulated run, so it counts runs.
class TimedPolicy final : public sim::ICheckpointPolicy {
 public:
  TimedPolicy(std::unique_ptr<sim::ICheckpointPolicy> inner, Tally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::string name() const override { return inner_->name(); }
  bool reset() override { return inner_->reset(); }
  sim::Decision initial(const sim::ExecContext& ctx) override {
    ++tally_->runs;
    return consult([&] { return inner_->initial(ctx); });
  }
  sim::Decision on_fault(const sim::ExecContext& ctx) override {
    return consult([&] { return inner_->on_fault(ctx); });
  }
  std::optional<sim::Decision> on_commit(const sim::ExecContext& ctx) override {
    return consult([&] { return inner_->on_commit(ctx); });
  }

 private:
  template <typename F>
  std::invoke_result_t<F&> consult(F&& f) {
    const auto t0 = Clock::now();
    auto decision = f();
    tally_->decide_s += since(t0);
    ++tally_->decisions;
    return decision;
  }

  std::unique_ptr<sim::ICheckpointPolicy> inner_;
  Tally* tally_;
};

/// One classic cell with the scheme name its PolicyFactory builds.
struct SchemeCell {
  std::string scheme;
  sim::CellJob job;
};

std::vector<SchemeCell> scheme_cells(
    const std::vector<harness::ExperimentSpec>& specs,
    const sim::MonteCarloConfig& config) {
  std::vector<SchemeCell> cells;
  for (const auto& spec : specs) {
    auto jobs = harness::experiment_jobs(spec, config);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      cells.push_back({spec.schemes[j % spec.schemes.size()],
                       std::move(jobs[j])});
    }
  }
  return cells;
}

/// Plain and timed time of one scheme's (or environment's) cells.
struct PairTally {
  Tally plain;
  Tally timed;
};

bool same_stats(const sim::CellStats& a, const sim::CellStats& b) {
  return a.probability() == b.probability() &&
         a.energy_success.count() == b.energy_success.count() &&
         (a.energy_success.count() == 0 ||
          a.energy_success.mean() == b.energy_success.mean()) &&
         a.faults.mean() == b.faults.mean() &&
         a.rollbacks.mean() == b.rollbacks.mean();
}

/// Runs every cell single-threaded in the caller twice, back to back so
/// both see the same machine speed: plain, then with its PolicyFactory
/// decorated by TimedPolicy.  Books each cell to its scheme's tallies
/// (or to `tallies[key]` when given) and checks the two runs' stats
/// agree.  Returns the plain and the timed total seconds.
std::pair<double, double> run_paired(const std::vector<SchemeCell>& cells,
                                     std::map<std::string, PairTally>& tallies,
                                     Checks& checks,
                                     const std::string& key = {}) {
  double plain_total = 0.0;
  double timed_total = 0.0;
  bool same = true;
  for (const auto& cell : cells) {
    auto config = cell.job.config;
    config.threads = 1;
    PairTally& tally = tallies[key.empty() ? cell.scheme : key];
    const sim::PolicyFactory timed_factory = [inner = cell.job.factory,
                                              t = &tally.timed] {
      return std::make_unique<TimedPolicy>(inner(), t);
    };
    sim::CellResult plain, traced;
    const double p = timed([&] {
      plain = sim::run_cell_ex(cell.job.setup, cell.job.factory, config);
    });
    const double q = timed([&] {
      traced = sim::run_cell_ex(cell.job.setup, timed_factory, config);
    });
    tally.plain.cell_s += p;
    plain_total += p;
    timed_total += q;
    same = same && same_stats(plain.stats, traced.stats);
  }
  checks.expect(same, "timed policies changed the paper-table statistics");
  return {plain_total, timed_total};
}

/// What an empty timed consult records: the clock-read cost inside
/// every TimedPolicy interval, netted out of the decision times.
double clock_overhead_s() {
  constexpr int n = 1'000'000;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    total += since(t0);
  }
  return total / n;
}

/// Time inside the policy consults, net of the clock reads.
double decide_s(const Tally& t, double clock_s) {
  return t.decide_s - clock_s * static_cast<double>(t.decisions);
}

/// Engine time per run: the plain cell time (no timer calls in it)
/// minus the timed run's net time inside policy consults.
double engine_ns_per_run(const PairTally& t, double clock_s) {
  return (t.plain.cell_s - decide_s(t.timed, clock_s)) * 1e9 /
         static_cast<double>(std::max(1LL, t.timed.runs));
}

struct PaperPass {
  double serial_untraced_s = 0.0;
  double serial_traced_s = 0.0;
};

/// policy.* and sim.engine_ns_per_run.<scheme>: `rounds` paired
/// single-thread passes over every paper-table cell, summed.
PaperPass probe_policy_and_engine(
    Metrics& m, Checks& checks,
    const std::vector<harness::ExperimentSpec>& specs,
    const sim::MonteCarloConfig& config, double clock_s, int rounds) {
  const auto cells = scheme_cells(specs, config);
  std::map<std::string, PairTally> tallies;
  PaperPass pass;
  for (int r = 0; r < rounds; ++r) {
    const auto [plain, traced] = run_paired(cells, tallies, checks);
    pass.serial_untraced_s += plain / rounds;
    pass.serial_traced_s += traced / rounds;
  }
  for (const auto& [scheme, t] : tallies) {
    m.set("policy.decide_ns." + scheme,
          decide_s(t.timed, clock_s) * 1e9 /
              static_cast<double>(std::max(1LL, t.timed.decisions)));
    m.set("policy.decisions_per_run." + scheme,
          static_cast<double>(t.timed.decisions) /
              static_cast<double>(std::max(1LL, t.timed.runs)));
    m.set("sim.engine_ns_per_run." + scheme, engine_ns_per_run(t, clock_s));
    std::cerr << "perfbench_probe: " << scheme
              << " share of serial paper-table time: "
              << t.plain.cell_s / (pass.serial_untraced_s * rounds) << "\n";
  }
  return pass;
}

/// sim.engine_ns_per_run.env.<env>: one paired pass per campaign
/// environment, every scheme pooled.
void probe_environments(Metrics& m, Checks& checks,
                        const std::vector<harness::ExperimentSpec>& specs,
                        const sim::MonteCarloConfig& config, double clock_s) {
  for (const std::string env : {"poisson", "bursty-orbit", "weibull-infant"}) {
    const auto cells =
        scheme_cells(harness::with_environments(specs, {env}), config);
    std::map<std::string, PairTally> tallies;
    run_paired(cells, tallies, checks, env);
    m.set("sim.engine_ns_per_run.env." + env,
          engine_ns_per_run(tallies[env], clock_s));
  }
}

/// sim.recorder_ns_per_run.<recorder>: the serve job's cells with and
/// without each MetricSuite, back to back; median of the per-round
/// differences.
void probe_recorders(Metrics& m, const scenario::ScenarioSpec& job,
                     int runs, int rounds) {
  const auto specs = scenario::bind_experiments(job);
  auto config = scenario::monte_carlo_config(job);
  config.runs = runs;
  long long total_runs = 0;
  const auto pass = [&](const std::string& suite) {
    config.metrics =
        suite.empty() ? nullptr : sim::make_metric_suite({suite});
    std::vector<sim::CellJob> jobs;
    for (const auto& spec : specs) {
      auto more = harness::experiment_jobs(spec, config);
      std::move(more.begin(), more.end(), std::back_inserter(jobs));
    }
    total_runs = static_cast<long long>(jobs.size()) * runs;
    sim::RunCellsOptions options;
    options.threads = 1;
    return timed([&] { sim::run_cells_ex(jobs, options); });
  };
  std::map<std::string, std::vector<double>> deltas;
  for (int r = 0; r < rounds; ++r) {
    for (const std::string suite : {"tails", "checkpoints"}) {
      const double without = pass("");
      deltas[suite].push_back(pass(suite) - without);
    }
  }
  for (const auto& [suite, d] : deltas) {
    m.set("sim.recorder_ns_per_run." + suite,
          median(d) * 1e9 / static_cast<double>(total_runs));
  }
}

// --- harness -------------------------------------------------------------

void probe_harness(Metrics& m,
                   const std::vector<harness::ExperimentSpec>& specs,
                   const sim::MonteCarloConfig& config,
                   const scenario::ScenarioSpec& job, double serial_s,
                   int rounds) {
  std::vector<double> walls;
  harness::SweepResult sweep;
  for (int r = 0; r < rounds; ++r) {
    sweep = harness::run_sweep(specs, config);
    walls.push_back(sweep.perf.wall_seconds);
  }
  m.set("harness.sweep_efficiency",
        serial_s / (median(walls) * std::max(1, sweep.perf.threads)));

  // One cell, one chunk: the sweep's fixed cost.
  auto tiny = scenario::bind_experiments(job).front();
  tiny.rows.resize(1);
  tiny.schemes.resize(1);
  for (auto& row : tiny.rows) {
    if (!row.paper.empty()) row.paper.resize(1);
  }
  auto one_chunk = config;
  one_chunk.runs = 256;
  one_chunk.metrics = nullptr;
  std::vector<double> fixed;
  for (int i = 0; i < 50 * rounds; ++i) {
    fixed.push_back(timed([&] { harness::run_sweep({tiny}, one_chunk); }));
  }
  m.set("harness.sweep_fixed_us", median(fixed) * 1e6);

  std::vector<sim::CellJob> jobs;
  for (const auto& spec : specs) {
    auto more = harness::experiment_jobs(spec, config);
    std::move(more.begin(), more.end(), std::back_inserter(jobs));
  }
  const auto results = sim::run_cells_ex(jobs);
  const auto refs = harness::sweep_cell_refs(specs);
  std::vector<double> emit;
  for (int i = 0; i < 5 * rounds; ++i) {
    std::ostringstream os;
    harness::JsonlCellStream stream(os, refs);
    emit.push_back(timed([&] {
      for (std::size_t c = 0; c < results.size(); ++c) {
        stream.on_cell_done(c, results[c]);
      }
    }));
  }
  m.set("harness.jsonl_emit_us_per_cell",
        median(emit) * 1e6 / static_cast<double>(results.size()));

  harness::JsonReportOptions options;
  options.include_perf = false;
  std::vector<double> report;
  std::size_t bytes = 0;
  for (int i = 0; i < 5 * rounds; ++i) {
    std::ostringstream os;
    report.push_back(
        timed([&] { harness::write_sweep_json(sweep, os, options); }));
    bytes = os.str().size();
  }
  m.set("harness.report_emit_ms", median(report) * 1e3);
  m.set("harness.report_bytes", static_cast<double>(bytes));
}

// --- scenario ------------------------------------------------------------

void probe_scenario(Metrics& m, const std::string& text, int rounds) {
  const int n = 200 * rounds;
  scenario::ScenarioSpec spec;
  const double parse = timed([&] {
    for (int i = 0; i < n; ++i) spec = scenario::parse_scenario_text(text);
  });
  std::size_t bound = 0;
  const double bind = timed([&] {
    for (int i = 0; i < n; ++i) {
      bound += scenario::bind_experiments(spec).size();
    }
  });
  g_sink = g_sink + static_cast<double>(bound);
  m.set("scenario.parse_us", parse * 1e6 / n);
  m.set("scenario.bind_us", bind * 1e6 / n);
}

// --- campaign ------------------------------------------------------------

void probe_campaign(Metrics& m, Checks& checks, const std::string& dir,
                    int rounds) {
  const auto spec = campaign::load_campaign_file(dir + "/campaign.json");
  std::vector<double> plans;
  campaign::CampaignPlan plan;
  for (int i = 0; i < 2 * rounds; ++i) {
    plans.push_back(timed([&] { plan = campaign::plan_campaign(spec); }));
  }
  m.set("campaign.plan_ms", median(plans) * 1e3);

  std::size_t hashed = 0;
  const int passes = 10 * rounds;
  const double fingerprint = timed([&] {
    for (int i = 0; i < passes; ++i) {
      for (const auto& cell : plan.cells) {
        hashed += campaign::cell_fingerprint(cell.resolved).size();
      }
    }
  });
  g_sink = g_sink + static_cast<double>(hashed);
  const double calls = static_cast<double>(passes) *
                       static_cast<double>(plan.cells.size());
  m.set("campaign.fingerprint_us", fingerprint * 1e6 / calls);

  campaign::CampaignOptions options;
  options.cache_dir = dir + "/probe_cache";
  options.resume = false;
  std::ostringstream cold_jsonl, warm_jsonl;
  options.jsonl = &cold_jsonl;
  campaign::run_campaign(spec, options);
  options.resume = true;
  options.jsonl = &warm_jsonl;
  const auto warm = campaign::run_campaign(spec, options);
  std::size_t cached = 0;
  for (const auto& outcome : warm.outcomes) {
    cached += outcome.status == campaign::CellStatus::kCached;
  }
  checks.expect(cached == warm.outcomes.size() &&
                    warm_jsonl.str() == cold_jsonl.str(),
                "warm campaign replay differs from the cold run");
  m.set("campaign.hit_frac", static_cast<double>(cached) /
                                 static_cast<double>(warm.outcomes.size()));

  std::size_t hits = 0;
  const double probe = timed([&] {
    for (int i = 0; i < passes; ++i) {
      for (const auto& cell : plan.cells) {
        hits += campaign::cache_probe(options.cache_dir, cell.fingerprint);
      }
    }
  });
  checks.expect(hits == static_cast<std::size_t>(calls),
                "cache_probe missed a committed entry");
  m.set("campaign.probe_us", probe * 1e6 / calls);

  std::uintmax_t bytes = 0;
  for (const auto& entry : campaign::cache_ls(options.cache_dir)) {
    bytes += entry.bytes;
  }
  m.set("campaign.cache_bytes", static_cast<double>(bytes));
}

// --- sched ---------------------------------------------------------------

void probe_sched(Metrics& m, const scenario::ScenarioSpec& dag, int rounds) {
  const auto graphs = scenario::bind_graphs(dag);
  const auto seed = scenario::monte_carlo_config(dag).seed;
  const int repeats = 25 * rounds;
  long long calls = 0;
  long long executed = 0;
  for (const auto& scheduler : graphs.front().schedulers) {
    long long scheduler_calls = 0;
    double wall = 0.0;
    for (const auto& spec : graphs) {
      sched::GraphExecutiveConfig exec;
      exec.instances = spec.instances;
      exec.skip_late_jobs = spec.skip_late_jobs;
      exec.workers = spec.workers;
      exec.scheduler = scheduler;
      exec.costs = spec.costs;
      exec.environment = model::find_environment(spec.environment);
      exec.speed_ratio = spec.speed_ratio;
      exec.voltage = spec.voltage;
      for (std::size_t row = 0; row < spec.lambdas.size(); ++row) {
        exec.fault_model = model::FaultModel{spec.lambdas[row], false};
        const auto cell_seed = harness::graph_cell_seed(seed, row);
        for (int r = 0; r < repeats; ++r) {
          exec.seed =
              util::derive_seed(cell_seed, static_cast<std::uint64_t>(r));
          sched::GraphScheduleResult result;
          wall += timed(
              [&] { result = sched::run_graph_executive(spec.graph, exec); });
          for (const auto& node : result.per_node) {
            executed += node.released - node.skipped;
          }
          ++scheduler_calls;
        }
      }
    }
    calls += scheduler_calls;
    m.set("sched.graph_run_us." + scheduler,
          wall * 1e6 / static_cast<double>(scheduler_calls));
  }
  m.set("sched.jobs_per_graph_run",
        static_cast<double>(executed) / static_cast<double>(calls));
}

// --- obs -----------------------------------------------------------------

void probe_obs(Metrics& m, const std::vector<harness::ExperimentSpec>& specs,
               const sim::MonteCarloConfig& config, int rounds) {
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    const double off = harness::run_sweep(specs, config).perf.wall_seconds;
    obs::Registry::instance().set_enabled(true);
    obs::Tracer::instance().set_enabled(true);
    const double on = harness::run_sweep(specs, config).perf.wall_seconds;
    obs::Tracer::instance().set_enabled(false);
    obs::Registry::instance().set_enabled(false);
    obs::Tracer::instance().clear();
    ratios.push_back(on / off);
  }
  m.set("obs.telemetry_overhead_frac", median(ratios) - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv, {"dir", "runs", "rounds", "min-ms"});
    const std::string dir = args.get_string("dir", "");
    if (dir.empty()) throw std::invalid_argument("--dir is required");
    const int runs = static_cast<int>(args.get_int("runs", 256));
    const int rounds = static_cast<int>(args.get_int("rounds", 3));
    const double min_seconds = args.get_double("min-ms", 250.0) / 1e3;
    if (runs < 1 || rounds < 1 || !(min_seconds > 0.0)) {
      throw std::invalid_argument("--runs, --rounds and --min-ms must be > 0");
    }

    const auto paper = scenario::load_scenario_file(dir + "/paper_tables.json");
    const auto dag = scenario::load_scenario_file(dir + "/dag.json");
    const std::string job_text = read_file(dir + "/serve_job.json");
    const auto job = scenario::parse_scenario_text(job_text);
    const auto specs = scenario::bind_experiments(paper);
    auto config = scenario::monte_carlo_config(paper);
    config.runs = runs;

    Metrics m;
    Checks checks;
    probe_analytic(m, min_seconds);
    const double clock_s = clock_overhead_s();
    const auto pass =
        probe_policy_and_engine(m, checks, specs, config, clock_s, rounds);
    probe_environments(m, checks, specs, config, clock_s);
    probe_recorders(m, job, 20 * runs, 2 * rounds + 1);
    probe_harness(m, specs, config, job, pass.serial_untraced_s, rounds);
    probe_scenario(m, job_text, rounds);
    probe_campaign(m, checks, dir, rounds);
    probe_sched(m, dag, rounds);
    probe_obs(m, specs, config, 2 * rounds + 1);
    m.set("trace.overhead_frac",
          pass.serial_traced_s / pass.serial_untraced_s - 1.0);

    std::cout << "{\"metrics\": ";
    m.print(std::cout);
    std::cout << ", \"checks\": {\"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed << "}}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}

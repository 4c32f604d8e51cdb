// adacheck — the unified scenario driver.
//
// One binary fronting the whole simulation service: scenarios are
// declarative JSON files (schema adacheck-scenario-v1), campaigns
// (schema adacheck-campaign-v1) are matrices of scenario runs behind a
// content-addressed result cache, and every workload — paper tables,
// environment sweeps, the satellite/UAV examples — is a file under
// scenarios/ instead of a hand-compiled binary.
//
// Subcommands (one cli::CommandRegistry declaration each — dispatch,
// help, --version, and unknown-flag/verb "did you mean" all derive
// from the declarations; see src/cli/command.hpp):
//   run       execute a scenario, write the adacheck-sweep-v6 report and
//             print each classic experiment's paper-vs-measured table
//   campaign  execute a campaign through the result cache, write the
//             adacheck-campaign-report-v1 report; `campaign ls` and
//             `campaign gc` inspect and prune the cache itself
//   serve     long-lived job service: a loopback TCP daemon speaking
//             adacheck-serve-v1 (submit/status/list/cancel/stream/
//             shutdown) in front of a bounded priority job queue
//   validate  parse + validate scenario/campaign files, run nothing
//   list      show the registries scenarios can reference
//   version   print the code-version string
//
// Output selection follows ONE precedence rule everywhere
// (cli::resolve_output): an explicit --out/--jsonl flag wins, else the
// document's "output" object, else the built-in default
// ("<name>_sweep.json" for run, "<name>_campaign.json" for campaign);
// --out=- writes the report to stdout.  The cell section of a `run`
// report is byte-identical to the equivalent programmatic sweep at any
// --threads value (compare with --no-perf; the perf section
// legitimately differs), and so is the --jsonl cell stream.  Progress
// (--progress) and status go to stderr whenever stdout carries a
// document, so machine output stays clean.
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "cli/command.hpp"
#include "harness/json_report.hpp"
#include "harness/report.hpp"
#include "obs/json_writer.hpp"
#include "harness/stream_report.hpp"
#include "model/fault_env.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "policy/factory.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/metrics.hpp"
#include "util/canonical_json.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/version.hpp"

namespace {

using namespace adacheck;

/// Swallows status chatter under --quiet (a stream with a null
/// buffer discards everything written to it).
std::ostream& null_stream() {
  static std::ostream stream(nullptr);
  return stream;
}

/// Status stream selection shared by run and campaign: with --out=-
/// the report owns stdout, so chatter moves to stderr; --quiet drops
/// it entirely (errors still reach stderr either way).
std::ostream& status_stream(bool quiet, const std::string& out_path) {
  if (quiet) return null_stream();
  return out_path == "-" ? std::cerr : std::cout;
}

/// Overrides `value` with run-count flag `name` when it is given,
/// under the schema's range rule [1, 1e9].  The range is checked on
/// the parsed 64-bit value, before it is narrowed to int.  Returns
/// false, after saying why, on an out-of-range value.
bool run_count_flag(const util::CliArgs& args, const char* name,
                    int& value) {
  if (!args.has(name)) return true;
  const std::int64_t given = args.get_int(name, value);
  if (given < 1 || given > scenario::kMaxRuns) {
    std::cerr << "--" << name << " must be in [1, 1e9]\n";
    return false;
  }
  value = static_cast<int>(given);
  return true;
}

// --- telemetry plumbing (shared by run, campaign, serve) -----------------

/// The two obs output flags; appended to each batch verb's table.
const cli::Flag kTraceOutFlag = {
    "trace-out", "PATH",
    "write a Chrome/Perfetto trace (open in ui.perfetto.dev)"};
const cli::Flag kMetricsOutFlag = {
    "metrics-out", "PATH", "write the adacheck-stats-v1 metrics snapshot"};

std::vector<cli::Flag> with_telemetry_flags(std::vector<cli::Flag> flags) {
  flags.push_back(kTraceOutFlag);
  flags.push_back(kMetricsOutFlag);
  return flags;
}

struct TelemetryOutputs {
  std::string trace_path;
  std::string metrics_path;
};

/// Reads the obs flags and switches telemetry on accordingly.  With
/// neither flag the registry stays disabled and instrumentation costs
/// one relaxed load per site — and the outputs produced either way are
/// byte-identical (pinned by obs_test).
TelemetryOutputs telemetry_setup(const util::CliArgs& args) {
  TelemetryOutputs outputs;
  outputs.trace_path = args.get_string("trace-out", "");
  outputs.metrics_path = args.get_string("metrics-out", "");
  if (!outputs.trace_path.empty()) {
    obs::Tracer::instance().set_enabled(true);
  }
  if (!outputs.trace_path.empty() || !outputs.metrics_path.empty()) {
    obs::Registry::instance().set_enabled(true);
  }
  return outputs;
}

/// Writes whichever obs outputs were requested.  Returns 0, or 1 when
/// a file could not be written (after the run itself succeeded — the
/// result documents are already on disk by now).
int telemetry_finish(const TelemetryOutputs& outputs, std::ostream& status) {
  int rc = 0;
  if (!outputs.trace_path.empty()) {
    obs::Tracer::instance().set_enabled(false);
    if (obs::Tracer::instance().write_file(outputs.trace_path)) {
      status << "wrote trace " << outputs.trace_path << " ("
             << obs::Tracer::instance().event_count() << " events)\n";
    } else {
      std::cerr << "cannot write trace file: " << outputs.trace_path << "\n";
      rc = 1;
    }
  }
  if (!outputs.metrics_path.empty()) {
    std::ofstream out(outputs.metrics_path, std::ios::binary);
    out << obs::stats_json(obs::Registry::instance().snapshot(),
                           /*pretty=*/true);
    if (out) {
      status << "wrote metrics " << outputs.metrics_path << "\n";
    } else {
      std::cerr << "cannot write metrics file: " << outputs.metrics_path
                << "\n";
      rc = 1;
    }
  }
  return rc;
}

// --- run -----------------------------------------------------------------

const std::vector<cli::Flag> kRunFlags = {
    {"runs", "N", "override config.runs (fixed Monte-Carlo count)"},
    {"seed", "S", "override config.seed"},
    {"threads", "T", "parallelism cap and shared-pool size (0 = default)"},
    {"budget", "HW", "target Wilson 95% half-width on P"},
    {"budget-e", "HW", "target relative 95% half-width on E"},
    {"min-runs", "N", "budget floor (default one 256-run chunk)"},
    {"max-runs", "N", "budget hard cap (default config.runs)"},
    {"out", "PATH", "report path (\"-\" = stdout); overrides \"output\""},
    {"jsonl", "PATH", "stream one JSON line per completed cell"},
    {"progress", "", "live cells/runs-per-second line on stderr"},
    {"quiet", "", "drop status chatter"},
    {"validate", "", "run invariant validators on every run"},
    {"no-perf", "", "omit the perf section (byte-stable report)"},
    {"dry-run", "", "bind and print the plan without simulating"},
};

int cmd_run(const util::CliArgs& args) {
  if (args.positional().size() != 2) {
    std::cerr << "run expects exactly one scenario file\n";
    return 2;
  }
  auto scenario = scenario::load_scenario_file(args.positional()[1]);

  // Flags override the scenario's config block, under the same range
  // rules the schema enforces.
  if (!run_count_flag(args, "runs", scenario.config.runs)) return 2;
  const std::int64_t seed =
      args.get_int("seed", static_cast<std::int64_t>(scenario.config.seed));
  if (seed < 0) {
    std::cerr << "--seed must be >= 0\n";
    return 2;
  }
  scenario.config.seed = static_cast<std::uint64_t>(seed);
  const std::int64_t threads =
      args.get_int("threads", scenario.config.threads);
  if (threads < 0 || threads > 4096) {
    std::cerr << "--threads must be in [0, 4096]\n";
    return 2;
  }
  scenario.config.threads = static_cast<int>(threads);
  scenario.config.validate =
      args.get_bool("validate", scenario.config.validate);

  // Budget flags layer onto the scenario's "budget" object (or create
  // one); the combined budget is validated the same way the schema
  // validates the object.
  scenario.budget.target_p_halfwidth =
      args.get_double("budget", scenario.budget.target_p_halfwidth);
  scenario.budget.target_e_rel_halfwidth =
      args.get_double("budget-e", scenario.budget.target_e_rel_halfwidth);
  if (!run_count_flag(args, "min-runs", scenario.budget.min_runs) ||
      !run_count_flag(args, "max-runs", scenario.budget.max_runs)) {
    return 2;
  }
  try {
    scenario.budget.validate();
  } catch (const std::exception& e) {
    std::cerr << "budget flags: " << e.what() << "\n";
    return 2;
  }

  const std::string out_path = cli::resolve_output(
      args, "out", scenario.output, scenario.name + "_sweep.json");
  const std::string jsonl_path =
      cli::resolve_output(args, "jsonl", scenario.output_jsonl, "");
  if (jsonl_path == "-") {
    std::cerr << "--jsonl needs a file path (stdout is the report's)\n";
    return 2;
  }
  const bool quiet = args.get_bool("quiet", false);
  std::ostream& status = status_stream(quiet, out_path);

  const auto specs = scenario::bind_experiments(scenario);
  const auto graphs = scenario::bind_graphs(scenario);
  status << "scenario \"" << scenario.name << "\": " << specs.size()
         << " experiments";
  if (!graphs.empty()) status << " + " << graphs.size() << " graphs";
  status << ", " << harness::sweep_cell_refs(specs, graphs).size()
         << " cells x ";
  if (scenario.budget.enabled()) {
    const auto& budget = scenario.budget;
    status << "[" << budget.resolved_min(scenario.config.runs) << ", "
           << budget.resolved_max(scenario.config.runs)
           << "] runs (budgeted)\n";
  } else {
    status << scenario.config.runs << " runs\n";
  }

  if (args.get_bool("dry-run", false)) {
    for (const auto& spec : specs) {
      status << "  " << spec.id << ": " << spec.rows.size() << " rows x "
             << spec.schemes.size() << " schemes, environment "
             << spec.environment << "\n";
    }
    for (const auto& spec : graphs) {
      status << "  " << spec.id << ": graph of " << spec.graph.nodes.size()
             << " nodes/" << spec.graph.edges.size() << " edges, "
             << spec.lambdas.size() << " lambdas x "
             << spec.schedulers.size() << " schedulers, " << spec.workers
             << " workers, environment " << spec.environment << "\n";
    }
    if (!scenario.metrics.empty()) {
      status << "  metrics:";
      for (const auto& name : scenario.metrics) status << " " << name;
      status << "\n";
    }
    if (scenario.budget.enabled()) {
      const auto& budget = scenario.budget;
      status << "  budget:";
      if (budget.target_p_halfwidth > 0.0) {
        status << " target_p_halfwidth=" << budget.target_p_halfwidth;
      }
      if (budget.target_e_rel_halfwidth > 0.0) {
        status << " target_e_rel_halfwidth=" << budget.target_e_rel_halfwidth;
      }
      status << " min_runs=" << budget.resolved_min(scenario.config.runs)
             << " max_runs=" << budget.resolved_max(scenario.config.runs)
             << "\n";
    }
    if (!jsonl_path.empty()) status << "  jsonl: " << jsonl_path << "\n";
    status << "dry run: scenario validated and bound, nothing executed\n";
    return 0;
  }

  util::ThreadPool::set_shared_size(scenario.config.threads);
  const TelemetryOutputs telemetry = telemetry_setup(args);

  // Observers: the JSONL cell stream and/or the live progress line,
  // both optional.  Progress always talks to stderr, so it can never
  // contaminate --out (even --out=-) or the JSONL document.
  sim::ObserverList observers;
  std::ofstream jsonl_file;
  std::unique_ptr<harness::JsonlCellStream> jsonl;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path, std::ios::binary);
    if (!jsonl_file) {
      std::cerr << "cannot open JSONL output file: " << jsonl_path << "\n";
      return 1;
    }
    jsonl = std::make_unique<harness::JsonlCellStream>(
        jsonl_file, harness::sweep_cell_refs(specs, graphs));
    observers.add(jsonl.get());
  }
  std::unique_ptr<harness::ProgressLine> progress;
  if (args.get_bool("progress", false)) {
    progress = std::make_unique<harness::ProgressLine>(std::cerr);
    observers.add(progress.get());
  }
  harness::SweepOptions sweep_options;
  if (!observers.empty()) sweep_options.observer = &observers;

  // Sweep the specs bound above (the same bind the JSONL refs came
  // from) so the stream's cell coordinates can never desync from the
  // jobs actually run.
  const auto sweep = harness::run_sweep(
      specs, graphs, scenario::monte_carlo_config(scenario), sweep_options);

  harness::JsonReportOptions options;
  options.include_perf = !args.get_bool("no-perf", false);
  if (out_path == "-") {
    harness::write_sweep_json(sweep, std::cout, options);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open output file: " << out_path << "\n";
      return 1;
    }
    harness::write_sweep_json(sweep, out, options);
  }

  // The paper-vs-measured table and shape checks of every classic
  // experiment, on the status stream; --quiet skips the rendering.
  // Shape checks report, they never change the exit code.
  if (!quiet) {
    for (const auto& experiment : sweep.experiments) {
      status << harness::render_experiment(experiment) << "\n"
             << harness::render_shape_checks(harness::shape_checks(experiment))
             << "\n";
    }
  }
  status << "wall: " << sweep.perf.wall_seconds << " s on "
         << sweep.perf.threads << " threads, " << sweep.perf.runs_per_second
         << " runs/s\n";
  if (out_path != "-") status << "wrote " << out_path << "\n";
  if (!jsonl_path.empty()) {
    status << "streamed " << jsonl->emitted() << " cells to " << jsonl_path
           << "\n";
  }
  return telemetry_finish(telemetry, status);
}

// --- campaign ------------------------------------------------------------

const std::vector<cli::Flag> kCampaignFlags = {
    {"cache", "DIR", "result cache directory (overrides \"cache_dir\")"},
    {"resume", "", "replay cached cells, execute only misses (default)"},
    {"fresh", "", "ignore the cache, re-execute and overwrite everything"},
    {"fail-fast", "", "stop at the first failed cell, skip the rest"},
    {"threads", "T", "per-cell parallelism cap and shared-pool size"},
    {"cells", "N", "cache-miss cells in flight (0 = pool width)"},
    {"out", "PATH", "report path (\"-\" = stdout); overrides \"output\""},
    {"jsonl", "PATH", "campaign stream: header + cell lines per cell"},
    {"progress", "", "live progress line on stderr for executed cells"},
    {"quiet", "", "drop status chatter"},
    {"no-perf", "", "omit the execution section (byte-stable report)"},
    {"dry-run", "", "plan/probe only (campaign); report only (gc)"},
    {"older-than", "AGE", "gc: prune valid entries older than 30m/12h/7d"},
};

/// Cache directory for `campaign ls` / `campaign gc`: --cache wins,
/// else the campaign file named after the sub-verb supplies its
/// cache_dir.  Empty string + error message when neither is given.
std::string cache_dir_for(const util::CliArgs& args) {
  std::string cache_dir = args.get_string("cache", "");
  if (!cache_dir.empty()) return cache_dir;
  if (args.positional().size() > 2) {
    return campaign::load_campaign_file(args.positional()[2]).cache_dir;
  }
  return "";
}

std::string format_age(double seconds) {
  std::ostringstream out;
  if (seconds < 60.0) {
    out << static_cast<long long>(seconds) << "s";
  } else if (seconds < 3600.0) {
    out << static_cast<long long>(seconds / 60.0) << "m";
  } else if (seconds < 86400.0) {
    out << static_cast<long long>(seconds / 3600.0) << "h";
  } else {
    out << static_cast<long long>(seconds / 86400.0) << "d";
  }
  return out.str();
}

void print_cache_entry(std::ostream& os, const campaign::CacheEntryInfo& e) {
  os << "  " << e.fingerprint << "  ";
  if (e.valid) {
    os << e.scenario;
    if (!e.environment.empty()) os << "@" << e.environment;
    os << " seed=" << e.seed << " cells=" << e.sweep_cells
       << " runs=" << e.total_runs;
  } else {
    os << (e.stale ? "STALE (" : "CORRUPT (") << e.defect << ")";
  }
  os << " age=" << format_age(e.age_seconds) << " " << e.bytes << "B\n";
}

int cmd_campaign_ls(const util::CliArgs& args) {
  const std::string cache_dir = cache_dir_for(args);
  if (cache_dir.empty()) {
    std::cerr << "campaign ls needs --cache DIR or a campaign file\n";
    return 2;
  }
  const auto entries = campaign::cache_ls(cache_dir);
  std::size_t valid = 0;
  std::size_t stale = 0;
  std::uintmax_t bytes = 0;
  for (const auto& entry : entries) {
    if (entry.valid) ++valid;
    if (entry.stale) ++stale;
    bytes += entry.bytes;
  }
  std::cout << "cache " << cache_dir << ": " << entries.size() << " entries ("
            << valid << " valid, " << stale << " stale, "
            << (entries.size() - valid - stale) << " corrupt), " << bytes
            << " bytes\n";
  for (const auto& entry : entries) print_cache_entry(std::cout, entry);
  return 0;
}

int cmd_campaign_gc(const util::CliArgs& args) {
  const std::string cache_dir = cache_dir_for(args);
  if (cache_dir.empty()) {
    std::cerr << "campaign gc needs --cache DIR or a campaign file\n";
    return 2;
  }
  campaign::CacheGcOptions options;
  options.dry_run = args.get_bool("dry-run", false);
  const std::string older_than = args.get_string("older-than", "");
  if (!older_than.empty()) {
    try {
      options.older_than_seconds = campaign::parse_duration_seconds(older_than);
    } catch (const std::exception& e) {
      std::cerr << "--older-than: " << e.what() << "\n";
      return 2;
    }
  }
  const auto result = campaign::cache_gc(cache_dir, options);
  const char* verb = options.dry_run ? "would remove" : "removed";
  if (!result.removed.empty()) {
    std::cout << verb << ":\n";
    for (const auto& entry : result.removed) {
      print_cache_entry(std::cout, entry);
    }
  }
  std::cout << "gc " << cache_dir << ": " << verb << " "
            << result.removed.size() << " entries";
  if (result.temp_files > 0) {
    std::cout << " and " << result.temp_files << " temp files";
  }
  std::cout << " (" << result.bytes_freed << " bytes), kept " << result.kept
            << "\n";
  return 0;
}

int cmd_campaign(const util::CliArgs& args) {
  // `campaign ls` / `campaign gc` operate on the cache itself; the
  // plain verb runs a campaign file.
  if (args.positional().size() >= 2 && args.positional()[1] == "ls") {
    return cmd_campaign_ls(args);
  }
  if (args.positional().size() >= 2 && args.positional()[1] == "gc") {
    return cmd_campaign_gc(args);
  }
  if (args.positional().size() != 2) {
    std::cerr << "campaign expects one campaign file (or the ls/gc "
                 "sub-verbs)\n";
    return 2;
  }
  const auto spec = campaign::load_campaign_file(args.positional()[1]);

  if (args.get_bool("fresh", false) && args.get_bool("resume", false)) {
    std::cerr << "--fresh and --resume are mutually exclusive\n";
    return 2;
  }
  // -1 stands for "not given": each cell keeps its scenario's threads.
  const std::int64_t threads =
      args.has("threads") ? args.get_int("threads", 0) : -1;
  if (args.has("threads") && (threads < 0 || threads > 4096)) {
    std::cerr << "--threads must be in [0, 4096]\n";
    return 2;
  }

  const std::string out_path = cli::resolve_output(
      args, "out", spec.output, spec.name + "_campaign.json");
  const std::string jsonl_path =
      cli::resolve_output(args, "jsonl", spec.output_jsonl, "");
  if (jsonl_path == "-") {
    std::cerr << "--jsonl needs a file path (stdout is the report's)\n";
    return 2;
  }
  const bool quiet = args.get_bool("quiet", false);
  std::ostream& status = status_stream(quiet, out_path);

  const std::int64_t cells = args.get_int("cells", 0);
  if (cells < 0 || cells > 4096) {
    std::cerr << "--cells must be in [0, 4096]\n";
    return 2;
  }

  campaign::CampaignOptions options;
  options.resume = !args.get_bool("fresh", false);
  options.fail_fast = args.get_bool("fail-fast", false);
  options.threads = static_cast<int>(threads);
  options.cell_parallelism = static_cast<int>(cells);
  options.cache_dir = args.get_string("cache", "");
  options.status = &status;

  const std::string cache_dir =
      options.cache_dir.empty() ? spec.cache_dir : options.cache_dir;

  // Size the pool first: planning runs on it, --dry-run included.
  if (threads >= 0) {
    util::ThreadPool::set_shared_size(static_cast<int>(threads));
  }
  if (args.get_bool("dry-run", false)) {
    const auto plan = campaign::plan_campaign(spec);
    status << "campaign \"" << spec.name << "\": " << plan.cells.size()
           << " cells, cache " << cache_dir << "\n";
    for (const auto& cell : plan.cells) {
      status << "  [" << (cell.index + 1) << "] " << cell.resolved.name;
      if (!cell.environment.empty()) status << "@" << cell.environment;
      status << " seed=" << cell.seed << " runs=" << cell.resolved.config.runs
             << " cells=" << cell.sweep_cells << " fp=" << cell.fingerprint
             << " "
             << (campaign::cache_probe(cache_dir, cell.fingerprint)
                     ? "cached"
                     : "miss")
             << "\n";
    }
    status << "dry run: campaign planned, nothing executed\n";
    return 0;
  }

  const TelemetryOutputs telemetry = telemetry_setup(args);

  std::ofstream jsonl_file;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path, std::ios::binary);
    if (!jsonl_file) {
      std::cerr << "cannot open JSONL output file: " << jsonl_path << "\n";
      return 1;
    }
    options.jsonl = &jsonl_file;
  }
  std::unique_ptr<harness::ProgressLine> progress;
  if (args.get_bool("progress", false)) {
    progress = std::make_unique<harness::ProgressLine>(std::cerr);
    options.observer = progress.get();
  }

  status << "campaign \"" << spec.name << "\": cache " << cache_dir << "\n";
  const auto result = campaign::run_campaign(spec, options);

  campaign::CampaignReportOptions report_options;
  report_options.include_execution = !args.get_bool("no-perf", false);
  if (out_path == "-") {
    campaign::write_campaign_json(spec, result, std::cout, report_options);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open output file: " << out_path << "\n";
      return 1;
    }
    campaign::write_campaign_json(spec, result, out, report_options);
  }

  std::size_t cached = 0, executed = 0, failed = 0, skipped = 0;
  long long runs = 0;
  for (const auto& outcome : result.outcomes) {
    switch (outcome.status) {
      case campaign::CellStatus::kCached: ++cached; break;
      case campaign::CellStatus::kExecuted: ++executed; break;
      case campaign::CellStatus::kFailed: ++failed; break;
      case campaign::CellStatus::kSkipped: ++skipped; break;
    }
    runs += outcome.runs_executed;
  }
  status << "campaign: " << cached << " cached, " << executed
         << " executed, " << failed << " failed, " << skipped
         << " skipped; " << runs << " runs in " << result.wall_seconds
         << " s\n";
  if (out_path != "-") status << "wrote " << out_path << "\n";
  if (!jsonl_path.empty()) status << "streamed to " << jsonl_path << "\n";
  const int telemetry_rc = telemetry_finish(telemetry, status);
  if (result.any_failed()) return 1;
  return telemetry_rc;
}

// --- validate ------------------------------------------------------------

int cmd_validate(const util::CliArgs& args) {
  const auto& files = args.positional();  // [0] is the verb
  if (files.size() < 2) {
    std::cerr << "validate expects at least one scenario or campaign file\n";
    return 2;
  }
  int failures = 0;
  for (std::size_t i = 1; i < files.size(); ++i) {
    try {
      // Dispatch on the document's "schema" member: campaign documents
      // validate their matrix AND every referenced scenario (via
      // planning); anything else must be a valid scenario.
      const std::optional<std::string> text = util::read_file(files[i]);
      if (!text) throw std::runtime_error(files[i] + ": cannot open file");
      // Parse errors must carry the failing document's source: with
      // several files on the command line, a bare "line 3: ..." is
      // useless.
      util::json::Value document;
      try {
        document = util::json::parse(*text);
      } catch (const std::exception& e) {
        throw std::runtime_error(files[i] + ": " + e.what());
      }
      if (campaign::is_campaign_document(document)) {
        const auto spec = campaign::load_campaign_file(files[i]);
        const auto plan = campaign::plan_campaign(spec);
        std::cout << files[i] << ": ok (campaign, " << plan.cells.size()
                  << " cells)\n";
      } else {
        const auto scenario = scenario::load_scenario_file(files[i]);
        const auto specs = scenario::bind_experiments(scenario);
        const auto graphs = scenario::bind_graphs(scenario);
        std::cout << files[i] << ": ok (" << specs.size() << " experiments";
        if (!graphs.empty()) std::cout << " + " << graphs.size() << " graphs";
        std::cout << ", " << harness::sweep_cell_refs(specs, graphs).size()
                  << " cells)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// --- serve ---------------------------------------------------------------

const std::vector<cli::Flag> kServeFlags = {
    {"host", "ADDR", "bind address (default 127.0.0.1; local service)"},
    {"port", "P", "TCP port (default 0 = kernel-chosen ephemeral)"},
    {"port-file", "PATH", "write the bound port after listen (scripts)"},
    {"queue", "N", "bounded submission queue; full rejects (default 64)"},
    {"jobs", "N", "concurrent job executions (default 2)"},
    {"threads", "T", "shared-pool size for job sweeps (0 = default)"},
    {"transcript", "PATH", "write the protocol session transcript"},
    {"trace-out", "PATH", "write a Chrome/Perfetto trace at shutdown"},
    {"quiet", "", "drop status chatter"},
};

/// SIGINT/SIGTERM land here so Ctrl-C drains jobs and exits cleanly
/// instead of leaving half-written transcripts.
serve::Server* g_serve_server = nullptr;

void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_shutdown();
}

int cmd_serve(const util::CliArgs& args) {
  if (args.positional().size() != 1) {
    std::cerr << "serve takes no positional arguments\n";
    return 2;
  }
  serve::ServerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  const std::int64_t port = args.get_int("port", 0);
  if (port < 0 || port > 65535) {
    std::cerr << "--port must be in [0, 65535]\n";
    return 2;
  }
  options.port = static_cast<int>(port);
  const std::int64_t queue = args.get_int("queue", 64);
  if (queue < 1 || queue > 100000) {
    std::cerr << "--queue must be in [1, 100000]\n";
    return 2;
  }
  options.jobs.max_queued = static_cast<std::size_t>(queue);
  const std::int64_t jobs = args.get_int("jobs", 2);
  if (jobs < 1 || jobs > 256) {
    std::cerr << "--jobs must be in [1, 256]\n";
    return 2;
  }
  options.jobs.workers = static_cast<int>(jobs);
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0 || threads > 4096) {
    std::cerr << "--threads must be in [0, 4096]\n";
    return 2;
  }
  if (threads > 0) {
    util::ThreadPool::set_shared_size(static_cast<int>(threads));
  }

  const bool quiet = args.get_bool("quiet", false);
  if (!quiet) options.status = &std::cout;

  std::ofstream transcript;
  const std::string transcript_path = args.get_string("transcript", "");
  if (!transcript_path.empty()) {
    transcript.open(transcript_path, std::ios::binary | std::ios::trunc);
    if (!transcript) {
      std::cerr << "cannot open transcript file: " << transcript_path << "\n";
      return 1;
    }
    options.transcript = &transcript;
  }

  serve::Server server(options);

  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::binary | std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::cerr << "cannot write port file: " << port_file << "\n";
      return 1;
    }
  }

  // The Server constructor enabled the metrics registry (the stats
  // verb needs live data); span tracing additionally needs a sink.
  const std::string trace_path = args.get_string("trace-out", "");
  if (!trace_path.empty()) obs::Tracer::instance().set_enabled(true);

  g_serve_server = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  server.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server = nullptr;

  if (!trace_path.empty()) {
    obs::Tracer::instance().set_enabled(false);
    if (!obs::Tracer::instance().write_file(trace_path)) {
      std::cerr << "cannot write trace file: " << trace_path << "\n";
      return 1;
    }
    if (!quiet) {
      std::cout << "wrote trace " << trace_path << " ("
                << obs::Tracer::instance().event_count() << " events)\n";
    }
  }
  if (!quiet) std::cout << "serve: shut down cleanly\n";
  return 0;
}

// --- submit --------------------------------------------------------------

const std::vector<cli::Flag> kSubmitFlags = {
    {"host", "ADDR", "daemon address (default 127.0.0.1)"},
    {"port", "P", "daemon TCP port"},
    {"port-file", "PATH", "read the port from a serve --port-file"},
    {"priority", "N", "scheduling priority (higher runs earlier)"},
    {"threads", "T", "per-job parallelism cap (0 = job default)"},
    {"source", "LABEL", "job label shown by status/list (default: path)"},
    {"follow", "", "stream the job's cell JSONL to stdout until terminal"},
};

/// Resolves the daemon port: --port wins, else the first line of
/// --port-file.  Returns 0 (with a message) when neither works.
int resolve_port(const util::CliArgs& args) {
  const std::int64_t port = args.get_int("port", 0);
  if (port < 0 || port > 65535) {
    std::cerr << "--port must be in [1, 65535]\n";
    return 0;
  }
  if (port > 0) return static_cast<int>(port);
  const std::string port_file = args.get_string("port-file", "");
  if (port_file.empty()) {
    std::cerr << "submit needs --port P or --port-file PATH\n";
    return 0;
  }
  std::ifstream in(port_file);
  int from_file = 0;
  if (!(in >> from_file) || from_file < 1 || from_file > 65535) {
    std::cerr << port_file << ": not a port file\n";
    return 0;
  }
  return from_file;
}

/// `adacheck submit` — the shell-friendly serve client: submit one
/// scenario file to a running daemon, optionally stream its JSONL to
/// stdout (--follow).  Chatter goes to stderr; stdout carries nothing
/// but the job's cell lines, so `adacheck submit --follow ... > out`
/// captures a stream byte-identical to `adacheck run --jsonl`.
int cmd_submit(const util::CliArgs& args) {
  if (args.positional().size() != 2) {
    std::cerr << "submit expects exactly one scenario file\n";
    return 2;
  }
  const std::string& path = args.positional()[1];
  const int port = resolve_port(args);
  if (port == 0) return 2;
  const std::int64_t priority = args.get_int("priority", 0);
  if (priority < -1'000'000 || priority > 1'000'000) {
    std::cerr << "--priority must be in [-1e6, 1e6]\n";
    return 2;
  }
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0 || threads > 4096) {
    std::cerr << "--threads must be in [0, 4096]\n";
    return 2;
  }

  // Ship the document inline (parsed client-side, so a bad file fails
  // here with a local path, and the daemon needs no filesystem view).
  const std::optional<std::string> text = util::read_file(path);
  if (!text) {
    std::cerr << path << ": cannot open file\n";
    return 2;
  }
  util::json::Value document;
  try {
    document = util::json::parse(*text);
  } catch (const std::exception& e) {
    std::cerr << path << ": " << e.what() << "\n";
    return 2;
  }

  std::ostringstream request;
  obs::JsonWriter json(request, obs::JsonStyle::kCompact);
  json.begin_object();
  json.kv("req", "submit");
  json.key("scenario");
  json.raw_value(util::canonical_json(document));
  if (priority != 0) json.kv("priority", priority);
  if (threads != 0) json.kv("threads", threads);
  json.kv("source", args.get_string("source", path));
  json.end_object();

  const std::string host = args.get_string("host", "127.0.0.1");
  try {
    serve::LineClient client(host, port);
    client.send_line(request.str());
    const auto reply = client.recv_line();
    if (!reply) {
      std::cerr << "submit: daemon closed the connection\n";
      return 1;
    }
    const auto response = util::json::parse(*reply);
    const util::json::Value* ok = response.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const util::json::Value* error = response.find("error");
      std::cerr << "submit: "
                << (error != nullptr && error->is_string()
                        ? error->as_string()
                        : *reply)
                << "\n";
      return 1;
    }
    // A reply this client cannot read is an error, never a crash.
    const auto malformed = [](const std::string& line) {
      std::cerr << "submit: malformed reply: " << line << "\n";
      return 1;
    };
    const util::json::Value* job_id = response.find("job");
    if (job_id == nullptr || !job_id->is_number()) return malformed(*reply);
    const std::uint64_t job = static_cast<std::uint64_t>(job_id->as_int());
    std::cerr << "submitted job " << job << " to " << host << ":" << port
              << "\n";
    if (!args.get_bool("follow", false)) {
      std::cout << job << "\n";  // the handle, for scripts
      return 0;
    }

    // Follow: one stream request, cell lines verbatim to stdout until
    // the adacheck-serve-eot-v1 line reports the terminal state.
    client.send_line("{\"req\": \"stream\", \"job\": " +
                     std::to_string(job) + "}");
    const auto opening = client.recv_line();
    if (!opening) {
      std::cerr << "stream: daemon closed the connection\n";
      return 1;
    }
    const auto opened = util::json::parse(*opening);
    const util::json::Value* stream_ok = opened.find("ok");
    if (stream_ok == nullptr || !stream_ok->is_bool() ||
        !stream_ok->as_bool()) {
      std::cerr << "stream: " << *opening << "\n";
      return 1;
    }
    for (;;) {
      const auto line = client.recv_line();
      if (!line) {
        std::cerr << "stream: connection lost before end of stream\n";
        return 1;
      }
      if (line->starts_with("{\"schema\":\"adacheck-serve-eot-v1\"")) {
        const auto eot = util::json::parse(*line);
        const util::json::Value* eot_state = eot.find("state");
        if (eot_state == nullptr || !eot_state->is_string()) {
          return malformed(*line);
        }
        const std::string& state = eot_state->as_string();
        std::cerr << "job " << job << " " << state << "\n";
        return state == "done" ? 0 : 1;
      }
      std::cout << *line << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "submit: " << e.what() << "\n";
    return 1;
  }
}

// --- list ----------------------------------------------------------------

void print_section(const std::string& heading,
                   const std::vector<std::string>& names) {
  std::cout << heading << ":\n";
  for (const auto& name : names) std::cout << "  " << name << "\n";
}

int cmd_list(const util::CliArgs& args) {
  const std::string what =
      args.positional().size() > 1 ? args.positional()[1] : "";
  if (what.empty() || what == "policies") {
    print_section("policies (scheme factory names)",
                  policy::known_policies());
  }
  if (what.empty() || what == "environments") {
    print_section("fault environments (registry names)",
                  model::known_environments());
  }
  if (what.empty() || what == "schedulers") {
    std::vector<std::string> lines;
    for (const auto& info : sched::known_scheduler_info()) {
      lines.push_back(info.name + ": " + info.description);
    }
    print_section("schedulers (graph \"schedulers\" names)", lines);
  }
  if (what.empty() || what == "tables") {
    print_section("paper tables", scenario::known_tables());
  }
  if (what.empty() || what == "metrics") {
    print_section("metric recorders (scenario \"metrics\" names)",
                  sim::known_metric_recorders());
  }
  if (what.empty() || what == "budget") {
    print_section(
        "budget knobs (scenario \"budget\" object / run flags)",
        {"target_p_halfwidth (--budget): Wilson 95% half-width on P",
         "target_e_rel_halfwidth (--budget-e): relative 95% half-width on E",
         "min_runs (--min-runs): floor; default one chunk (256 runs)",
         "max_runs (--max-runs): hard cap; default config.runs"});
  }
  if (!what.empty() && what != "policies" && what != "environments" &&
      what != "schedulers" && what != "tables" && what != "metrics" &&
      what != "budget") {
    std::cerr << "unknown list \"" << what
              << "\"; choose policies, environments, schedulers, tables, "
                 "metrics, or budget\n";
    return 2;
  }
  return 0;
}

cli::CommandRegistry build_registry() {
  cli::CommandRegistry registry(
      "adacheck",
      "adacheck — declarative scenario driver "
      "(conf_date_LiCY06 reproduction)",
      util::version_string());
  registry.add({"run", "execute a scenario, write the sweep report",
                "run <scenario.json>", with_telemetry_flags(kRunFlags),
                cmd_run});
  registry.add({"campaign",
                "execute a scenario matrix through the result cache",
                "campaign <campaign.json> | campaign ls|gc [campaign.json]",
                with_telemetry_flags(kCampaignFlags), cmd_campaign});
  registry.add({"serve", "long-lived job service (adacheck-serve-v1 TCP)",
                "serve [--port P] [--port-file PATH]", kServeFlags,
                cmd_serve});
  registry.add({"submit", "send a scenario to a serve daemon",
                "submit <scenario.json> --port P|--port-file PATH "
                "[--follow]",
                kSubmitFlags, cmd_submit});
  registry.add({"validate", "parse + validate files, run nothing",
                "validate <file.json> [more.json ...]", {}, cmd_validate});
  registry.add({"list", "show the registries scenarios can reference",
                "list [policies|environments|schedulers|tables|metrics|"
                "budget]",
                {}, cmd_list});
  return registry;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return build_registry().dispatch(argc, argv, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "adacheck: " << e.what() << "\n";
    return 1;
  }
}

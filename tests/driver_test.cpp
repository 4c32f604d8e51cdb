// The adacheck binary end to end, one process per command, the way a
// user or a script drives it: flags and exit codes, the text on the
// status stream, the files each verb writes, and a real serve daemon.
// golden_test pins the output bytes; this suite pins everything else
// about the executable.
//
// adacheck run's run-count flags (--runs, --min-runs, --max-runs) follow
// the scenario schema's range rule, [1, 1e9].  The check runs on the
// parsed 64-bit value, so a value that would wrap when narrowed to int
// (2^32 + 1 becomes 1) is rejected instead of silently planned, and a
// numeric flag must parse whole ("10k" is not 10).  adacheck campaign's
// --threads is range-checked to [0, 4096] when it is given.  Those
// cases drive the adacheck binary with --dry-run: nothing simulates.
//
// The text output of adacheck run is pinned here too: each classic
// experiment's paper-vs-measured table and its shape checks go to the
// status stream (stdout, or stderr under --out=-), never under --quiet,
// and a graph-only scenario prints no table.
//
// Each test works in its own directory under driver_work/ in the build
// tree, emptied when the test starts and kept afterwards, so the
// reports, trace, stats and serve transcript can be inspected.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adacheck_process.hpp"
#include "serve/client.hpp"
#include "util/canonical_json.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace adacheck {
namespace {

namespace fs = std::filesystem;
using testutil::ProcessResult;
using testutil::quoted;
using testutil::read_file;
using testutil::run_adacheck;
using util::json::Value;

/// A test's working directory under driver_work/, emptied on
/// construction and left in place for inspection.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(ADACHECK_DRIVER_WORK) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// A shipped scenario or campaign file, quoted for the shell.
std::string shipped(const std::string& name) {
  return quoted(fs::path(ADACHECK_SCENARIO_DIR) / name);
}

/// Runs `adacheck <args>` in `dir` and expects exit code `code` with
/// `message` somewhere in stdout or stderr.
void expect_exit(const fs::path& dir, const std::string& args, int code,
                 const std::string& message) {
  const auto result = run_adacheck(dir, args);
  EXPECT_EQ(result.code, code) << args << "\n" << result.out << result.err;
  EXPECT_NE((result.out + result.err).find(message), std::string::npos)
      << args << "\n"
      << result.out << result.err;
}

/// Runs `adacheck <verb> <document> <flags> --dry-run` and expects exit
/// code `exit_code` with `message` somewhere in stdout or stderr.
void expect_verb(const std::string& verb, const std::string& document,
                 const std::string& flags, int exit_code,
                 const std::string& message) {
  static const ScratchDir dir("flags");
  expect_exit(dir.path(), verb + " " + shipped(document) + " " + flags +
                              " --dry-run",
              exit_code, message);
}

void expect_run(const std::string& flags, int exit_code,
                const std::string& message) {
  expect_verb("run", "smoke.json", flags, exit_code, message);
}

void expect_campaign(const std::string& flags, int exit_code,
                     const std::string& message) {
  expect_verb("campaign", "campaign_smoke.json", flags, exit_code, message);
}

TEST(RunFlags, RunCountsOutsideTheSchemaRangeAreRejected) {
  // 2^32 + 1 narrows to 1 and 2^32 + 256 to 256; 1e9 + 1 is past the
  // schema cap.
  expect_run("--runs=4294967297", 2, "--runs must be in [1, 1e9]");
  expect_run("--runs=1000000001", 2, "--runs must be in [1, 1e9]");
  expect_run("--runs=0", 2, "--runs must be in [1, 1e9]");
  expect_run("--budget=0.02 --max-runs=4294967552", 2,
             "--max-runs must be in [1, 1e9]");
  expect_run("--budget=0.02 --max-runs=1000000001", 2,
             "--max-runs must be in [1, 1e9]");
  expect_run("--budget=0.02 --min-runs=4294967552", 2,
             "--min-runs must be in [1, 1e9]");
  expect_run("--budget=0.02 --min-runs=0", 2,
             "--min-runs must be in [1, 1e9]");
}

TEST(RunFlags, TheRangeEndsAreAccepted) {
  expect_run("--runs=1", 0, "cells x 1 runs");
  expect_run("--runs=1000000000", 0, "cells x 1000000000 runs");
  expect_run("--budget=0.02 --min-runs=1 --max-runs=1000000000", 0,
             "[1, 1000000000] runs (budgeted)");
}

TEST(RunFlags, NumericFlagsMustParseWhole) {
  expect_run("--runs=10k", 2, "flag --runs expects an integer, got '10k'");
  expect_run("--budget=0.01x", 2,
             "flag --budget expects a number, got '0.01x'");
  expect_run("--runs=10", 0, "cells x 10 runs");
}

TEST(RunFlags, CampaignThreadsMustBeInRangeWhenGiven) {
  // -1 is only the internal "not given" value, not an accepted flag.
  expect_campaign("--threads=-1", 2, "--threads must be in [0, 4096]");
  expect_campaign("--threads=4097", 2, "--threads must be in [0, 4096]");
  expect_campaign("--threads=0", 0, "dry run: campaign planned");
  expect_campaign("--threads=1", 0, "dry run: campaign planned");
  expect_campaign("", 0, "dry run: campaign planned");
}

// --- text output ----------------------------------------------------------

/// Runs `<env> adacheck <args>` in `dir`; exit code 0 is required.
ProcessResult run_ok(const fs::path& dir, const std::string& args,
                     const std::string& env = "") {
  auto result = run_adacheck(dir, args, env);
  EXPECT_EQ(result.code, 0) << args << "\n" << result.err;
  return result;
}

/// Runs `adacheck run <scenario> <flags>` to completion inside
/// `scratch`, so any default output path lands there; exit code 0 is
/// required.
ProcessResult run_scenario(const fs::path& scratch,
                           const std::string& scenario,
                           const std::string& flags) {
  return run_ok(scratch, "run " + quoted(fs::path(scenario)) + " " + flags);
}

/// One row with A_D and A_D_S, so the shape checks apply.
fs::path write_small_scenario(const fs::path& dir) {
  const fs::path path = dir / "text.json";
  std::ofstream(path) << R"({
    "schema": "adacheck-scenario-v1",
    "name": "text",
    "config": {"runs": 32},
    "experiments": [{
      "id": "text",
      "title": "text output: one row, A_D vs A_D_S",
      "fault_tolerance": 5,
      "schemes": ["A_D", "A_D_S"],
      "rows": [{"utilization": 0.76, "lambda": 1.4e-3}]
    }]
  })";
  return path;
}

bool has_table(const std::string& text) {
  return text.find("text output: one row, A_D vs A_D_S\n") !=
             std::string::npos &&
         text.find("A_D_S P(paper/ours)") != std::string::npos;
}

bool has_shape_checks(const std::string& text) {
  return text.find("[PASS] ") != std::string::npos ||
         text.find("[FAIL] ") != std::string::npos;
}

TEST(RunText, ClassicExperimentsPrintTheirTableAndShapeChecks) {
  const ScratchDir scratch("table");
  const auto scenario = write_small_scenario(scratch.path()).string();
  const auto run = run_scenario(scratch.path(), scenario, "--out=report.json");
  EXPECT_TRUE(has_table(run.out)) << run.out;
  EXPECT_TRUE(has_shape_checks(run.out)) << run.out;
  // The block sits after the plan line and before the wall line.
  EXPECT_LT(run.out.find("scenario \"text\""), run.out.find("P(paper/ours)"));
  EXPECT_LT(run.out.find("P(paper/ours)"), run.out.find("wall: "));
}

TEST(RunText, QuietPrintsNoTable) {
  const ScratchDir scratch("quiet");
  const auto scenario = write_small_scenario(scratch.path()).string();
  const auto run =
      run_scenario(scratch.path(), scenario, "--quiet --out=report.json");
  EXPECT_EQ(run.out, "");
  EXPECT_FALSE(has_table(run.err)) << run.err;
  EXPECT_FALSE(has_shape_checks(run.err)) << run.err;
}

TEST(RunText, ReportOnStdoutMovesTheTableToStderr) {
  const ScratchDir scratch("stdout");
  const auto scenario = write_small_scenario(scratch.path()).string();
  const auto run = run_scenario(scratch.path(), scenario, "--out=-");
  const auto report = util::json::parse(run.out);
  ASSERT_NE(report.find("schema"), nullptr);
  EXPECT_EQ(report.find("schema")->as_string(), "adacheck-sweep-v6");
  EXPECT_TRUE(has_table(run.err)) << run.err;
  EXPECT_TRUE(has_shape_checks(run.err)) << run.err;
}

TEST(RunText, GraphOnlyScenarioPrintsNoTable) {
  const ScratchDir scratch("graph");
  const auto run = run_scenario(
      scratch.path(), std::string(ADACHECK_SCENARIO_DIR) + "/dag_diamond.json",
      "--runs=16 --out=report.json");
  EXPECT_NE(run.out.find("wall: "), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("P(paper/ours)"), std::string::npos) << run.out;
  EXPECT_FALSE(has_shape_checks(run.out)) << run.out;
}

// --- reports, streams and the campaign cache -------------------------------

::testing::AssertionResult same_bytes(const fs::path& a, const fs::path& b) {
  if (read_file(a) == read_file(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " and " << b << " differ";
}

Value parse_file(const fs::path& path) {
  return util::json::parse(read_file(path));
}

std::vector<Value> parse_lines(const fs::path& path) {
  std::vector<Value> lines;
  std::istringstream text(read_file(path));
  for (std::string line; std::getline(text, line);) {
    lines.push_back(util::json::parse(line));
  }
  return lines;
}

/// The member at `keys`, one key per nesting level; throws, failing
/// the test with the key's name, when it is absent.
const Value& at(const Value& value,
                std::initializer_list<std::string_view> keys) {
  const Value* member = &value;
  for (const auto key : keys) {
    member = member->find(key);
    if (!member) throw std::runtime_error("no member " + std::string(key));
  }
  return *member;
}

/// A cell stream: `count` lines of `schema`, cells in index order.
void expect_cell_stream(const fs::path& path, std::size_t count,
                        const std::string& schema) {
  const auto lines = parse_lines(path);
  ASSERT_EQ(lines.size(), count) << path;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(at(lines[i], {"cell"}).as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(at(lines[i], {"schema"}).as_string(), schema);
  }
}

TEST(RunDriver, ThreadSizingAndProgressKeepTheBytes) {
  // Report and stream bytes do not depend on how the pool is sized
  // (--threads or ADACHECK_THREADS) or on a live progress line.
  const ScratchDir scratch("smoke");
  const fs::path& dir = scratch.path();
  const std::string smoke = "run " + shipped("smoke.json");
  run_ok(dir, smoke + " --threads=1 --no-perf --out=t1.json --jsonl=t1.jsonl");
  run_ok(dir, smoke + " --no-perf --out=t3.json --jsonl=t3.jsonl",
         "ADACHECK_THREADS=3");
  run_ok(dir, smoke + " --threads=4 --progress --out=smoke.json "
                      "--jsonl=smoke.jsonl");
  EXPECT_TRUE(same_bytes(dir / "t1.json", dir / "t3.json"));
  EXPECT_TRUE(same_bytes(dir / "t1.jsonl", dir / "t3.jsonl"));
  EXPECT_TRUE(same_bytes(dir / "t1.jsonl", dir / "smoke.jsonl"));

  // The perf section counts the 2x2 grid x 2 schemes; the stream
  // carries the report's metrics.
  const auto report = parse_file(dir / "smoke.json");
  EXPECT_EQ(at(report, {"schema"}).as_string(), "adacheck-sweep-v6");
  EXPECT_EQ(at(report, {"perf", "cells"}).as_int(), 8);
  EXPECT_GT(at(report, {"perf", "runs_per_second"}).as_number(), 0.0);
  EXPECT_EQ(util::canonical_json(at(report, {"config", "metrics"})),
            R"(["tails","checkpoints"])");
  const auto& experiment = at(report, {"experiments"}).as_array().at(0);
  EXPECT_EQ(at(experiment, {"id"}).as_string(), "smoke");
  const auto& row = at(experiment, {"rows"}).as_array().at(0);
  const Value& cell = at(row, {"cells"}).as_array().at(0);
  EXPECT_TRUE(at(cell, {"metrics", "checkpoints"}).is_object());
  expect_cell_stream(dir / "smoke.jsonl", 8, "adacheck-cell-v2");
  const auto first_line = parse_lines(dir / "smoke.jsonl").at(0);
  EXPECT_EQ(util::canonical_json(at(first_line, {"metrics", "tails"})),
            util::canonical_json(at(cell, {"metrics", "tails"})));

  // The environment axis binds through the same driver.
  for (const char* name : {"environment poisson", "environment bursty-orbit"}) {
    expect_exit(dir, "run " + shipped("environments.json") + " --dry-run", 0,
                name);
  }
}

TEST(RunDriver, BudgetedCellsStopOnChunkBoundariesInsideTheCaps) {
  const ScratchDir scratch("budget");
  run_ok(scratch.path(), "run " + shipped("smoke_budget.json") +
                             " --threads=4 --no-perf --out=budget.json "
                             "--jsonl=budget.jsonl");
  const auto report = parse_file(scratch.path() / "budget.json");
  EXPECT_EQ(at(report, {"schema"}).as_string(), "adacheck-sweep-v6");
  EXPECT_EQ(
      at(report, {"config", "budget", "target_p_halfwidth"}).as_number(),
      0.02);
  std::size_t cells = 0;
  for (const auto& experiment : at(report, {"experiments"}).as_array()) {
    for (const auto& row : at(experiment, {"rows"}).as_array()) {
      for (const auto& cell : at(row, {"cells"}).as_array()) {
        // Every cell stops on a 256-run chunk boundary inside the caps,
        // and an early stop really meets the target.
        ++cells;
        const auto runs = at(cell, {"runs_executed"}).as_int();
        EXPECT_EQ(runs % 256, 0);
        EXPECT_GE(runs, 256);
        EXPECT_LE(runs, 2048);
        EXPECT_EQ(runs, at(cell, {"trials"}).as_int());
        if (runs < 2048) {
          EXPECT_LE(at(cell, {"p_halfwidth"}).as_number(), 0.02);
        }
      }
    }
  }
  EXPECT_EQ(cells, 8u);
}

TEST(RunDriver, DagPolicyAxisSeparatesOnTheShippedSweep) {
  const ScratchDir scratch("dag");
  const fs::path& dir = scratch.path();
  run_ok(dir, "run " + shipped("dag_policy_sweep.json") +
                  " --no-perf --out=dag.json --jsonl=dag.jsonl");
  const auto report = parse_file(dir / "dag.json");
  EXPECT_EQ(at(report, {"schema"}).as_string(), "adacheck-sweep-v6");
  // One graph x two environments, 2 lambdas x 4 schedulers each.
  const auto& graphs = at(report, {"graph_experiments"}).as_array();
  ASSERT_EQ(graphs.size(), 2u);
  std::set<std::string> environments;
  for (const auto& graph : graphs) {
    environments.insert(at(graph, {"environment", "name"}).as_string());
    const auto& rows = at(graph, {"rows"}).as_array();
    ASSERT_EQ(rows.size(), 2u);
    for (const auto& row : rows) {
      const auto& cells = at(row, {"cells"}).as_array();
      ASSERT_EQ(cells.size(), 4u);
      std::map<std::string, double> p;
      for (const auto& cell : cells) {
        p[at(cell, {"scheme"}).as_string()] = at(cell, {"p"}).as_number();
      }
      // The path-aware policies meet the end-to-end deadline where
      // edf and fifo starve the critical chain.
      EXPECT_GT(p["critical-path"] - p["edf"], 0.5);
      EXPECT_GT(p["least-laxity"] - p["fifo"], 0.5);
    }
  }
  EXPECT_EQ(environments, (std::set<std::string>{"poisson", "bursty-orbit"}));
  expect_cell_stream(dir / "dag.jsonl", 16, "adacheck-graph-cell-v1");
}

TEST(CampaignDriver, WarmReplaysAtAnyWidthReproduceTheColdBytes) {
  const ScratchDir scratch("campaign");
  const fs::path& dir = scratch.path();
  const std::string campaign =
      "campaign " + shipped("campaign_smoke.json") + " --cache=cache";
  run_ok(dir, campaign + " --no-perf --out=cold.json --jsonl=cold.jsonl");
  // Warm replays verify their hits concurrently at pool width.
  run_ok(dir, campaign + " --threads=1 --progress --no-perf --out=t1.json "
                         "--jsonl=t1.jsonl");
  const auto wide =
      run_ok(dir, campaign + " --no-perf --out=- --jsonl=tw.jsonl");
  EXPECT_TRUE(same_bytes(dir / "cold.json", dir / "t1.json"));
  EXPECT_TRUE(same_bytes(dir / "cold.jsonl", dir / "t1.jsonl"));
  EXPECT_TRUE(wide.out == read_file(dir / "cold.json"));
  EXPECT_TRUE(same_bytes(dir / "cold.jsonl", dir / "tw.jsonl"));

  // With its execution section, the replay shows every cell cached.
  run_ok(dir, campaign + " --out=campaign.json");
  const auto report = parse_file(dir / "campaign.json");
  EXPECT_EQ(at(report, {"schema"}).as_string(), "adacheck-campaign-report-v1");
  EXPECT_FALSE(at(report, {"config", "version"}).as_string().empty());
  const auto& cells = at(report, {"cells"}).as_array();
  ASSERT_EQ(cells.size(), 3u);
  for (const auto& cell : cells) {
    EXPECT_EQ(at(cell, {"fingerprint"}).as_string().size(), 32u);
  }
  const auto& execution = at(report, {"execution"});
  for (const char* zero : {"executed", "failed", "runs_executed"}) {
    EXPECT_EQ(at(execution, {zero}).as_int(), 0) << zero;
  }
  EXPECT_EQ(at(execution, {"cached"}).as_int(), 3);
  for (const auto& cell : at(execution, {"cells"}).as_array()) {
    EXPECT_EQ(at(cell, {"status"}).as_string(), "cached");
  }
  std::map<std::string, int> schemas;
  for (const auto& line : parse_lines(dir / "cold.jsonl")) {
    ++schemas[at(line, {"schema"}).as_string()];
  }
  EXPECT_EQ(schemas["adacheck-campaign-cell-v1"], 3);
  EXPECT_EQ(schemas["adacheck-cell-v2"], 24);
  expect_exit(dir, campaign + " --out=no/such/dir/r.json", 1,
              "cannot open output file");
}

TEST(CampaignDriver, LsAndGcReportCorruptionAgeAndPrunes) {
  const ScratchDir scratch("cache");
  const fs::path& dir = scratch.path();
  run_ok(dir, "campaign " + shipped("campaign_smoke.json") +
                  " --cache=cache --quiet --no-perf --out=cold.json");
  const auto expect_cache = [&](const std::string& verb,
                                const std::string& text) {
    expect_exit(dir, "campaign " + verb + " --cache=cache", 0, text);
  };
  expect_cache("ls", "3 entries (3 valid, 0 stale, 0 corrupt)");

  // An entry's age is its meta's: ls prints minutes, hours and days.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir / "cache")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // payload, meta, payload, ...
  ASSERT_EQ(files.size(), 6u);
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(files[1], now - std::chrono::minutes(5));
  fs::last_write_time(files[3], now - std::chrono::hours(3));
  fs::last_write_time(files[5], now - std::chrono::hours(50));
  for (const char* age : {"age=5m", "age=3h", "age=2d"}) {
    expect_cache("ls", age);
  }

  // An entry an older adacheck wrote (a v1 meta) is STALE, not
  // CORRUPT, although it is never replayed either.
  const std::string old_fp(32, '0');
  std::ofstream(dir / "cache" / (old_fp + ".jsonl")) << "{\"cell\":0}\n";
  std::ofstream(dir / "cache" / (old_fp + ".meta.json"))
      << "{\"schema\": \"adacheck-cache-meta-v1\", \"fingerprint\": \""
      << old_fp << "\"}\n";
  expect_cache("ls", old_fp +
                         "  STALE (written by an older adacheck: "
                         "adacheck-cache-meta-v1)");
  expect_cache("ls", "4 entries (3 valid, 1 stale, 0 corrupt)");

  // A truncated payload flips exactly that entry to CORRUPT; gc
  // previews, prunes it and the stale entry, then ages out the
  // survivors and a temp file.
  fs::resize_file(files[0], 5);
  expect_cache("ls", "CORRUPT");
  expect_cache("gc --dry-run", "would remove 2 entries");
  expect_cache("ls", "4 entries (2 valid, 1 stale, 1 corrupt)");
  expect_cache("gc", "removed 2 entries");
  expect_cache("ls", "2 entries (2 valid, 0 stale, 0 corrupt)");
  std::ofstream(dir / "cache" / "left.jsonl.1-0.tmp") << "partial";
  expect_cache("gc --older-than=1s", "removed 2 entries and 1 temp files");
  expect_cache("ls", "0 entries");
}

TEST(CampaignDriver, TelemetryMovesNoResultByte) {
  // --fresh makes the metered pass execute, not replay, so the trace
  // holds real campaign, sweep and pool spans.
  const ScratchDir scratch("telemetry");
  const fs::path& dir = scratch.path();
  const std::string campaign = "campaign " + shipped("campaign_smoke.json") +
                               " --cache=cache --no-perf";
  run_ok(dir, campaign + " --out=base.json --jsonl=base.jsonl");
  run_ok(dir, campaign + " --fresh --out=metered.json --jsonl=metered.jsonl "
                         "--trace-out=trace.json --metrics-out=stats.json");
  EXPECT_TRUE(same_bytes(dir / "base.json", dir / "metered.json"));
  EXPECT_TRUE(same_bytes(dir / "base.jsonl", dir / "metered.jsonl"));

  // util::json rejects NaN, Infinity and duplicate keys.
  const auto trace = parse_file(dir / "trace.json");
  EXPECT_EQ(at(trace, {"displayTimeUnit"}).as_string(), "ms");
  const auto& events = at(trace, {"traceEvents"}).as_array();
  EXPECT_FALSE(events.empty());
  std::set<std::string> categories;
  for (const auto& event : events) {
    const std::string phase = at(event, {"ph"}).as_string();
    EXPECT_TRUE(phase == "X" || phase == "i") << phase;
    categories.insert(at(event, {"cat"}).as_string());
  }
  for (const char* category : {"pool", "sweep", "campaign"}) {
    EXPECT_TRUE(categories.count(category)) << category;
  }
  const auto stats = parse_file(dir / "stats.json");
  EXPECT_EQ(at(stats, {"schema"}).as_string(), "adacheck-stats-v1");
  EXPECT_GT(at(stats, {"counters", "sweep.runs"}).as_int(), 0);
  EXPECT_GT(at(stats, {"counters", "sweep.chunks"}).as_int(), 0);
  EXPECT_EQ(at(stats, {"counters", "campaign.cache_misses"}).as_int(), 3);
}

// --- serve and submit ------------------------------------------------------

TEST(ServeDriver, FollowedStreamMatchesTheBatchRunAndShutdownIsClean) {
  const ScratchDir scratch("serve");
  const fs::path& dir = scratch.path();
  run_ok(dir, "run " + shipped("smoke.json") +
                  " --threads=2 --no-perf --out=batch.json "
                  "--jsonl=batch.jsonl");
  testutil::ServeDaemon daemon(
      dir, "--transcript=transcript.log --trace-out=serve_trace.json");
  const int port = daemon.port();
  ASSERT_NE(port, 0) << read_file(dir / "serve.stderr");

  // submit --follow prints exactly the batch run's cell stream; plain
  // submit prints the job handle.
  const std::string submit =
      "submit " + shipped("smoke.json") + " --port-file=port.txt";
  EXPECT_TRUE(run_ok(dir, submit + " --follow").out ==
              read_file(dir / "batch.jsonl"));
  EXPECT_EQ(run_ok(dir, submit + " --priority=3 --threads=1").out, "2\n");

  serve::LineClient client("127.0.0.1", port);
  const auto rpc = [&](const std::string& line) {
    client.send_line(line);
    return util::json::parse(client.recv_line().value_or("null"));
  };
  const auto final_status = [&](std::int64_t job) {
    const std::string request =
        R"({"req": "status", "job": )" + std::to_string(job) + "}";
    for (int i = 0; i < 3000; ++i) {
      auto status = rpc(request);
      const auto state = at(status, {"job", "state"}).as_string();
      if (state == "done" || state == "failed" || state == "cancelled") {
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("job " + std::to_string(job) + " never ended");
  };
  EXPECT_EQ(at(final_status(2), {"job", "state"}).as_string(), "done");

  // A long job submitted by path, cancelled mid-run, and an invalid
  // document, for the stats below.
  const auto soak = rpc(R"({"req": "submit", "priority": -5, "path": ")" +
                        std::string(ADACHECK_SCENARIO_DIR) +
                        R"(/serve_soak.json"})");
  ASSERT_TRUE(at(soak, {"ok"}).as_bool());
  const auto soak_job = at(soak, {"job"}).as_int();
  EXPECT_TRUE(at(rpc(R"({"req": "cancel", "job": )" +
                     std::to_string(soak_job) + "}"),
                 {"ok"})
                  .as_bool());
  const auto cancelled = final_status(soak_job);
  EXPECT_EQ(at(cancelled, {"job", "state"}).as_string(), "cancelled");
  EXPECT_LT(at(cancelled, {"job", "cells_done"}).as_int(),
            at(cancelled, {"job", "cells_total"}).as_int());
  const auto bad = rpc(R"({"req": "submit", "source": "bad-doc", )"
                       R"("scenario": {"schema": "adacheck-scenario-v1"}})");
  EXPECT_FALSE(at(bad, {"ok"}).as_bool());
  EXPECT_GT(at(bad, {"job"}).as_int(), 0);
  EXPECT_NE(at(bad, {"error"}).as_string().find("bad-doc"), std::string::npos);
  EXPECT_EQ(at(rpc(R"({"req": "list"})"), {"jobs"}).as_array().size(), 4u);

  // Stats reflect this traffic.  A request counts once it completes,
  // so only the second stats reply includes a stats request.
  const auto stats = rpc(R"({"req": "stats"})");
  const auto& counters = at(stats, {"stats", "counters"});
  EXPECT_EQ(at(stats, {"stats", "schema"}).as_string(), "adacheck-stats-v1");
  EXPECT_GE(at(counters, {"serve.jobs_submitted"}).as_int(), 3);
  EXPECT_GE(at(counters, {"serve.jobs_failed"}).as_int(), 1);
  EXPECT_GE(at(counters, {"serve.jobs_done"}).as_int(), 2);
  EXPECT_GE(at(counters, {"serve.jobs_cancelled"}).as_int(), 1);
  const auto submits = at(counters, {"serve.requests.submit"}).as_int();
  EXPECT_GE(submits, 4);
  EXPECT_TRUE(at(stats, {"stats", "gauges", "serve.queue_depth"}).is_number());
  EXPECT_GE(at(stats, {"stats", "histograms", "serve.request_us.submit",
                       "count"}).as_int(), 4);
  const auto again = at(rpc(R"({"req": "stats"})"), {"stats", "counters"});
  EXPECT_GE(at(again, {"serve.requests.stats"}).as_int(), 1);
  EXPECT_GE(at(again, {"serve.requests.submit"}).as_int(), submits);

  // The shutdown request ends the daemon itself, with exit code 0.
  EXPECT_TRUE(at(rpc(R"({"req": "shutdown"})"), {"ok"}).as_bool());
  EXPECT_EQ(daemon.wait(std::chrono::seconds(30)), 0);
  EXPECT_NE(read_file(dir / "transcript.log").find(R"("req": "shutdown")"),
            std::string::npos);
  EXPECT_NE(read_file(dir / "serve.stdout").find("shut down cleanly"),
            std::string::npos);
}

/// A one-connection stand-in for a serve daemon: it answers the first
/// request line with `reply` verbatim, then half-closes and drains
/// whatever the client still sends.
class ScriptedDaemon {
 public:
  explicit ScriptedDaemon(std::string reply)
      : listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t size = sizeof address;
    auto* raw = reinterpret_cast<sockaddr*>(&address);
    if (::bind(listener_, raw, size) != 0 || ::listen(listener_, 1) != 0 ||
        ::getsockname(listener_, raw, &size) != 0) {
      ::close(listener_);
      throw std::runtime_error("cannot listen on loopback");
    }
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this, reply = std::move(reply)] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      char c = 0;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') continue;
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::shutdown(fd, SHUT_WR);
      while (::recv(fd, &c, 1, 0) > 0) continue;
      ::close(fd);
    });
  }
  ScriptedDaemon(const ScriptedDaemon&) = delete;
  ScriptedDaemon& operator=(const ScriptedDaemon&) = delete;
  ~ScriptedDaemon() {
    ::shutdown(listener_, SHUT_RDWR);  // wakes an accept nobody answered
    thread_.join();
    ::close(listener_);
  }
  int port() const { return port_; }

 private:
  int listener_;
  int port_ = 0;
  std::thread thread_;
};

/// `adacheck submit --follow` against a daemon that replies `reply`
/// must exit 1 with `message`.
void expect_submit_failure(const std::string& reply,
                           const std::string& message) {
  static const ScratchDir dir("submit");
  const ScriptedDaemon daemon(reply);
  expect_exit(dir.path(),
              "submit " + shipped("smoke.json") + " --follow --port=" +
                  std::to_string(daemon.port()),
              1, message);
}

const std::string kJob = "{\"ok\": true, \"job\": 1}\n";
const std::string kOpened = "{\"ok\": true}\n";
const std::string kEot = R"({"schema":"adacheck-serve-eot-v1")";

TEST(SubmitDriver, MalformedRepliesAreErrorsNotCrashes) {
  expect_submit_failure(kOpened, "submit: malformed reply: {\"ok\": true}");
  expect_submit_failure(kJob + kOpened + kEot + "}\n",
                        "submit: malformed reply: " + kEot + "}");
  expect_submit_failure(kJob + "{\"ok\": 1}\n", "stream: {\"ok\": 1}");
}

TEST(SubmitDriver, DaemonErrorsAndLostConnectionsExitOne) {
  expect_submit_failure("", "submit: daemon closed the connection");
  expect_submit_failure("not json\n", "submit: ");
  expect_submit_failure("{\"ok\": false, \"error\": \"queue full\"}\n",
                        "submit: queue full");
  expect_submit_failure(kJob, "stream: daemon closed the connection");
  expect_submit_failure(kJob + kOpened,
                        "stream: connection lost before end of stream");
  expect_submit_failure(kJob + kOpened + kEot + R"(,"state":"failed"})" + "\n",
                        "job 1 failed");
}

// --- the other verbs, and bad invocations ----------------------------------

TEST(Verbs, ListValidateHelpAndVersion) {
  const ScratchDir scratch("verbs");
  const fs::path& dir = scratch.path();
  const auto list = run_ok(dir, "list").out;
  for (const char* heading : {"policies", "fault environments", "schedulers",
                              "paper tables", "metric recorders", "budget"}) {
    EXPECT_NE(list.find(heading), std::string::npos) << heading;
  }
  // Every shipped document validates, campaigns included.
  std::string files;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(ADACHECK_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    files += " " + quoted(entry.path());
    ++count;
  }
  const auto validated = run_ok(dir, "validate" + files).out;
  std::size_t ok = 0;
  for (auto pos = validated.find(": ok ("); pos != std::string::npos;
       pos = validated.find(": ok (", pos + 1)) {
    ++ok;
  }
  EXPECT_EQ(ok, count) << validated;
  EXPECT_NE(validated.find("(campaign, "), std::string::npos);
  expect_exit(dir, "run " + shipped("paper_tables.json") + " --dry-run", 0,
              "dry run: scenario validated");
  expect_exit(dir, "--version", 0, util::version_string());
  expect_exit(dir, "help campaign", 0, "--older-than");
}

TEST(Verbs, BadInvocationsExitWithAReason) {
  const ScratchDir scratch("errors");
  const fs::path& dir = scratch.path();
  std::ofstream(dir / "bad.json") << "{";
  std::ofstream(dir / "empty.txt");
  const std::string smoke = " " + shipped("smoke.json");
  const std::string run = "run" + smoke;
  const std::string campaign = "campaign " + shipped("campaign_smoke.json");
  const std::string submit = "submit" + smoke + " --port=1";
  const std::string nowhere = "=no/such/dir/x";
  const struct {
    std::string args;
    int code;
    std::string message;
  } cases[] = {
      {"run", 2, "run expects exactly one scenario file"},
      {"run no/such/dir/x.json", 1, "adacheck: "},
      {run + " --seed=-1", 2, "--seed must be >= 0"},
      {run + " --threads=4097", 2, "--threads must be in"},
      {run + " --budget=-1", 2, "budget flags: "},
      {run + " --jsonl=-", 2, "--jsonl needs a file path"},
      {run + " --jsonl" + nowhere, 1, "cannot open JSONL output file"},
      {run + " --runs=1 --out" + nowhere, 1, "cannot open output file"},
      {run + " --runs=1 --out=r.json --trace-out" + nowhere, 1,
       "cannot write trace file"},
      {run + " --runs=1 --out=r.json --metrics-out" + nowhere, 1,
       "cannot write metrics file"},
      {"run " + shipped("smoke_budget.json") +
           " --budget-e=0.1 --jsonl=c.jsonl --dry-run",
       0, "target_e_rel_halfwidth=0.1"},
      {"run " + shipped("dag_policy_sweep.json") + " --dry-run", 0,
       "graph of 7 nodes"},
      {"campaign", 2, "campaign expects one campaign file"},
      {campaign + " --fresh --resume", 2, "mutually exclusive"},
      {campaign + " --jsonl=-", 2, "--jsonl needs a file path"},
      {campaign + " --cells=4097", 2, "--cells must be in [0, 4096]"},
      {campaign + " --jsonl" + nowhere, 1, "cannot open JSONL output file"},
      {"campaign ls", 2, "campaign ls needs --cache DIR"},
      {"campaign ls " + shipped("campaign_smoke.json"), 0, " 0 entries"},
      {"campaign gc", 2, "campaign gc needs --cache DIR"},
      {"campaign gc --cache=c --older-than=soon", 2, "--older-than: "},
      {"validate", 2, "validate expects at least one"},
      {"validate no/such/dir/x.json", 1, "cannot open file"},
      {"validate bad.json", 1, "bad.json: "},
      {"list bogus", 2, "unknown list \"bogus\""},
      {"serve extra", 2, "serve takes no positional arguments"},
      {"serve --port=65536", 2, "--port must be in [0, 65535]"},
      {"serve --queue=0", 2, "--queue must be in"},
      {"serve --jobs=0", 2, "--jobs must be in"},
      {"serve --threads=-1", 2, "--threads must be in"},
      {"serve --transcript" + nowhere, 1, "cannot open transcript file"},
      {"serve --threads=1 --port-file" + nowhere, 1, "cannot write port file"},
      {"submit", 2, "submit expects exactly one scenario file"},
      {"submit" + smoke + " --port=65536", 2, "--port must be in"},
      {"submit" + smoke, 2, "submit needs --port P or --port-file PATH"},
      {"submit" + smoke + " --port-file=empty.txt", 2, "not a port file"},
      {submit + " --priority=1000001", 2, "--priority must be in"},
      {submit + " --threads=4097", 2, "--threads must be in"},
      {"submit no/such/dir/x.json --port=1", 2, "cannot open file"},
      {"submit bad.json --port=1", 2, "bad.json: "},
      {submit, 1, "submit: "},  // nothing listens on port 1
  };
  for (const auto& c : cases) expect_exit(dir, c.args, c.code, c.message);
}

}  // namespace
}  // namespace adacheck

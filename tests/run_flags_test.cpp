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
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace adacheck {
namespace {

/// Runs `adacheck <verb> <document> <flags> --dry-run` and expects exit
/// code `exit_code` with `message` somewhere in stdout or stderr.
void expect_verb(const std::string& verb, const std::string& document,
                 const std::string& flags, int exit_code,
                 const std::string& message) {
  const std::string command = std::string("'") + ADACHECK_BIN + "' " + verb +
                              " '" + ADACHECK_SCENARIO_DIR + "/" + document +
                              "' " + flags + " --dry-run 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  std::string output;
  std::array<char, 512> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), exit_code) << flags << "\n" << output;
  EXPECT_NE(output.find(message), std::string::npos) << flags << "\n"
                                                     << output;
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

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// What one `adacheck run` printed, stream by stream.
struct RunOutput {
  std::string out;
  std::string err;
};

/// A scratch directory for one test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("adacheck_run_text_" + name + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Runs `adacheck run <scenario> <flags>` to completion inside
/// `scratch`, so any default output path lands there; exit code 0 is
/// required.
RunOutput run_scenario(const fs::path& scratch, const std::string& scenario,
                       const std::string& flags) {
  const fs::path err_path = scratch / "stderr.txt";
  const std::string command = "cd '" + scratch.string() + "' && '" +
                              ADACHECK_BIN + "' run '" + scenario + "' " +
                              flags + " 2>'" + err_path.string() + "'";
  RunOutput output;
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return output;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.out.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << command << "\n" << read_file(err_path);
  output.err = read_file(err_path);
  return output;
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

}  // namespace
}  // namespace adacheck

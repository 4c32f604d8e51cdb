// adacheck run's run-count flags (--runs, --min-runs, --max-runs) follow
// the scenario schema's range rule, [1, 1e9].  The check runs on the
// parsed 64-bit value, so a value that would wrap when narrowed to int
// (2^32 + 1 becomes 1) is rejected instead of silently planned.
// adacheck campaign's --threads is range-checked to [0, 4096] when it
// is given.  The test drives the adacheck binary with --dry-run:
// nothing simulates.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

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

TEST(RunFlags, CampaignThreadsMustBeInRangeWhenGiven) {
  // -1 is only the internal "not given" value, not an accepted flag.
  expect_campaign("--threads=-1", 2, "--threads must be in [0, 4096]");
  expect_campaign("--threads=4097", 2, "--threads must be in [0, 4096]");
  expect_campaign("--threads=0", 0, "dry run: campaign planned");
  expect_campaign("--threads=1", 0, "dry run: campaign planned");
  expect_campaign("", 0, "dry run: campaign planned");
}

}  // namespace
}  // namespace adacheck

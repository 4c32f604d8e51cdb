// The golden corpus: "same bytes" as a ctest target.
//
// Runs every runnable shipped scenario (scenarios/*.json with schema
// adacheck-scenario-v1) through adacheck at --runs=256 and
// --no-perf, at --threads 1 and 4, plus one campaign_smoke cold run and
// its warm replay.  The content_hash128 of every report, every JSONL
// stream and every cache file, and the cache file names, must equal the
// committed manifest tests/golden/<compiler>.txt exactly.  There is no
// tolerance: any changed byte fails the target.
//
// The computed manifest is always written to golden_work/<compiler>.txt
// in the build tree; tools/bless_golden.sh copies it over the committed
// one.  A bless is only legitimate for a deliberate output change (a
// schema bump, say) and is recorded in CHANGES.md with its reason.  A
// compiler with no committed manifest skips the comparison and prints
// the bless command.
//
// A second test pins that --validate, which keeps the engine on its
// traced general path, streams the same JSONL as a plain run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adacheck_process.hpp"
#include "util/canonical_json.hpp"
#include "util/json.hpp"

namespace adacheck {
namespace {

namespace fs = std::filesystem;

using Manifest = std::map<std::string, std::string>;  // artifact -> hash

using testutil::quoted;
using testutil::read_file;

std::string hash_file(const fs::path& path) {
  return util::content_hash128(read_file(path)).hex();
}

/// Runs adacheck in `dir`, so the relative cache path a campaign
/// report records is the same on every machine.
void run_adacheck(const fs::path& dir, const std::string& args) {
  const auto result =
      testutil::run_adacheck(dir, args + " --quiet --no-perf");
  if (result.code != 0) {
    throw std::runtime_error("adacheck " + args + " failed:\n" + result.err);
  }
}

std::vector<fs::path> runnable_scenarios() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(ADACHECK_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const auto doc = util::json::parse(read_file(entry.path()));
    const auto* schema = doc.find("schema");
    if (schema && schema->as_string() == "adacheck-scenario-v1") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Manifest compute_manifest(const fs::path& work) {
  Manifest manifest;
  const fs::path runs = work / "run";
  fs::create_directories(runs);
  for (const auto& scenario : runnable_scenarios()) {
    const std::string name = scenario.stem().string();
    for (int threads : {1, 4}) {
      const std::string base = name + ".t" + std::to_string(threads);
      run_adacheck(runs, "run " + quoted(scenario) +
                             " --runs=256 --threads=" +
                             std::to_string(threads) + " --out=" + base +
                             ".json --jsonl=" + base + ".jsonl");
      for (const char* ext : {".json", ".jsonl"}) {
        manifest["run/" + base + ext] = hash_file(runs / (base + ext));
      }
    }
  }

  const fs::path campaign = work / "campaign";
  fs::create_directories(campaign);
  const fs::path spec = fs::path(ADACHECK_SCENARIO_DIR) / "campaign_smoke.json";
  for (const char* pass : {"cold", "warm"}) {
    run_adacheck(campaign, "campaign " + quoted(spec) +
                               " --cache=cache --out=" + pass +
                               ".json --jsonl=" + pass + ".jsonl");
    for (const char* ext : {".json", ".jsonl"}) {
      const std::string file = std::string(pass) + ext;
      manifest["campaign/" + file] = hash_file(campaign / file);
    }
  }
  for (const auto& entry : fs::directory_iterator(campaign / "cache")) {
    manifest["campaign/cache/" + entry.path().filename().string()] =
        hash_file(entry.path());
  }
  return manifest;
}

std::string format_manifest(const Manifest& manifest) {
  std::string text =
      "# adacheck golden corpus (tests/golden_test.cpp): artifact "
      "content_hash128.\n# Rewrite only with tools/bless_golden.sh, and "
      "record the reason in CHANGES.md.\n";
  for (const auto& [artifact, hash] : manifest) {
    text += artifact + " " + hash + "\n";
  }
  return text;
}

Manifest parse_manifest(const std::string& text) {
  Manifest manifest;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error("malformed manifest line: " + line);
    }
    manifest[line.substr(0, space)] = line.substr(space + 1);
  }
  return manifest;
}

TEST(GoldenCorpus, EveryOutputByteMatchesTheCommittedManifest) {
  const fs::path work = ADACHECK_GOLDEN_WORK;
  const std::string compiler = ADACHECK_GOLDEN_COMPILER;
  fs::remove_all(work);
  fs::create_directories(work);

  const Manifest actual = compute_manifest(work);
  const fs::path written = work / (compiler + ".txt");
  std::ofstream(written, std::ios::binary) << format_manifest(actual);

  const fs::path committed =
      fs::path(ADACHECK_GOLDEN_DIR) / (compiler + ".txt");
  const std::string bless =
      "tools/bless_golden.sh " + fs::path(ADACHECK_BIN).parent_path().string();
  if (!fs::exists(committed)) {
    GTEST_SKIP() << "no golden manifest for compiler '" << compiler
                 << "'; computed one at " << written.string()
                 << "; commit it with: " << bless;
  }

  const Manifest expected = parse_manifest(read_file(committed));
  for (const auto& [artifact, hash] : expected) {
    const auto it = actual.find(artifact);
    if (it == actual.end()) {
      ADD_FAILURE() << artifact << ": expected, but not produced";
    } else if (it->second != hash) {
      ADD_FAILURE() << artifact << ": hash " << it->second
                    << ", golden " << hash;
    }
  }
  for (const auto& [artifact, hash] : actual) {
    if (!expected.count(artifact)) {
      ADD_FAILURE() << artifact << ": produced, but not in the manifest";
    }
  }
  if (HasFailure()) {
    std::cerr << "golden corpus differs from " << committed.string()
              << "; if the output change is deliberate, run: " << bless
              << "\nand record the reason in CHANGES.md.\n";
  }
}

TEST(GoldenCorpus, ValidatedRunsStreamTheSameJsonl) {
  // --validate records a trace for every run, and tracing keeps the
  // engine on its general path: no clean-attempt branch, and a policy
  // hook after every commit.  The JSONL (which, unlike the report,
  // does not echo the validate flag) must not change.
  const fs::path work = fs::path(ADACHECK_GOLDEN_WORK) / "validate";
  fs::remove_all(work);
  fs::create_directories(work);
  for (const char* name : {"paper_tables", "environments"}) {
    const fs::path scenario =
        fs::path(ADACHECK_SCENARIO_DIR) / (std::string(name) + ".json");
    const std::string base = std::string(name) + ".t4";
    for (const char* mode : {"plain", "validated"}) {
      std::string args = "run " + quoted(scenario) +
                         " --runs=256 --threads=4 --out=" + base + "." +
                         mode + ".json --jsonl=" + base + "." + mode +
                         ".jsonl";
      if (std::string(mode) == "validated") args += " --validate";
      run_adacheck(work, args);
    }
    const std::string plain = read_file(work / (base + ".plain.jsonl"));
    EXPECT_FALSE(plain.empty()) << name;
    EXPECT_TRUE(plain == read_file(work / (base + ".validated.jsonl")))
        << name << ": JSONL differs with --validate";
  }
}

}  // namespace
}  // namespace adacheck

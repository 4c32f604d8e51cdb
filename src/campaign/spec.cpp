#include "campaign/spec.hpp"

#include <algorithm>
#include <filesystem>

#include "model/fault_env.hpp"
#include "scenario/schema.hpp"
#include "util/file.hpp"

namespace adacheck::campaign {

using namespace scenario::schema;
using scenario::ScenarioError;
using util::json::Value;

namespace {

std::vector<std::uint64_t> parse_seeds(const Value& v,
                                       const std::string& path) {
  std::vector<std::uint64_t> seeds;
  const auto& array = as_array(v, path);
  if (array.empty()) fail(path, "must not be empty");
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = index_path(path, i);
    const auto value = as_int(array[i], item_path);
    if (value < 0) fail(item_path, "must be >= 0");
    const auto seed = static_cast<std::uint64_t>(value);
    if (std::find(seeds.begin(), seeds.end(), seed) != seeds.end()) {
      fail(item_path, "duplicate seed " + std::to_string(value));
    }
    seeds.push_back(seed);
  }
  return seeds;
}

std::vector<std::string> parse_environments(const Value& v,
                                            const std::string& path) {
  std::vector<std::string> names;
  const auto& array = as_array(v, path);
  if (array.empty()) fail(path, "must not be empty");
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string item_path = index_path(path, i);
    const std::string& name = as_string(array[i], item_path);
    check_name(name, model::known_environments(), item_path);
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      fail(item_path, "duplicate environment \"" + name + "\"");
    }
    names.push_back(name);
  }
  return names;
}

MatrixEntry parse_entry(const Value& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, path, {"scenario", "seeds", "environments", "runs", "budget"});
  MatrixEntry entry;
  entry.scenario =
      as_string(require(v, path, "scenario"), member_path(path, "scenario"));
  if (entry.scenario.empty()) {
    fail(member_path(path, "scenario"), "must not be empty");
  }
  if (const Value* seeds = v.find("seeds")) {
    entry.seeds = parse_seeds(*seeds, member_path(path, "seeds"));
  }
  if (const Value* environments = v.find("environments")) {
    entry.environments =
        parse_environments(*environments, member_path(path, "environments"));
  }
  if (const Value* runs = v.find("runs")) {
    const std::string runs_path = member_path(path, "runs");
    const auto value = as_int(*runs, runs_path);
    if (value < 1) fail(runs_path, "must be >= 1");
    if (value > 1'000'000'000) fail(runs_path, "must be <= 1e9");
    entry.runs = static_cast<int>(value);
  }
  if (const Value* budget = v.find("budget")) {
    entry.budget = scenario::parse_budget(*budget, member_path(path, "budget"));
  }
  return entry;
}

/// Same two-form "output" key as a scenario document.
void parse_output(const Value& v, const std::string& path,
                  CampaignSpec& spec) {
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

}  // namespace

bool is_campaign_document(const Value& root) {
  if (!root.is_object()) return false;
  const Value* schema = root.find("schema");
  return schema != nullptr && schema->is_string() &&
         schema->as_string() == "adacheck-campaign-v1";
}

CampaignSpec parse_campaign(const Value& root) {
  const std::string top;  // the document root has no path prefix
  require_object(root, top);
  check_keys(root, top,
             {"schema", "name", "title", "cache_dir", "output", "matrix"});

  const std::string& schema = as_string(require(root, top, "schema"), "schema");
  if (schema != "adacheck-campaign-v1") {
    fail("schema", "unsupported schema \"" + schema +
                       "\"; expected \"adacheck-campaign-v1\"");
  }

  CampaignSpec spec;
  spec.name = as_string(require(root, top, "name"), "name");
  if (spec.name.empty()) fail("name", "must not be empty");
  spec.title =
      root.find("title") ? as_string(*root.find("title"), "title") : spec.name;
  if (const Value* cache_dir = root.find("cache_dir")) {
    spec.cache_dir = as_string(*cache_dir, "cache_dir");
    if (spec.cache_dir.empty()) fail("cache_dir", "must not be empty");
  } else {
    spec.cache_dir = spec.name + "_cache";
  }
  if (const Value* output = root.find("output")) {
    parse_output(*output, "output", spec);
  }

  const auto& matrix = as_array(require(root, top, "matrix"), "matrix");
  if (matrix.empty()) fail("matrix", "must not be empty");
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    spec.matrix.push_back(parse_entry(matrix[i], index_path("matrix", i)));
  }
  return spec;
}

CampaignSpec parse_campaign_text(std::string_view text) {
  return parse_campaign(util::json::parse(text));
}

CampaignSpec load_campaign_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) {
    throw std::runtime_error(path + ": cannot open campaign file");
  }
  try {
    CampaignSpec spec = parse_campaign_text(*text);
    spec.base_dir = std::filesystem::path(path).parent_path().string();
    return spec;
  } catch (const util::json::ParseError& e) {
    throw std::runtime_error(path + ": " + e.what());
  } catch (const ScenarioError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace adacheck::campaign

#include "campaign/runner.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/json_writer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/binder.hpp"
#include "util/file.hpp"
#include "util/thread_pool.hpp"
#include "util/version.hpp"

namespace adacheck::campaign {

namespace fs = std::filesystem;

namespace {

/// Telemetry handles (gated on Registry::enabled(); see obs/registry.hpp).
/// Hit/miss semantics: a hit is a successful replay, a miss is a cell
/// that had to execute, corrupt is a present-but-unverifiable entry
/// (also counted as the miss its execution implies).
struct CampaignMetrics {
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_corrupt;
  obs::Gauge& cells_in_flight;
  obs::LatencyHisto& cell_us;

  static CampaignMetrics& get() {
    static CampaignMetrics* const metrics = new CampaignMetrics{
        obs::Registry::instance().counter("campaign.cache_hits"),
        obs::Registry::instance().counter("campaign.cache_misses"),
        obs::Registry::instance().counter("campaign.cache_corrupt"),
        obs::Registry::instance().gauge("campaign.cells_in_flight"),
        obs::Registry::instance().histogram("campaign.cell_us")};
    return *metrics;
  }
};

// The fingerprint document is written canonically (util/canonical_json):
// members in bytewise key order, and every number spelled as the
// double a JSON reader makes of it, so an integer goes through number()
// first (runs 1000000 is written "1e+06").
double number(std::integral auto v) { return static_cast<double>(v); }

void write_budget(obs::JsonWriter& json, const sim::RunBudget& budget) {
  json.begin_object();
  if (budget.max_runs > 0) json.kv("max_runs", number(budget.max_runs));
  if (budget.min_runs > 0) json.kv("min_runs", number(budget.min_runs));
  if (budget.target_e_rel_halfwidth > 0.0) {
    json.kv("target_e_rel_halfwidth", budget.target_e_rel_halfwidth);
  }
  if (budget.target_p_halfwidth > 0.0) {
    json.kv("target_p_halfwidth", budget.target_p_halfwidth);
  }
  json.end_object();
}

void write_costs(obs::JsonWriter& json, const model::CheckpointCosts& costs) {
  json.key("costs");
  json.begin_object();
  json.kv("compare", costs.compare);
  json.kv("rollback", costs.rollback);
  json.kv("store", costs.store);
  json.end_object();
}

fs::path resolve_ref(const CampaignSpec& spec, const std::string& ref) {
  const fs::path path(ref);
  if (path.is_absolute() || spec.base_dir.empty()) return path;
  return fs::path(spec.base_dir) / path;
}

fs::path payload_path(const std::string& cache_dir, const std::string& fp) {
  return fs::path(cache_dir) / (fp + ".jsonl");
}

fs::path meta_path(const std::string& cache_dir, const std::string& fp) {
  return fs::path(cache_dir) / (fp + ".meta.json");
}

/// The meta schema cache_store writes.  v2 entries carry the word-wise
/// content_hash128; a v1 entry (FNV-era hashes and fingerprints) is
/// reported as written by an older adacheck, and gc prunes it.
constexpr std::string_view kMetaSchema = "adacheck-cache-meta-v2";

/// One committed cache entry, as the single cache-entry check found it.
struct CheckedEntry {
  /// Meta or payload file absent (or unreadable): an ordinary miss.
  bool missing = false;
  /// "" when the entry verifies; else what failed, for `campaign ls`.
  std::string defect;
  /// The defect is only that an older adacheck wrote the entry.
  bool stale = false;
  util::json::Value meta;   ///< the parsed meta (verified entries)
  std::string bytes;        ///< the payload (verified entries)
  std::string result_hash;  ///< content_hash128 hex of `bytes`, verified

  bool valid() const { return !missing && defect.empty(); }
};

/// The one check of a cache entry, shared by replay (run_campaign,
/// cache_probe) and inspection (cache_ls): both files present, then the
/// meta parses, names the current schema and this fingerprint, and its
/// result_hash matches the payload bytes.  Defects are returned, never
/// thrown — every one is a miss, so a damaged cache heals itself.
CheckedEntry check_entry(const std::string& cache_dir,
                         const std::string& fingerprint) {
  CheckedEntry entry;
  std::optional<std::string> meta_text =
      util::read_file(meta_path(cache_dir, fingerprint).string());
  std::optional<std::string> payload =
      util::read_file(payload_path(cache_dir, fingerprint).string());
  if (!meta_text || !payload) {
    entry.missing = true;
    entry.defect =
        meta_text ? "missing payload" : "missing meta (uncommitted payload)";
    return entry;
  }
  try {
    entry.meta = util::json::parse(*meta_text);
  } catch (const std::exception&) {
    entry.defect = "unparsable meta";
    return entry;
  }
  const util::json::Value* schema = entry.meta.find("schema");
  const util::json::Value* fp = entry.meta.find("fingerprint");
  const util::json::Value* hash = entry.meta.find("result_hash");
  const std::string_view schema_name =
      schema != nullptr && schema->is_string()
          ? std::string_view(schema->as_string())
          : std::string_view();
  if (schema_name == "adacheck-cache-meta-v1") {
    entry.defect = "written by an older adacheck: adacheck-cache-meta-v1";
    entry.stale = true;
  } else if (schema_name != kMetaSchema) {
    entry.defect = "meta schema is not " + std::string(kMetaSchema);
  } else if (fp == nullptr || !fp->is_string() ||
             fp->as_string() != fingerprint) {
    entry.defect = "meta names a different fingerprint";
  } else if (hash == nullptr || !hash->is_string()) {
    entry.defect = "meta lacks result_hash";
  } else {
    entry.result_hash = util::content_hash128(*payload).hex();
    if (entry.result_hash != hash->as_string()) {
      entry.defect = "payload bytes do not match result_hash";
    } else {
      entry.bytes = std::move(*payload);
    }
  }
  return entry;
}

/// Reads a numeric meta member; 0 when absent or not a number.
long long meta_int(const util::json::Value& meta, const char* key) {
  const util::json::Value* v = meta.find(key);
  return v != nullptr && v->is_number() ? v->as_int() : 0;
}

/// Suffix of the temp files cache_store renames into place; never
/// ".jsonl" or ".meta.json", so no scan mistakes one for an entry.
constexpr std::string_view kTempSuffix = ".tmp";

/// Replaces `target` with `bytes` atomically: the bytes go to a temp
/// file unique to this process and call in the same directory, which
/// is then renamed over `target`.  Readers see the old file or the
/// new one, never a partial write.
void write_atomically(const fs::path& target, const std::string& bytes) {
  static std::atomic<std::uint64_t> sequence{0};
  fs::path temp = target;
  temp += "." + std::to_string(::getpid()) + "-" +
          std::to_string(sequence.fetch_add(1)) + std::string(kTempSuffix);
  std::error_code ec;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      fs::remove(temp, ec);
      throw std::runtime_error(target.string() + ": cannot write");
    }
  }
  fs::rename(temp, target, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(temp, ignored);
    throw std::runtime_error(target.string() + ": cannot commit (" +
                             ec.message() + ")");
  }
}

/// Commits an entry: payload first, meta last (the commit marker),
/// each written to a temp file and renamed into place.
void cache_store(const std::string& cache_dir, const CampaignCell& cell,
                 const std::string& bytes, long long total_runs,
                 const std::string& result_hash) {
  write_atomically(payload_path(cache_dir, cell.fingerprint), bytes);
  std::ostringstream meta;
  obs::JsonWriter json(meta);
  json.begin_object();
  json.kv("schema", kMetaSchema);
  json.kv("fingerprint", cell.fingerprint);
  json.kv("code_version", util::version_string());
  json.kv("scenario", cell.resolved.name);
  if (!cell.environment.empty()) json.kv("environment", cell.environment);
  json.kv("seed", cell.seed);
  json.kv("sweep_cells", cell.sweep_cells);
  json.kv("total_runs", total_runs);
  json.kv("result_hash", result_hash);
  json.end_object();
  meta << "\n";
  write_atomically(meta_path(cache_dir, cell.fingerprint), meta.str());
}

/// The deterministic adacheck-campaign-cell-v1 header line for a cell.
std::string header_line(const CampaignCell& cell) {
  std::ostringstream out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  json.begin_object();
  json.kv("schema", "adacheck-campaign-cell-v1");
  json.kv("cell", cell.index);
  json.kv("scenario", cell.scenario_ref);
  json.kv("name", cell.resolved.name);
  if (!cell.environment.empty()) json.kv("environment", cell.environment);
  json.kv("seed", cell.seed);
  json.kv("fingerprint", cell.fingerprint);
  json.kv("sweep_cells", cell.sweep_cells);
  json.end_object();
  out << "\n";
  return out.str();
}

/// cell_fingerprint_document over specs already bound from `resolved`,
/// so plan_campaign binds each cell once for both its fingerprint and
/// its sweep_cells count.
std::string fingerprint_document(
    const scenario::ScenarioSpec& resolved,
    const std::vector<harness::ExperimentSpec>& experiments,
    const std::vector<harness::GraphExperimentSpec>& graphs) {
  // Written canonically in one pass (see number() and write_budget):
  // members in bytewise key order at every level, so the bytes are
  // what util::canonical_json would make of them.  What matters beyond
  // that is the field set — everything result-affecting, nothing else
  // (no threads, no titles, no output paths).
  std::ostringstream out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  json.begin_object();
  if (resolved.budget.enabled()) {
    json.key("budget");
    write_budget(json, resolved.budget);
  }
  json.kv("code_version", util::version_string());
  json.key("config");
  json.begin_object();
  json.kv("runs", number(resolved.config.runs));
  json.kv("seed", number(resolved.config.seed));
  json.kv("validate", resolved.config.validate);
  json.end_object();
  const harness::ExperimentSpec defaults;
  json.key("experiments");
  json.begin_array();
  for (const auto& spec : experiments) {
    json.begin_object();
    if (spec.budget.enabled()) {
      json.key("budget");
      write_budget(json, spec.budget);
    }
    write_costs(json, spec.costs);
    json.kv("deadline", spec.deadline);
    json.kv("environment", spec.environment);
    json.kv("fault_tolerance", number(spec.fault_tolerance));
    // Written only off their defaults, so every fingerprint (and cache
    // file name) of a spec that leaves them alone stays what it was
    // before these knobs existed.
    if (spec.faults_during_overhead != defaults.faults_during_overhead) {
      json.kv("faults_during_overhead", spec.faults_during_overhead);
    }
    json.kv("id", spec.id);
    if (spec.processors != defaults.processors) {
      json.kv("processors", number(spec.processors));
    }
    if (spec.recompute_at_commit != defaults.recompute_at_commit) {
      json.kv("recompute_at_commit", spec.recompute_at_commit);
    }
    json.key("rows");
    json.begin_array();
    for (const auto& row : spec.rows) {
      json.begin_object();
      json.kv("lambda", row.lambda);
      json.kv("utilization", row.utilization);
      json.end_object();
    }
    json.end_array();
    json.key("schemes");
    json.begin_array();
    for (const auto& scheme : spec.schemes) json.value(scheme);
    json.end_array();
    json.kv("speed_ratio", spec.speed_ratio);
    json.kv("util_level", number(spec.util_level));
    json.kv("voltage_kappa", spec.voltage.kappa);
    json.end_object();
  }
  json.end_array();
  // Graph experiments are result-affecting too: the whole DAG shape,
  // contention declarations, and both axes join the fingerprint.
  if (!graphs.empty()) {
    json.key("graphs");
    json.begin_array();
    for (const auto& spec : graphs) {
      json.begin_object();
      if (spec.budget.enabled()) {
        json.key("budget");
        write_budget(json, spec.budget);
      }
      write_costs(json, spec.costs);
      json.kv("environment", spec.environment);
      json.key("graph");
      json.begin_object();
      json.kv("deadline", spec.graph.deadline);
      json.key("edges");
      json.begin_array();
      for (const auto& edge : spec.graph.edges) {
        json.begin_object();
        json.kv("from", number(edge.from));
        json.kv("to", number(edge.to));
        json.end_object();
      }
      json.end_array();
      json.key("nodes");
      json.begin_array();
      for (const auto& node : spec.graph.nodes) {
        json.begin_object();
        json.kv("cycles", node.cycles);
        if (node.own_period()) {
          json.kv("deadline", node.relative_deadline());
        }
        json.kv("fault_tolerance", number(node.fault_tolerance));
        json.kv("name", node.name);
        if (node.own_period()) {
          json.kv("period", node.period);
          json.kv("phase", node.phase);
        }
        json.kv("policy", node.policy);
        json.key("resources");
        json.begin_array();
        for (const auto r : node.resources) json.value(number(r));
        json.end_array();
        json.end_object();
      }
      json.end_array();
      json.kv("period", spec.graph.period);
      json.key("resources");
      json.begin_array();
      for (const auto& resource : spec.graph.resources) {
        json.begin_object();
        json.kv("capacity", number(resource.capacity));
        json.kv("name", resource.name);
        json.end_object();
      }
      json.end_array();
      json.end_object();
      json.kv("id", spec.id);
      json.kv("instances", number(spec.instances));
      json.key("lambdas");
      json.begin_array();
      for (const auto lambda : spec.lambdas) json.value(lambda);
      json.end_array();
      json.key("schedulers");
      json.begin_array();
      for (const auto& scheduler : spec.schedulers) json.value(scheduler);
      json.end_array();
      json.kv("skip_late_jobs", spec.skip_late_jobs);
      json.kv("speed_ratio", spec.speed_ratio);
      json.kv("voltage_kappa", spec.voltage.kappa);
      json.kv("workers", number(spec.workers));
      json.end_object();
    }
    json.end_array();
  }
  if (!resolved.metrics.empty()) {
    json.key("metrics");
    json.begin_array();
    for (const auto& name : resolved.metrics) json.value(name);
    json.end_array();
  }
  json.end_object();
  return std::move(out).str();
}

/// Runs body(i) for every i in [0, n), at most `max_parallelism` at a
/// time (0 = shared-pool width).  A single index, or a cap of 1, runs
/// inline on the caller, so planning or replaying one cell never starts
/// the pool.
void for_each_cell(std::size_t n, int max_parallelism,
                   const std::function<void(std::size_t)>& body) {
  if (n <= 1 || max_parallelism == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  util::parallel_for(
      util::ThreadPool::shared(), 0, static_cast<int>(n), 1,
      [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) body(static_cast<std::size_t>(i));
      },
      max_parallelism);
}

}  // namespace

std::string cell_fingerprint_document(
    const scenario::ScenarioSpec& resolved) {
  return fingerprint_document(resolved, scenario::bind_experiments(resolved),
                              scenario::bind_graphs(resolved));
}

std::string cell_fingerprint(const scenario::ScenarioSpec& resolved) {
  return util::content_hash128(cell_fingerprint_document(resolved)).hex();
}

CampaignPlan plan_campaign(const CampaignSpec& spec) {
  // Expansion is serial and cheap (one scenario load per entry, which
  // validates everything binding needs); the per-cell bind and
  // fingerprint hash run concurrently below.
  CampaignPlan plan;
  for (std::size_t ei = 0; ei < spec.matrix.size(); ++ei) {
    const MatrixEntry& entry = spec.matrix[ei];
    const fs::path path = resolve_ref(spec, entry.scenario);
    scenario::ScenarioSpec base =
        scenario::load_scenario_file(path.string());
    if (entry.runs > 0) base.config.runs = entry.runs;
    if (entry.budget.enabled()) base.budget = entry.budget;

    const std::vector<std::string> environments =
        entry.environments.empty() ? std::vector<std::string>{""}
                                   : entry.environments;
    const std::vector<std::uint64_t> seeds =
        entry.seeds.empty() ? std::vector<std::uint64_t>{base.config.seed}
                            : entry.seeds;
    for (const auto& environment : environments) {
      scenario::ScenarioSpec with_env = base;
      if (!environment.empty()) {
        for (auto& exp : with_env.experiments) {
          exp.spec.environment = environment;
          exp.environments.clear();
        }
        for (auto& graph : with_env.graphs) {
          graph.spec.environment = environment;
          graph.environments.clear();
        }
      }
      for (const auto seed : seeds) {
        CampaignCell cell;
        cell.index = plan.cells.size();
        cell.entry = ei;
        cell.scenario_ref = entry.scenario;
        cell.scenario_path = path.string();
        cell.environment = environment;
        cell.seed = seed;
        cell.resolved = with_env;
        cell.resolved.config.seed = seed;
        plan.cells.push_back(std::move(cell));
      }
    }
  }

  for_each_cell(plan.cells.size(), 0, [&](std::size_t i) {
    CampaignCell& cell = plan.cells[i];
    const auto experiments = scenario::bind_experiments(cell.resolved);
    const auto graphs = scenario::bind_graphs(cell.resolved);
    cell.sweep_cells = harness::sweep_cell_refs(experiments, graphs).size();
    cell.fingerprint =
        util::content_hash128(
            fingerprint_document(cell.resolved, experiments, graphs))
            .hex();
  });
  return plan;
}

const char* to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kCached: return "cached";
    case CellStatus::kExecuted: return "executed";
    case CellStatus::kFailed: return "failed";
    case CellStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

bool CampaignResult::any_failed() const {
  for (const auto& outcome : outcomes) {
    if (outcome.status == CellStatus::kFailed) return true;
  }
  return false;
}

bool cache_probe(const std::string& cache_dir,
                 const std::string& fingerprint) {
  return check_entry(cache_dir, fingerprint).valid();
}

namespace {

/// Serializes an external observer shared by concurrently executing
/// cell sweeps.  The runner serializes callbacks *within* one sweep,
/// but two cells' sweeps may fire at the same time.
class LockedObserver final : public sim::ISweepObserver {
 public:
  explicit LockedObserver(sim::ISweepObserver* inner) : inner_(inner) {}

  void on_cell_start(std::size_t cell) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->on_cell_start(cell);
  }
  void on_cell_done(std::size_t cell, const sim::CellResult& result) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->on_cell_done(cell, result);
  }
  void on_progress(const sim::SweepProgress& progress) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->on_progress(progress);
  }

 private:
  sim::ISweepObserver* inner_;
  std::mutex mu_;
};

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  CampaignResult result;
  result.plan = plan_campaign(spec);
  result.outcomes.resize(result.plan.cells.size());
  result.cache_dir =
      options.cache_dir.empty() ? spec.cache_dir : options.cache_dir;

  std::error_code ec;
  fs::create_directories(result.cache_dir, ec);
  if (ec) {
    throw std::runtime_error(result.cache_dir +
                             ": cannot create cache directory (" +
                             ec.message() + ")");
  }

  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = result.plan.cells.size();

  auto prefix_for = [&](std::size_t i) {
    const CampaignCell& cell = result.plan.cells[i];
    std::string label = cell.resolved.name;
    if (!cell.environment.empty()) label += "@" + cell.environment;
    label += " seed=" + std::to_string(cell.seed);
    return "[" + std::to_string(i + 1) + "/" + std::to_string(n) + "] " +
           label;
  };

  // Replays a committed cache entry into the cell's buffers; false on
  // a miss.
  auto try_replay = [&](std::size_t i, std::string& payload_out,
                        std::string& status_out) {
    const CampaignCell& cell = result.plan.cells[i];
    CheckedEntry entry = check_entry(result.cache_dir, cell.fingerprint);
    if (obs::Registry::instance().enabled()) {
      if (entry.valid()) {
        CampaignMetrics::get().cache_hits.add(1);
      } else if (!entry.missing) {
        // Present but failed the check: cached, then damaged.
        CampaignMetrics::get().cache_corrupt.add(1);
      }
      // A plain miss is counted by the execution it forces.
    }
    if (!entry.valid()) return false;
    CellOutcome& outcome = result.outcomes[i];
    outcome.status = CellStatus::kCached;
    outcome.runs_executed = 0;
    outcome.result_hash = std::move(entry.result_hash);
    payload_out = std::move(entry.bytes);
    status_out = prefix_for(i) + " cached (" +
                 std::to_string(cell.sweep_cells) + " cells)\n";
    return true;
  };

  // Executes cell i's sweep (cache commit included) into its buffers.
  // Never throws: execution errors become kFailed outcomes.
  auto execute_cell = [&](std::size_t i, std::string& payload_out,
                          std::string& status_out,
                          sim::ISweepObserver* observer) {
    const CampaignCell& cell = result.plan.cells[i];
    CellOutcome& outcome = result.outcomes[i];
    const bool telemetry = obs::Registry::instance().enabled();
    std::uint64_t started_us = 0;
    if (telemetry) {
      auto& metrics = CampaignMetrics::get();
      metrics.cache_misses.add(1);  // executing == the cache missed
      metrics.cells_in_flight.add(1);
      started_us = obs::now_micros();
    }
    obs::Span span(cell.resolved.name, "campaign");
    try {
      if (options.before_execute) options.before_execute(cell);
      const auto experiments = scenario::bind_experiments(cell.resolved);
      const auto graphs = scenario::bind_graphs(cell.resolved);
      auto config = scenario::monte_carlo_config(cell.resolved);
      if (options.threads >= 0) config.threads = options.threads;

      // The stream's refs and the sweep come from one bind, so the
      // stream's cell coordinates can never desync from the jobs run.
      std::ostringstream bytes;
      harness::JsonlCellStream stream(
          bytes, harness::sweep_cell_refs(experiments, graphs));
      sim::ObserverList observers;
      observers.add(&stream).add(observer);
      harness::SweepOptions sweep_options;
      sweep_options.observer = &observers;
      const harness::SweepResult sweep =
          harness::run_sweep(experiments, graphs, config, sweep_options);

      std::string payload = bytes.str();
      outcome.result_hash = util::content_hash128(payload).hex();
      cache_store(result.cache_dir, cell, payload, sweep.perf.total_runs,
                  outcome.result_hash);
      outcome.status = CellStatus::kExecuted;
      outcome.runs_executed = sweep.perf.total_runs;
      payload_out = std::move(payload);
      status_out = prefix_for(i) + " executed (" +
                   std::to_string(cell.sweep_cells) + " cells, " +
                   std::to_string(sweep.perf.total_runs) + " runs)\n";
    } catch (const std::exception& e) {
      outcome.status = CellStatus::kFailed;
      outcome.error = e.what();
      status_out = prefix_for(i) + " FAILED: " + e.what() + "\n";
    }
    if (telemetry) {
      auto& metrics = CampaignMetrics::get();
      metrics.cells_in_flight.add(-1);
      metrics.cell_us.record(obs::now_micros() - started_us);
    }
  };

  if (options.fail_fast) {
    // Strictly sequential plan order so "skip everything after the
    // first failure" stays exact — no cell is even attempted once an
    // earlier one failed.
    bool stop = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (stop) {
        result.outcomes[i].status = CellStatus::kSkipped;
        continue;
      }
      const CampaignCell& cell = result.plan.cells[i];
      if (options.jsonl != nullptr) *options.jsonl << header_line(cell);
      std::string payload, status_line;
      if (!(options.resume && try_replay(i, payload, status_line))) {
        execute_cell(i, payload, status_line, options.observer);
      }
      if (options.jsonl != nullptr) *options.jsonl << payload;
      if (options.status != nullptr) *options.status << status_line;
      if (result.outcomes[i].status == CellStatus::kFailed) stop = true;
    }
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return result;
  }

  // Concurrent engine.  Emission stays in plan order: each cell's
  // header/payload/status lines are buffered, and a finalized cell
  // flushes the contiguous done-prefix under a mutex — so the streams
  // are byte-identical to a sequential run at any parallelism.
  std::vector<std::string> payloads(n), status_lines(n);
  std::vector<char> finalized(n, 0);
  std::size_t next_emit = 0;
  std::mutex emit_mu;
  auto finalize = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(emit_mu);
    finalized[i] = 1;
    while (next_emit < n && finalized[next_emit] != 0) {
      if (options.jsonl != nullptr) {
        *options.jsonl << header_line(result.plan.cells[next_emit])
                       << payloads[next_emit];
      }
      if (options.status != nullptr) *options.status << status_lines[next_emit];
      payloads[next_emit].clear();  // release buffered bytes early
      ++next_emit;
    }
  };

  // Phase 1: verify and replay cache hits concurrently (each hit's
  // read + hash is independent; finalize keeps emission in plan
  // order), then split out the misses.  Duplicate fingerprints are
  // deferred behind their first occurrence so two executions never
  // race on the same cache files.
  if (options.resume) {
    for_each_cell(n, options.cell_parallelism, [&](std::size_t i) {
      if (try_replay(i, payloads[i], status_lines[i])) finalize(i);
    });
  }
  std::vector<std::size_t> primaries, deferred;
  std::set<std::string> claimed;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.outcomes[i].status == CellStatus::kCached) continue;
    if (claimed.insert(result.plan.cells[i].fingerprint).second) {
      primaries.push_back(i);
    } else {
      deferred.push_back(i);
    }
  }

  // Phase 2: execute the unique-fingerprint misses concurrently.  Each
  // sweep is internally parallel on the same shared pool; claimants
  // help with sweep chunks while waiting, so the pool never deadlocks.
  LockedObserver locked(options.observer);
  sim::ISweepObserver* observer =
      options.observer != nullptr ? &locked : nullptr;
  for_each_cell(primaries.size(), options.cell_parallelism,
                [&](std::size_t b) {
                  const std::size_t i = primaries[b];
                  execute_cell(i, payloads[i], status_lines[i], observer);
                  finalize(i);
                });

  // Phase 3: deferred duplicates.  Their primary has committed by now,
  // so this is normally a replay; a miss (primary failed, or --fresh)
  // executes sequentially.
  for (const std::size_t i : deferred) {
    if (!try_replay(i, payloads[i], status_lines[i])) {
      execute_cell(i, payloads[i], status_lines[i], options.observer);
    }
    finalize(i);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void write_campaign_json(const CampaignSpec& spec,
                         const CampaignResult& result, std::ostream& os,
                         const CampaignReportOptions& options) {
  obs::JsonWriter json(os);
  json.begin_object();
  json.kv("schema", "adacheck-campaign-report-v1");
  json.kv("name", spec.name);
  json.kv("title", spec.title);
  json.key("config");
  json.begin_object();
  json.kv("version", util::version_string());
  json.kv("cache_dir", result.cache_dir);
  json.kv("cells", result.plan.cells.size());
  json.end_object();
  json.key("cells");
  json.begin_array();
  for (const auto& cell : result.plan.cells) {
    json.begin_object();
    json.kv("cell", cell.index);
    json.kv("scenario", cell.scenario_ref);
    json.kv("name", cell.resolved.name);
    if (!cell.environment.empty()) json.kv("environment", cell.environment);
    json.kv("seed", cell.seed);
    json.kv("runs", cell.resolved.config.runs);
    json.kv("sweep_cells", cell.sweep_cells);
    json.kv("fingerprint", cell.fingerprint);
    json.end_object();
  }
  json.end_array();
  if (options.include_execution) {
    std::size_t counts[4] = {0, 0, 0, 0};
    long long total_runs = 0;
    for (const auto& outcome : result.outcomes) {
      counts[static_cast<int>(outcome.status)]++;
      total_runs += outcome.runs_executed;
    }
    json.key("execution");
    json.begin_object();
    json.kv("cached", counts[static_cast<int>(CellStatus::kCached)]);
    json.kv("executed", counts[static_cast<int>(CellStatus::kExecuted)]);
    json.kv("failed", counts[static_cast<int>(CellStatus::kFailed)]);
    json.kv("skipped", counts[static_cast<int>(CellStatus::kSkipped)]);
    json.kv("runs_executed", total_runs);
    json.kv("wall_seconds", result.wall_seconds);
    json.key("cells");
    json.begin_array();
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const CellOutcome& outcome = result.outcomes[i];
      json.begin_object();
      json.kv("cell", i);
      json.kv("status", to_string(outcome.status));
      json.kv("runs_executed", outcome.runs_executed);
      if (!outcome.result_hash.empty()) {
        json.kv("result_hash", outcome.result_hash);
      }
      if (!outcome.error.empty()) json.kv("error", outcome.error);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  os << "\n";
}

std::string campaign_json(const CampaignSpec& spec,
                          const CampaignResult& result,
                          const CampaignReportOptions& options) {
  std::ostringstream out;
  write_campaign_json(spec, result, out, options);
  return out.str();
}

std::vector<CacheEntryInfo> cache_ls(const std::string& cache_dir) {
  std::error_code ec;
  if (!fs::exists(cache_dir, ec)) return {};
  fs::directory_iterator it(cache_dir, ec);
  if (ec) {
    throw std::runtime_error(cache_dir + ": cannot read cache directory (" +
                             ec.message() + ")");
  }

  struct Stem {
    std::uintmax_t bytes = 0;
    fs::file_time_type mtime{};  ///< the meta's when present
    bool has_mtime = false;
  };
  std::map<std::string, Stem> stems;
  for (const fs::directory_entry& entry : it) {
    std::error_code fec;
    if (!entry.is_regular_file(fec) || fec) continue;
    const std::string name = entry.path().filename().string();
    std::string stem;
    bool meta = false;
    if (name.size() > 10 && name.ends_with(".meta.json")) {
      stem = name.substr(0, name.size() - 10);
      meta = true;
    } else if (name.size() > 6 && name.ends_with(".jsonl")) {
      stem = name.substr(0, name.size() - 6);
    } else {
      continue;
    }
    Stem& record = stems[stem];
    const std::uintmax_t size = entry.file_size(fec);
    if (!fec) record.bytes += size;
    const fs::file_time_type mtime = entry.last_write_time(fec);
    if (!fec && (meta || !record.has_mtime)) {
      record.mtime = mtime;
      record.has_mtime = true;
    }
  }

  const auto now = fs::file_time_type::clock::now();
  std::vector<CacheEntryInfo> entries;
  entries.reserve(stems.size());
  for (const auto& [stem, record] : stems) {
    CacheEntryInfo info;
    info.fingerprint = stem;
    info.bytes = record.bytes;
    if (record.has_mtime) {
      info.age_seconds =
          std::chrono::duration<double>(now - record.mtime).count();
      if (info.age_seconds < 0.0) info.age_seconds = 0.0;
    }
    CheckedEntry entry = check_entry(cache_dir, stem);
    info.valid = entry.valid();
    info.stale = entry.stale;
    info.defect = std::move(entry.defect);
    if (info.valid) {
      const util::json::Value& meta = entry.meta;
      if (const auto* v = meta.find("scenario"); v && v->is_string()) {
        info.scenario = v->as_string();
      }
      if (const auto* v = meta.find("environment"); v && v->is_string()) {
        info.environment = v->as_string();
      }
      if (const auto* v = meta.find("code_version"); v && v->is_string()) {
        info.code_version = v->as_string();
      }
      try {
        info.seed = static_cast<std::uint64_t>(meta_int(meta, "seed"));
        info.sweep_cells =
            static_cast<std::size_t>(meta_int(meta, "sweep_cells"));
        info.total_runs = meta_int(meta, "total_runs");
      } catch (const std::exception&) {
        info.valid = false;
        info.defect = "unparsable meta";
      }
    }
    entries.push_back(std::move(info));
  }
  return entries;
}

CacheGcResult cache_gc(const std::string& cache_dir,
                       const CacheGcOptions& options) {
  CacheGcResult result;
  for (CacheEntryInfo& info : cache_ls(cache_dir)) {
    const bool expired = options.older_than_seconds > 0.0 &&
                         info.age_seconds >= options.older_than_seconds;
    if (info.valid && !expired) {
      ++result.kept;
      continue;
    }
    if (!options.dry_run) {
      // Meta first: it is the commit marker, so a crash mid-removal
      // leaves an uncommitted payload (an ordinary miss), never a
      // committed entry with missing bytes.
      std::error_code ec;
      fs::remove(meta_path(cache_dir, info.fingerprint), ec);
      fs::remove(payload_path(cache_dir, info.fingerprint), ec);
    }
    result.bytes_freed += info.bytes;
    result.removed.push_back(std::move(info));
  }
  // Temp files a crashed cache_store left behind: never entries, so
  // neither removed nor kept, but always garbage.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(cache_dir, ec)) {
    std::error_code fec;
    if (!entry.is_regular_file(fec) || fec ||
        !entry.path().filename().string().ends_with(kTempSuffix)) {
      continue;
    }
    const std::uintmax_t size = entry.file_size(fec);
    if (!fec) result.bytes_freed += size;
    ++result.temp_files;
    if (!options.dry_run) fs::remove(entry.path(), fec);
  }
  return result;
}

double parse_duration_seconds(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("empty duration");
  }
  double scale = 1.0;
  std::string number = text;
  switch (text.back()) {
    case 's': scale = 1.0; break;
    case 'm': scale = 60.0; break;
    case 'h': scale = 3600.0; break;
    case 'd': scale = 86400.0; break;
    case 'w': scale = 604800.0; break;
    default:
      if (std::isdigit(static_cast<unsigned char>(text.back())) == 0) {
        throw std::invalid_argument(
            text + ": unknown duration unit '" + std::string(1, text.back()) +
            "' (use s, m, h, d, or w)");
      }
      scale = 0.0;  // plain number of seconds, no unit to strip
  }
  if (scale != 0.0) {
    number = text.substr(0, text.size() - 1);
  } else {
    scale = 1.0;
  }
  std::size_t parsed = 0;
  double value = 0.0;
  try {
    value = std::stod(number, &parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument(text + ": not a duration");
  }
  if (parsed != number.size() || value < 0.0) {
    throw std::invalid_argument(text + ": not a duration");
  }
  return value * scale;
}

}  // namespace adacheck::campaign

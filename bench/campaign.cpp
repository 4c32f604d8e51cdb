// Campaign cache probe: cold vs warm wall clock.
//
// Runs the same campaign twice into a scratch cache directory — once
// cold (every cell executed and committed) and once warm (every cell
// replayed from the cache) — and writes BENCH_campaign.json with both
// wall-clock times and the speedup.  CI archives it next to the sweep
// bench to track the cache's payoff, and asserts the warm pass
// executed zero Monte-Carlo runs (replay must never simulate).
//
// Usage: bench_campaign [--campaign=scenarios/campaign_smoke.json]
//                       [--cache=DIR] [--threads=T]
//                       [--out=BENCH_campaign.json]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/json_writer.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/version.hpp"

int main(int argc, char** argv) {
  using namespace adacheck;
  try {
    const util::CliArgs args(argc, argv,
                             {"campaign", "cache", "threads", "out"});
    const std::string campaign_path =
        args.get_string("campaign", "scenarios/campaign_smoke.json");
    const std::string cache_dir =
        args.get_string("cache", "bench_campaign_cache");
    const std::string out_path = args.get_string("out", "BENCH_campaign.json");
    const int threads = static_cast<int>(args.get_int("threads", 0));
    util::ThreadPool::set_shared_size(threads);

    const auto spec = campaign::load_campaign_file(campaign_path);

    // A true cold pass needs an empty cache.
    std::filesystem::remove_all(cache_dir);

    campaign::CampaignOptions options;
    options.cache_dir = cache_dir;
    options.status = &std::cerr;

    std::cerr << "cold pass:\n";
    const auto cold = campaign::run_campaign(spec, options);
    std::cerr << "warm pass:\n";
    const auto warm = campaign::run_campaign(spec, options);

    long long cold_runs = 0, warm_runs = 0;
    std::size_t warm_cached = 0;
    for (const auto& outcome : cold.outcomes) {
      cold_runs += outcome.runs_executed;
    }
    for (const auto& outcome : warm.outcomes) {
      warm_runs += outcome.runs_executed;
      if (outcome.status == campaign::CellStatus::kCached) ++warm_cached;
    }
    if (warm_runs != 0 || warm_cached != warm.plan.cells.size()) {
      std::cerr << "WARNING: warm pass was not fully cached (" << warm_cached
                << "/" << warm.plan.cells.size() << " cells, " << warm_runs
                << " runs)\n";
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open output file: " << out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    json.begin_object();
    json.kv("schema", "adacheck-bench-campaign-v1");
    json.kv("version", util::version_string());
    json.kv("campaign", campaign_path);
    json.kv("cells", cold.plan.cells.size());
    json.kv("cold_wall_seconds", cold.wall_seconds);
    json.kv("cold_runs", cold_runs);
    json.kv("warm_wall_seconds", warm.wall_seconds);
    json.kv("warm_runs", warm_runs);
    json.kv("warm_cached_cells", warm_cached);
    json.kv("speedup", warm.wall_seconds > 0.0
                           ? cold.wall_seconds / warm.wall_seconds
                           : 0.0);
    json.end_object();
    out << "\n";
    std::cerr << "wrote " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_campaign: " << e.what() << "\n";
    return 1;
  }
}

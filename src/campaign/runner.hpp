// Campaign planning, cell fingerprints, the result cache, and the
// runner behind `adacheck campaign`.
//
// Planning expands a CampaignSpec's matrix into cells — one resolved
// scenario (overrides applied) per (entry, environment, seed) triple —
// and stamps each cell with a content fingerprint: the content_hash128
// (util/canonical_json.hpp) of a canonical JSON document of everything
// that determines the cell's results — the bound harness experiment
// specs, the result-affecting config knobs (runs, seed, validate; NOT
// threads), the metric suite, and the code-version string.  The
// document is written canonically in one pass (members in bytewise key
// order, numbers spelled as doubles), never parsed back.  Two cells with the
// same fingerprint produce byte-identical adacheck-cell-v2 streams, so
// the fingerprint doubles as the cache key.  Cells are stamped
// concurrently on the shared pool, each bound once for both its
// fingerprint and its sweep_cells count; a one-cell plan stays on the
// caller and never starts the pool.
//
// The cache directory holds two files per fingerprint:
//
//   <fp>.jsonl       the cell's adacheck-cell-v2 lines, verbatim
//   <fp>.meta.json   adacheck-cache-meta-v2: provenance + the
//                    content_hash128 of the .jsonl bytes (result_hash)
//
// Each file is committed by writing a temp file unique to the writer
// (a ".tmp" name, never mistaken for an entry) and renaming it into
// place, payload first and meta last: the meta is the commit marker.
// Readers therefore never see a partially written file, a payload
// without meta (crashed writer) is an ordinary miss, and one check
// (shared by replay, cache_probe and cache_ls) takes the meta's parse,
// schema, fingerprint and result_hash in that order: an entry failing
// any of them (manual edit, files from two different commits) is a
// miss too — the cache can only replay exactly what a fresh run would
// produce.  A v1 meta was written by an older adacheck whose hash (and
// so every fingerprint) differed: its cells re-execute once, `ls` says
// so, and cache_gc prunes those entries.  Temp files a crash leaves
// behind are swept by cache_gc.
//
// run_campaign makes one pass over the primaries (the first cell with
// each fingerprint) as parallel tasks on the shared pool: each replays
// its cache hit (read, hash, compare against the meta; the verified
// hash is the outcome's result_hash, so each hit is hashed exactly
// once) or executes its miss (each sweep internally parallel too).  A
// later cell with the same fingerprint (an alias) runs inside its
// primary's task, after it: it replays the entry the primary committed
// (under --fresh too) and executes only when the primary failed, so
// two cells with one fingerprint never execute at once.
// CampaignOptions::cell_parallelism caps how many primaries are in
// flight; fail_fast caps it at 1, stops at the first failure, and
// marks every later cell in plan order skipped (emitting nothing).
// Report and JSONL emission stay in deterministic plan order
// regardless — per-cell output is buffered and flushed as the
// contiguous done-prefix grows, so buffered bytes are bounded by the
// out-of-order window — and the stream is byte-identical to a
// sequential run.  The JSONL stream interleaves one
// adacheck-campaign-cell-v1 header line per cell with that cell's
// adacheck-cell-v2 body lines (cached or fresh — same bytes), and a
// rerun over a warm cache reproduces it byte-for-byte.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "harness/stream_report.hpp"
#include "sim/observer.hpp"
#include "util/canonical_json.hpp"

namespace adacheck::campaign {

/// One expanded cell: a fully resolved scenario run.
struct CampaignCell {
  std::size_t index = 0;       ///< position in plan order
  std::size_t entry = 0;       ///< matrix entry this cell came from
  std::string scenario_ref;    ///< the entry's ref, as written
  std::string scenario_path;   ///< resolved against the document dir
  std::string environment;     ///< override applied, "" = scenario's own
  std::uint64_t seed = 0;
  /// The scenario with every override applied (seed, environment,
  /// runs, budget); binding this is what the fingerprint covers.
  scenario::ScenarioSpec resolved;
  std::string fingerprint;     ///< cell_fingerprint(resolved), hex
  std::size_t sweep_cells = 0; ///< flat (row, scheme) cells of the sweep
};

struct CampaignPlan {
  std::vector<CampaignCell> cells;
};

/// The canonical-JSON document a cell's fingerprint hashes (exposed so
/// tests can pin its stability properties): written directly in
/// util::canonical_json's form, so it is that function's fixed point;
/// includes the code-version string.
std::string cell_fingerprint_document(const scenario::ScenarioSpec& resolved);

/// content_hash128 of the fingerprint document, as 32 hex chars.
std::string cell_fingerprint(const scenario::ScenarioSpec& resolved);

/// Expands the matrix, loading and resolving every referenced
/// scenario, then stamps the cells concurrently.  Throws
/// std::runtime_error (unreadable ref) or scenario::ScenarioError
/// (invalid scenario) with the ref path in the message.
CampaignPlan plan_campaign(const CampaignSpec& spec);

enum class CellStatus { kCached, kExecuted, kFailed, kSkipped };

/// "cached" | "executed" | "failed" | "skipped".
const char* to_string(CellStatus status);

struct CellOutcome {
  CellStatus status = CellStatus::kSkipped;
  /// Monte-Carlo runs performed by THIS campaign run (0 when cached).
  long long runs_executed = 0;
  /// content_hash128 hex of the cell's adacheck-cell-v2 bytes ("" for
  /// failed/skipped cells).
  std::string result_hash;
  std::string error;  ///< what() for failed cells
};

struct CampaignOptions {
  /// Replay cached cells (the default); false (--fresh) re-executes
  /// every primary and overwrites the cache (aliases still replay it).
  bool resume = true;
  /// Stop at the first failed cell in plan order, marking every later
  /// cell skipped.
  bool fail_fast = false;
  /// Parallelism cap for each cell's sweep; -1 = keep each scenario's
  /// own config.threads.  Never part of the fingerprint.
  int threads = -1;
  /// Primaries replayed (cache hits) or executed (misses) at once:
  /// 0 = shared-pool width, 1 = strictly sequential (also forced by
  /// fail_fast).  Results and the emitted report/JSONL bytes are
  /// identical for every value.
  int cell_parallelism = 0;
  /// Overrides the document's cache_dir when non-empty.
  std::string cache_dir = {};
  std::ostream* status = nullptr;  ///< per-cell progress lines
  std::ostream* jsonl = nullptr;   ///< campaign JSONL stream
  /// Extra observer for each freshly executed sweep (progress lines).
  sim::ISweepObserver* observer = nullptr;
  /// Test seam, called before a cell is (re)executed — never for
  /// cache hits; a throw marks the cell failed.
  std::function<void(const CampaignCell&)> before_execute = {};
};

struct CampaignResult {
  CampaignPlan plan;
  std::vector<CellOutcome> outcomes;  ///< parallel to plan.cells
  std::string cache_dir;              ///< the directory actually used
  double wall_seconds = 0.0;

  bool any_failed() const;
};

/// True when the cache holds a committed, hash-verified entry for the
/// fingerprint (what --dry-run reports as "cached").
bool cache_probe(const std::string& cache_dir, const std::string& fingerprint);

/// Plans and executes the whole campaign.  Throws only for planning
/// and cache-directory errors; per-cell execution errors become
/// kFailed outcomes.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

struct CampaignReportOptions {
  /// Emit the volatile "execution" section (statuses, runs executed,
  /// wall-clock).  Disable (--no-perf) to get a byte-stable document:
  /// everything else depends only on the plan, never on cache state.
  bool include_execution = true;
};

/// Writes the campaign report (schema "adacheck-campaign-report-v1").
void write_campaign_json(const CampaignSpec& spec,
                         const CampaignResult& result, std::ostream& os,
                         const CampaignReportOptions& options = {});

/// Convenience: the same document as a string.
std::string campaign_json(const CampaignSpec& spec,
                          const CampaignResult& result,
                          const CampaignReportOptions& options = {});

// --- cache inspection and pruning (`adacheck campaign ls` / `gc`) --------

/// One cache entry as found on disk.  `valid` means what cache_probe
/// means: meta parses, has schema adacheck-cache-meta-v2, names the
/// same fingerprint, and its result_hash matches the payload bytes;
/// anything else is a defect run_campaign would treat as a miss, and
/// `defect` says which ("written by an older adacheck: ..." for a v1
/// meta).
struct CacheEntryInfo {
  std::string fingerprint;
  bool valid = false;
  std::string defect;       ///< "" when valid
  /// Invalid only because an older adacheck wrote it (a v1 meta): the
  /// bytes may be intact, but the entry is never replayed.
  bool stale = false;
  std::string scenario;     ///< meta provenance (valid entries only)
  std::string environment;
  std::uint64_t seed = 0;
  std::size_t sweep_cells = 0;
  long long total_runs = 0;
  std::string code_version;
  std::uintmax_t bytes = 0;     ///< payload + meta size on disk
  double age_seconds = 0.0;     ///< now - last write (the meta's when present)
};

/// Scans a cache directory; entries sorted by fingerprint (one per
/// stem — orphan payloads and meta-only stubs appear as invalid
/// entries).  Throws std::runtime_error when the directory cannot be
/// read; a missing directory is an empty cache, not an error.
std::vector<CacheEntryInfo> cache_ls(const std::string& cache_dir);

struct CacheGcOptions {
  /// Remove valid entries whose age is >= this many seconds; 0 keeps
  /// every valid entry (corrupt ones are still pruned).
  double older_than_seconds = 0.0;
  /// Report what would be removed without touching the directory.
  bool dry_run = false;
};

struct CacheGcResult {
  std::vector<CacheEntryInfo> removed;  ///< pruned (or would-be, dry run)
  std::size_t kept = 0;
  /// Leftover commit temp files pruned (or would-be); not entries.
  std::size_t temp_files = 0;
  std::uintmax_t bytes_freed = 0;  ///< entries and temp files together
};

/// Prunes a cache directory: corrupt entries always (the self-healing
/// sweep), valid entries by age when older_than_seconds is set, and
/// temp files an interrupted commit left behind.
CacheGcResult cache_gc(const std::string& cache_dir,
                       const CacheGcOptions& options = {});

/// Parses a human age like "30" (seconds), "45s", "1.5h", "7d" or "2w"
/// into seconds: a non-negative decimal number (digits and one point)
/// and an optional unit.  Throws std::invalid_argument on anything
/// else ("nan", "inf", hex, a sign) and on an infinite result.
double parse_duration_seconds(const std::string& text);

}  // namespace adacheck::campaign

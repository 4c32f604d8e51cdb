// Machine-readable sweep reports.
//
// Emits one JSON document per sweep so CI can archive the perf
// trajectory (runs per second, wall-clock) next to the measured cell
// statistics.  The encoding is deterministic: keys are emitted in a
// fixed order, doubles use shortest round-trip formatting, and the
// cell section depends only on seeds and run counts — never on thread
// count or timing — so two sweeps with the same config compare
// byte-for-byte.  NaN and infinities (e.g. the paper's "NaN" energy
// cells) are emitted as null.  Schema documented in README.md.
#pragma once

#include <ostream>
#include <string>

#include "harness/sweep.hpp"
#include "obs/json_writer.hpp"
#include "sim/metrics.hpp"

namespace adacheck::harness {

/// Advisory observer-overhead comparison written into the perf section
/// (bench_sweep fills this from the committed BENCH_sweep.json
/// baseline; see README "Bench guard").  Advisory only — machines and
/// run counts differ across measurements — so it never fails anything;
/// within_tolerance in the report flags observer_vs_null_ratio <
/// kMinObserverRatio.
struct PerfBaseline {
  /// Observer plumbing must keep >= 90% of null-path throughput.
  static constexpr double kMinObserverRatio = 0.9;

  std::string path;                       ///< baseline file compared against
  double runs_per_second = 0.0;           ///< baseline's recorded throughput
  double null_runs_per_second = 0.0;      ///< this run, no observer
  double observer_runs_per_second = 0.0;  ///< this run, no-op observer
};

/// Fixed-count vs budgeted comparison at matched precision, written
/// into the perf section as "time_to_target_precision" (bench_sweep
/// fills this; see README "Bench guard").  Tracks the sequential-
/// stopping speedup in the CI perf trajectory instead of claiming it.
struct PrecisionBench {
  double target_p_halfwidth = 0.0;  ///< precision both sides must reach
  long long fixed_runs = 0;         ///< the fixed cell's run count
  double fixed_wall_seconds = 0.0;
  double fixed_p_halfwidth = 0.0;   ///< achieved by the fixed cell
  long long budgeted_runs = 0;      ///< where the budgeted cell stopped
  double budgeted_wall_seconds = 0.0;
  double budgeted_p_halfwidth = 0.0;
};

/// Telemetry-enabled vs telemetry-disabled rerun of the same sweep,
/// written into the perf section as "telemetry_overhead" (bench_sweep
/// fills this).  Advisory like observer_overhead: the obs registry's
/// sharded counters should keep the metered path within
/// kMinTelemetryRatio of disabled-path throughput, and CI tracks the
/// ratio instead of trusting the claim.
struct TelemetryBench {
  /// Metered path must keep >= 90% of disabled-path throughput.
  static constexpr double kMinTelemetryRatio = 0.9;

  double disabled_runs_per_second = 0.0;  ///< telemetry off (the default)
  double enabled_runs_per_second = 0.0;   ///< registry + tracer on
  long long events_recorded = 0;          ///< trace events from the metered run
};

struct JsonReportOptions {
  /// Emit the "perf" section (wall-clock, runs/s).  Disable to get a
  /// byte-stable document for determinism comparisons.
  bool include_perf = true;
  /// When set (and include_perf), perf gains an "observer_overhead"
  /// advisory object.  Not owned; must outlive the write call.
  const PerfBaseline* baseline = nullptr;
  /// When set (and include_perf), perf gains a
  /// "time_to_target_precision" object.  Not owned; must outlive the
  /// write call.
  const PrecisionBench* precision = nullptr;
  /// When set (and include_perf), perf gains a "telemetry_overhead"
  /// advisory object.  Not owned; must outlive the write call.
  const TelemetryBench* telemetry = nullptr;
};

/// Writes the sweep as JSON (schema "adacheck-sweep-v6": v5 plus a
/// "graph_experiments" array — DAG experiment grids with the graph
/// shape, scheduler axis, and per-cell graph metrics — emitted only
/// when the sweep ran graph experiments; every v5 field is unchanged).
void write_sweep_json(const SweepResult& sweep, std::ostream& os,
                      const JsonReportOptions& options = {});

/// Convenience: the same document as a string.
std::string sweep_json(const SweepResult& sweep,
                       const JsonReportOptions& options = {});

/// The fields of one measured cell, shared verbatim by the sweep report's
/// cell objects and the JSONL stream: the v3 fields in their original
/// order, the v4 additions (runs_executed, p_halfwidth,
/// e_rel_halfwidth), then — only when the cell carried extra
/// recorders — a "metrics" object of one sub-object per recorder.
void write_cell_fields(obs::JsonWriter& json, const std::string& scheme,
                       const sim::CellStats& stats,
                       const sim::MetricValues& metrics);

}  // namespace adacheck::harness

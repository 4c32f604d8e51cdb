// Machine-readable sweep reports.
//
// Emits one JSON document per sweep: the measured cell statistics and,
// optionally, what the sweep cost (runs per second, wall-clock).  The
// encoding is deterministic: keys are emitted in a
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

struct JsonReportOptions {
  /// Emit the "perf" section (wall-clock, runs/s).  Disable to get a
  /// byte-stable document for determinism comparisons.
  bool include_perf = true;
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

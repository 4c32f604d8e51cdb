#include "harness/stream_report.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/json_report.hpp"

namespace adacheck::harness {

std::vector<SweepCellRef> sweep_cell_refs(
    const std::vector<ExperimentSpec>& specs) {
  std::vector<SweepCellRef> refs;
  for (const auto& spec : specs) {
    spec.validate();
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
        SweepCellRef ref;
        ref.experiment_id = spec.id;
        ref.row = r;
        ref.scheme = s;
        ref.utilization = spec.rows[r].utilization;
        ref.lambda = spec.rows[r].lambda;
        ref.scheme_name = spec.schemes[s];
        refs.push_back(std::move(ref));
      }
    }
  }
  return refs;
}

std::vector<SweepCellRef> sweep_cell_refs(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<GraphExperimentSpec>& graphs) {
  auto refs = sweep_cell_refs(specs);
  for (const auto& spec : graphs) {
    spec.validate();
    for (std::size_t r = 0; r < spec.lambdas.size(); ++r) {
      for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
        SweepCellRef ref;
        ref.kind = SweepCellRef::Kind::kGraph;
        ref.experiment_id = spec.id;
        ref.row = r;
        ref.scheme = s;
        ref.lambda = spec.lambdas[r];
        ref.scheme_name = spec.schedulers[s];
        refs.push_back(std::move(ref));
      }
    }
  }
  return refs;
}

JsonlCellStream::JsonlCellStream(std::ostream& os,
                                 std::vector<SweepCellRef> refs)
    : os_(os), refs_(std::move(refs)) {}

void JsonlCellStream::on_cell_done(std::size_t cell,
                                   const sim::CellResult& result) {
  if (cell >= refs_.size()) {
    // The refs must describe the exact spec list being swept; a
    // desync is a programming error and an incomplete stream would
    // hide it — fail loudly (the runner aborts the sweep).
    throw std::logic_error("JsonlCellStream: cell index " +
                           std::to_string(cell) + " outside the " +
                           std::to_string(refs_.size()) + " known refs");
  }
  std::ostringstream line;
  {
    obs::JsonWriter json(line, obs::JsonStyle::kCompact);
    const SweepCellRef& ref = refs_[cell];
    const bool graph = ref.kind == SweepCellRef::Kind::kGraph;
    json.begin_object();
    json.kv("schema", graph ? "adacheck-graph-cell-v1" : "adacheck-cell-v2");
    json.kv("cell", cell);
    json.kv("experiment", ref.experiment_id);
    json.kv("row", ref.row);
    if (!graph) json.kv("utilization", ref.utilization);
    json.kv("lambda", ref.lambda);
    write_cell_fields(json, ref.scheme_name, result.stats, result.metrics);
    json.end_object();
  }

  // Emit in index order: buffer lines that finished ahead of their
  // predecessors, flush the run that just became contiguous.  The
  // stream is flushed per line so a tail -f (or a crashed sweep's
  // post-mortem) sees every completed cell.
  pending_.emplace(cell, std::move(line).str());
  while (!pending_.empty() && pending_.begin()->first == next_) {
    os_ << pending_.begin()->second << '\n';
    pending_.erase(pending_.begin());
    ++next_;
  }
  os_.flush();
}

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProgressLine::ProgressLine(std::ostream& os, double min_interval)
    : os_(os), min_interval_(min_interval) {}

void ProgressLine::on_progress(const sim::SweepProgress& progress) {
  const double now = steady_seconds();
  if (!any_) {
    any_ = true;
    start_ = now;
  }
  const bool final = progress.cells_done == progress.cells_total;
  if (!final && last_print_ >= 0.0 && now - last_print_ < min_interval_) {
    return;
  }
  last_print_ = now;
  const double elapsed = now - start_;
  const long long rate =
      elapsed > 0.0
          ? static_cast<long long>(static_cast<double>(progress.runs_done) /
                                   elapsed)
          : 0;
  os_ << '\r' << "cells " << progress.cells_done << '/'
      << progress.cells_total << "  runs " << progress.runs_done << '/'
      << progress.runs_total << "  " << rate << " runs/s";
  if (final) os_ << '\n';
  os_.flush();
}

}  // namespace adacheck::harness

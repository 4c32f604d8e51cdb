// Rendering and shape-checking of experiment results.
//
// `render_experiment` prints a paper-vs-measured table; `shape_checks`
// evaluates the qualitative claims the paper makes about each table
// (who wins, and roughly by how much) — absolute numbers are not
// expected to match a reimplementation, the ordering is (DESIGN.md §4).
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace adacheck::harness {

/// Paper-vs-measured table, one row per (U, lambda) point with P and E
/// for every scheme.
std::string render_experiment(const ExperimentResult& result);

/// One qualitative expectation evaluated against measured data.
struct ShapeCheck {
  std::string description;
  bool passed = false;
};

/// Evaluates the paper's qualitative claims for this table:
///  - the proposed scheme's P is within tolerance of, or above, A_D's
///    in every cell, and strictly better in the cells the paper
///    highlights (baselines-at-f2 tables);
///  - both adaptive schemes dominate the fixed baselines' P wherever
///    the paper's own gap exceeds 0.2;
///  - in baselines-at-f1 tables the proposed scheme uses no more
///    energy than A_D (cell-median comparison).
std::vector<ShapeCheck> shape_checks(const ExperimentResult& result);

/// Render shape checks as a PASS/FAIL listing.
std::string render_shape_checks(const std::vector<ShapeCheck>& checks);

}  // namespace adacheck::harness

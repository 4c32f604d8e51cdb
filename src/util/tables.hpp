// Plain-text table rendering for reports and examples.
//
// `adacheck run` prints the paper's table rows next to our measured
// values through harness::render_experiment; TextTable handles the
// column alignment.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace adacheck::util {

/// Column-aligned monospace table.  Cells are strings; numeric
/// formatting is the caller's job (see fmt_* helpers below).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; it must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);
  /// Appends a horizontal rule (rendered as dashes).
  void add_rule();

  std::size_t rows() const noexcept { return rows_.size(); }
  std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty vector = rule
};

/// Fixed-precision float: fmt_fixed(3.14159, 2) == "3.14".
std::string fmt_fixed(double v, int precision);
/// Probability with 4 decimals, matching the paper's tables ("0.9991");
/// NaN renders as "NaN".
std::string fmt_prob(double v);
/// Energy as a rounded integer, matching the paper ("57564"); NaN
/// renders as "NaN".
std::string fmt_energy(double v);
/// Compact scientific notation, e.g. "1.4e-03".
std::string fmt_sci(double v, int precision = 2);

}  // namespace adacheck::util

#include "harness/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/tables.hpp"

namespace adacheck::harness {

namespace {
using util::fmt_energy;
using util::fmt_fixed;
using util::fmt_prob;
using util::fmt_sci;

bool has_paper(const ExperimentRow& row) { return !row.paper.empty(); }

std::size_t scheme_index(const ExperimentSpec& spec, const std::string& name) {
  const auto it = std::find(spec.schemes.begin(), spec.schemes.end(), name);
  return static_cast<std::size_t>(it - spec.schemes.begin());
}
}  // namespace

std::string render_experiment(const ExperimentResult& result) {
  const auto& spec = result.spec;
  std::vector<std::string> headers = {"U", "lambda"};
  for (const auto& scheme : spec.schemes) {
    headers.push_back(scheme + " P(paper/ours)");
    headers.push_back(scheme + " E(paper/ours)");
  }
  util::TextTable table(headers);
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    const auto& row = spec.rows[r];
    std::vector<std::string> cells = {fmt_fixed(row.utilization, 2),
                                      fmt_sci(row.lambda, 1)};
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const auto& stats = result.cells[r][s];
      const std::string paper_p =
          has_paper(row) ? fmt_prob(row.paper[s].p) : "-";
      const std::string paper_e =
          has_paper(row) ? fmt_energy(row.paper[s].e) : "-";
      cells.push_back(paper_p + " / " + fmt_prob(stats.probability()));
      cells.push_back(paper_e + " / " + fmt_energy(stats.energy()));
    }
    table.add_row(std::move(cells));
  }
  std::ostringstream out;
  out << spec.title << "\n" << table;
  return out.str();
}

std::vector<ShapeCheck> shape_checks(const ExperimentResult& result) {
  std::vector<ShapeCheck> checks;
  const auto& spec = result.spec;
  const std::size_t i_ad = scheme_index(spec, "A_D");
  // The proposed scheme is whichever of A_D_S / A_D_C the table uses.
  std::size_t i_new = scheme_index(spec, "A_D_S");
  if (i_new >= spec.schemes.size()) i_new = scheme_index(spec, "A_D_C");
  const std::size_t i_poisson = scheme_index(spec, "Poisson");
  const std::size_t i_kft = scheme_index(spec, "k-f-t");
  if (i_ad >= spec.schemes.size() || i_new >= spec.schemes.size()) {
    return checks;  // not a paper-style comparison table
  }

  // 1. P(new) >= P(A_D) - tol in every cell.
  {
    bool ok = true;
    std::ostringstream desc;
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      const double p_new = result.cells[r][i_new].probability();
      const double p_ad = result.cells[r][i_ad].probability();
      if (p_new + 0.02 < p_ad) {
        ok = false;
        desc << " [row " << r << ": " << p_new << " < " << p_ad << "]";
      }
    }
    checks.push_back({"proposed scheme matches or beats A_D's completion "
                      "probability in every cell" + desc.str(),
                      ok});
  }

  // 2. Where the paper reports a gap > 0.2 over a fixed baseline, we
  //    see a gap > 0.1 (same direction, looser margin).
  for (const std::size_t i_base : {i_poisson, i_kft}) {
    if (i_base >= spec.schemes.size()) continue;
    bool ok = true;
    std::ostringstream desc;
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      const auto& row = spec.rows[r];
      if (!has_paper(row)) continue;
      const double paper_gap = row.paper[i_new].p - row.paper[i_base].p;
      if (paper_gap <= 0.2) continue;
      const double our_gap = result.cells[r][i_new].probability() -
                             result.cells[r][i_base].probability();
      if (our_gap <= 0.1) {
        ok = false;
        desc << " [row " << r << ": gap " << our_gap << "]";
      }
    }
    checks.push_back(
        {"proposed scheme dominates '" + spec.schemes[i_base] +
             "' wherever the paper reports a >0.2 advantage" + desc.str(),
         ok});
  }

  // 3. Baselines-at-f1 tables: proposed scheme uses no more energy than
  //    A_D (median across cells; both must have successes).
  if (spec.util_level == 0) {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      const double e_new = result.cells[r][i_new].energy();
      const double e_ad = result.cells[r][i_ad].energy();
      if (std::isnan(e_new) || std::isnan(e_ad) || e_ad <= 0.0) continue;
      ratios.push_back(e_new / e_ad);
    }
    bool ok = false;
    double median = std::nan("");
    if (!ratios.empty()) {
      std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                       ratios.end());
      median = ratios[ratios.size() / 2];
      ok = median <= 1.02;
    }
    std::ostringstream desc;
    desc << "proposed scheme's median energy ratio vs A_D <= 1.02 (measured "
         << median << ")";
    checks.push_back({desc.str(), ok});
  }

  return checks;
}

std::string render_shape_checks(const std::vector<ShapeCheck>& checks) {
  std::ostringstream out;
  for (const auto& check : checks) {
    out << (check.passed ? "[PASS] " : "[FAIL] ") << check.description
        << "\n";
  }
  return out.str();
}

}  // namespace adacheck::harness

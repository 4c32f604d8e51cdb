#include "analytic/renewal_tmr.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "analytic/num_checkpoints.hpp"

namespace adacheck::analytic {

void TmrRenewalParams::validate() const {
  if (interval <= 0.0)
    throw std::invalid_argument("TmrRenewalParams: interval <= 0");
  if (lambda < 0.0) throw std::invalid_argument("TmrRenewalParams: lambda < 0");
  costs.validate();
}

TmrWindowOdds tmr_window_odds(double expected_faults) {
  if (expected_faults < 0.0) {
    throw std::invalid_argument("tmr_window_odds: negative exposure");
  }
  TmrWindowOdds odds;
  odds.clean = std::exp(-expected_faults);
  // P(>=1 fault, all on one of the three replicas): sum over n>=1 of
  // Pois(n) * 3 * (1/3)^n = 3 (e^{-2x/3} - e^{-x}).
  odds.single =
      3.0 * (std::exp(-2.0 * expected_faults / 3.0) - odds.clean);
  odds.majority_lost = 1.0 - odds.clean - odds.single;
  if (odds.majority_lost < 0.0) odds.majority_lost = 0.0;  // rounding
  return odds;
}

namespace {

double tmr_ccp_kernel(const TmrRenewalParams& params, int m) {
  const double md = static_cast<double>(m);
  const double t2 = params.interval / md;
  const double tcp = params.costs.compare;
  const double ts = params.costs.store;
  const double tr = params.costs.rollback;
  const auto odds = tmr_window_odds(params.lambda * t2);
  const double p_fail = odds.majority_lost;
  const double p_pass = 1.0 - p_fail;
  if (p_pass <= 0.0) return std::numeric_limits<double>::infinity();
  // Expected vote-corrections per passed sub-interval.
  const double g = odds.single / p_pass;
  const double c = t2 + tcp;

  double expected_attempt = 0.0;
  double pass_pow = 1.0;  // p_pass^{i-1}
  for (int i = 1; i <= m; ++i) {
    const double di = static_cast<double>(i);
    const double p_i = pass_pow * p_fail;  // majority lost at sub i
    const double cscp_store = i == m ? ts : 0.0;
    expected_attempt +=
        p_i * (di * c + cscp_store + tr + (di - 1.0) * g * tr);
    pass_pow *= p_pass;
  }
  // pass_pow is now p_pass^m: full success.
  expected_attempt += pass_pow * (md * c + ts + md * g * tr);
  return expected_attempt / pass_pow;
}

/// Scratch for tmr_scp_kernel: b[1..m] and G[1..m] for every m up to
/// the size it was made for.  Uninitialized; the kernel writes each
/// entry before reading it.
struct TmrScpScratch {
  explicit TmrScpScratch(int m_max)
      : size(static_cast<std::size_t>(m_max) + 1),
        data(std::make_unique_for_overwrite<double[]>(2 * size)) {}
  std::size_t size;
  std::unique_ptr<double[]> data;
  double* b() const { return data.get(); }
  double* G() const { return data.get() + size; }
};

double tmr_scp_kernel(const TmrRenewalParams& params, int m,
                      const TmrScpScratch& scratch) {
  const double t1 = params.interval / static_cast<double>(m);
  const double ts = params.costs.store;
  const double tcp = params.costs.compare;
  const double tr = params.costs.rollback;
  const auto odds = tmr_window_odds(params.lambda * t1);
  // Per-window Markov transitions over {0 corrupt, 1 corrupt, lost}.
  const double stay1 = std::exp(-2.0 * params.lambda * t1 / 3.0);

  // pi0, pi1: state distribution after r windows (absorbing loss);
  // b[j]: probability the majority is first lost in window j.
  //
  // G(r): expected time to complete the last r sub-intervals, entering
  // consistent.  Detection happens only at the CSCP, so a failed
  // attempt still pays the full S(r); the prefix before the loss
  // boundary is committed (its SCPs hold a 2-of-3 majority).
  //   G(r) = S(r) + pi1(r)*t_r
  //        + sum_{j=1..r} b_j * (t_r + G(r-j+1)).
  // Step r needs pi1(r), b[1..r] and G[1..r-1] only, so one pass fills
  // b and G together.
  double* const b = scratch.b();
  double* const G = scratch.G();
  double pi0 = 1.0;
  double pi1 = 0.0;
  for (int r = 1; r <= m; ++r) {
    const double next0 = pi0 * odds.clean;
    const double next1 = pi0 * odds.single + pi1 * stay1;
    b[r] = (pi0 + pi1) - (next0 + next1);
    pi0 = next0;
    pi1 = next1;

    const double S = static_cast<double>(r) * (t1 + ts) + tcp;
    double rhs = S + pi1 * tr;
    for (int j = 2; j <= r; ++j) {
      rhs += b[j] * (tr + G[r - j + 1]);
    }
    rhs += b[1] * tr;  // j = 1 term's non-recursive part
    const double denom = 1.0 - b[1];
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    G[r] = rhs / denom;
  }
  return G[m];
}

}  // namespace

double tmr_ccp_expected_time(const TmrRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("tmr_ccp_expected_time: m < 1");
  return tmr_ccp_kernel(params, m);
}

double tmr_scp_expected_time(const TmrRenewalParams& params, int m) {
  params.validate();
  if (m < 1) throw std::invalid_argument("tmr_scp_expected_time: m < 1");
  return tmr_scp_kernel(params, m, TmrScpScratch(m));
}

int num_scp_tmr(const TmrRenewalParams& params) {
  params.validate();
  return num_scp_tmr_unchecked(params);
}

int num_ccp_tmr(const TmrRenewalParams& params) {
  params.validate();
  return num_ccp_tmr_unchecked(params);
}

int num_scp_tmr_unchecked(const TmrRenewalParams& params) {
  const int m_max = max_sub_intervals(params.interval, params.costs);
  const TmrScpScratch scratch(m_max);  // one buffer for the whole scan
  return argmin_sub_intervals(m_max, [&](int m) {
    return tmr_scp_kernel(params, m, scratch);
  });
}

int num_ccp_tmr_unchecked(const TmrRenewalParams& params) {
  return argmin_sub_intervals(
      max_sub_intervals(params.interval, params.costs),
      [&](int m) { return tmr_ccp_kernel(params, m); });
}

}  // namespace adacheck::analytic

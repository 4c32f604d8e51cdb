#include "analytic/num_checkpoints.hpp"

#include <algorithm>
#include <cmath>

namespace adacheck::analytic {

int max_sub_intervals(double interval, const model::CheckpointCosts& costs) {
  // A sub-interval shorter than the cheaper of the two checkpoint
  // operations can never pay for itself; also hard-cap for safety.
  // Clamp before the cast: with a zero-cost operation the ratio is far
  // beyond the range of int.
  const double cheapest = std::max(std::min(costs.store, costs.compare), 1e-9);
  const double cap = std::min(interval / cheapest, 4096.0);
  return cap >= 1.0 ? static_cast<int>(cap) : 1;
}

namespace {

/// Shared Fig. 2 skeleton: golden-section over T1 in (0, T], then round
/// m = T/T1~ to the better neighbor.
template <typename EvalContinuous, typename EvalInteger>
int fig2_optimize(double interval, int m_max, EvalContinuous r_cont,
                  EvalInteger r_int) {
  // Line 1: T1~ = argmin of the continuous relaxation.  The cost blows
  // up as T1 -> 0, so search on [T/m_max, T].
  const double lo = interval / static_cast<double>(m_max);
  const auto minimum = util::golden_section_minimize(
      [&](double t1) { return r_cont(t1); }, lo, interval,
      std::max(1e-9, interval * 1e-9));
  const double t1_opt = minimum.x;
  // Line 2-7: if T1~ < T round m = T/T1~ to the better of floor/ceil,
  // else a single sub-interval is optimal.
  if (t1_opt >= interval) return 1;
  const int m_floor =
      std::max(1, static_cast<int>(std::floor(interval / t1_opt)));
  const int m_ceil = std::min(m_max, m_floor + 1);
  return r_int(m_floor) <= r_int(m_ceil) ? m_floor : m_ceil;
}

}  // namespace

int num_scp(const ScpRenewalParams& params) {
  params.validate();
  return num_scp_unchecked(params);
}

int num_ccp(const CcpRenewalParams& params) {
  params.validate();
  return num_ccp_unchecked(params);
}

int num_scp_unchecked(const ScpRenewalParams& params) {
  return argmin_sub_intervals(
      max_sub_intervals(params.interval, params.costs),
      [&](int m) { return scp_expected_time_unchecked(params, m); });
}

int num_ccp_unchecked(const CcpRenewalParams& params) {
  return argmin_sub_intervals(
      max_sub_intervals(params.interval, params.costs),
      [&](int m) { return ccp_expected_time_unchecked(params, m); });
}

int num_scp_fig2(const ScpRenewalParams& params) {
  params.validate();
  const int m_max = max_sub_intervals(params.interval, params.costs);
  return fig2_optimize(
      params.interval, m_max,
      [&](double t1) { return scp_expected_time_continuous(params, t1); },
      [&](int m) { return scp_expected_time(params, m); });
}

int num_ccp_fig2(const CcpRenewalParams& params) {
  params.validate();
  const int m_max = max_sub_intervals(params.interval, params.costs);
  return fig2_optimize(
      params.interval, m_max,
      [&](double t2) { return ccp_expected_time_continuous(params, t2); },
      [&](int m) { return ccp_expected_time(params, m); });
}

int num_scp_exhaustive(const ScpRenewalParams& params) {
  params.validate();
  return argmin_sub_intervals(
      max_sub_intervals(params.interval, params.costs),
      [&](int m) { return scp_expected_time(params, m); });
}

int num_ccp_exhaustive(const CcpRenewalParams& params) {
  params.validate();
  return argmin_sub_intervals(
      max_sub_intervals(params.interval, params.costs),
      [&](int m) { return ccp_expected_time(params, m); });
}

}  // namespace adacheck::analytic

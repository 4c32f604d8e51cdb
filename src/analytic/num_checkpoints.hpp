// Choosing the number m of sub-intervals (i.e. m-1 additional SCPs or
// CCPs) inside a CSCP interval of length T that minimizes the renewal
// expected time R1(m) / R2(m).
//
// num_scp / num_ccp are what the adaptive policies call at every
// decision.  They return the exact integer argmin over
// [1, max_sub_intervals]: a scan up from m = 1 that stops once the cost
// has risen 8 times in a row (R1 and R2 are unimodal in m: per-checkpoint
// overhead grows with m, re-execution exposure with T/m).  The scan
// validates the parameters once and evaluates an allocation-free kernel
// per m.
//
// num_scp_fig2 / num_ccp_fig2 are the paper's Fig. 2 procedure: find the
// continuous minimizer T1~ over (0, T] by golden-section search, then
// round m = T/T1~ to the better of floor/ceil.  Its cost lands within
// 0.1% of the exact optimum; bench/ablation_m prints the two side by side.
//
// num_scp_exhaustive / num_ccp_exhaustive run the same scan over the
// public, validating scp_expected_time / ccp_expected_time: the
// reference the tests pin num_scp / num_ccp against.
#pragma once

#include <cstdint>

#include "analytic/renewal_ccp.hpp"
#include "analytic/renewal_scp.hpp"
#include "util/optimize.hpp"

namespace adacheck::analytic {

/// Caps the largest m considered; sub-intervals shorter than the
/// cheapest checkpoint operation are never useful.  The result is in
/// [1, 4096] for every interval, including zero-cost operations.
int max_sub_intervals(double interval, const model::CheckpointCosts& costs);

/// The scan behind every search for m: the argmin of cost(m) over
/// [1, m_max], stopping after 8 consecutive rises.
template <typename Cost>
int argmin_sub_intervals(int m_max, Cost&& cost) {
  const auto best = util::integer_argmin(
      [&](std::int64_t m) { return cost(static_cast<int>(m)); }, 1, m_max,
      /*early_stop_rises=*/8);
  return static_cast<int>(best.x);
}

/// The policies' m for SCPs: the exact argmin of R1(m).
int num_scp(const ScpRenewalParams& params);

/// The policies' m for CCPs: the exact argmin of R2(m).
int num_ccp(const CcpRenewalParams& params);

/// num_scp / num_ccp, bit for bit, without checking params: for
/// callers whose params already satisfy validate() (the adaptive
/// policies plan with costs validated once with the setup, a positive
/// interval and a non-negative rate).
int num_scp_unchecked(const ScpRenewalParams& params);
int num_ccp_unchecked(const CcpRenewalParams& params);

/// The paper's Fig. 2 procedure: golden-section search, then rounding.
int num_scp_fig2(const ScpRenewalParams& params);
int num_ccp_fig2(const CcpRenewalParams& params);

/// Reference scan over the validating public expected-time functions.
int num_scp_exhaustive(const ScpRenewalParams& params);
int num_ccp_exhaustive(const CcpRenewalParams& params);

}  // namespace adacheck::analytic

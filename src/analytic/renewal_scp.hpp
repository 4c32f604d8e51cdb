// Renewal-equation model of a CSCP interval with m-1 additional SCPs
// (paper §2.1, eq. (1)).
//
// Semantics being modeled: a CSCP interval of computation length T is
// split into m sub-intervals of length T1 = T/m, each ending with an
// SCP (cost t_s) except the last, which ends with the CSCP
// (cost t_cp + t_s).  Faults (system rate mu = lambda) are detected
// only at the CSCP comparison; recovery rolls back to the last SCP that
// preceded the first fault of the attempt and re-executes from there.
//
// The paper's printed equation (1) is OCR-mangled, so we evaluate the
// exact expectation with a renewal recursion (derived in DESIGN.md §3):
// with q = e^{-lambda*T1}, S(r) = r*(T1 + t_s) + t_cp, and G(r) the
// expected time to complete the last r sub-intervals,
//
//   q*G(r) = S(r) + (1 - q^r)*t_r + (1 - q) * sum_{j=1..r-1} q^j G(r-j),
//
// and R1(m) = G(m).  Limiting cases match the paper exactly:
// R1(1) = (T + t_s + t_cp) * e^{lambda*T}, R1(m -> inf) -> inf.
#pragma once

#include "model/checkpoint.hpp"

namespace adacheck::analytic {

struct ScpRenewalParams {
  double interval = 0.0;      ///< T: CSCP interval computation length.
  double lambda = 0.0;        ///< per-processor fault rate.
  model::CheckpointCosts costs;

  void validate() const;
};

/// Exact expected completion time R1(m) of one CSCP interval with m
/// sub-intervals.  O(m) time and O(1) memory per call.  m >= 1.
double scp_expected_time(const ScpRenewalParams& params, int m);

/// scp_expected_time, bit for bit, without checking params or m: for
/// searches that validated params once and pass m >= 1.
double scp_expected_time_unchecked(const ScpRenewalParams& params, int m);

/// Continuous relaxation R1(T1) used by the Fig. 2 optimizer: evaluates
/// the recursion at m = T/T1 rounded to the nearest integer >= 1, with
/// the interval rescaled so sub-intervals have exactly length T1 where
/// possible.  Defined for 0 < T1 <= T.
double scp_expected_time_continuous(const ScpRenewalParams& params, double t1);

/// First-order closed-form approximation of R1(m) for small fault
/// probability per interval (used as a cross-check and in docs):
/// R1(m) ~ S(m) + (1 - q^m)*(t_r + expected re-execution).  Exposed for
/// tests that verify the recursion's asymptotics.
double scp_expected_time_first_order(const ScpRenewalParams& params, int m);

}  // namespace adacheck::analytic

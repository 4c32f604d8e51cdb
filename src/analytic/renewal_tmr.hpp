// Renewal-equation models for the TMR (triple modular redundancy)
// extension — the "other task duplication systems" the paper names as
// future work, following Nakagawa/Fukumoto (the paper's ref [5]), who
// analyze optimal checkpoint intervals for both DMR and TMR.
//
// With three replicas a comparison that sees exactly one deviant state
// majority-votes it back to health at cost t_r, losing no work; a
// rollback is needed only when two or more *distinct* replicas are
// corrupted between consistency points (no majority survives).  Faults
// arrive to the system at rate lambda, striking a uniformly random
// replica, so with x = lambda * w faults expected in a window w:
//   P(clean)                = e^{-x}
//   P(single replica hit)   = 3*(e^{-2x/3} - e^{-x})   (>=1 fault, all same)
//   P(majority lost)        = 1 - the above two.
//
// CCP mode: comparisons close every sub-interval, so corruption cannot
// span windows; each sub-interval independently either passes, votes
// (cost t_r), or forces a rollback to the interval-start CSCP.
//
// SCP mode: no comparison until the CSCP, so corruption accumulates
// across sub-intervals; the per-attempt replica state follows a Markov
// chain over {0 corrupt, 1 corrupt, majority lost}.  On majority loss
// at sub-interval j (the first sub where a second distinct replica was
// hit), recovery rolls back to SCP j-1, which still holds a 2-of-3
// majority; the prefix is committed.
#pragma once

#include "model/checkpoint.hpp"

namespace adacheck::analytic {

struct TmrRenewalParams {
  double interval = 0.0;  ///< T: CSCP interval computation length.
  double lambda = 0.0;    ///< system-level fault rate.
  model::CheckpointCosts costs;

  void validate() const;
};

/// Window outcome probabilities for exposure x = lambda * window.
struct TmrWindowOdds {
  double clean = 1.0;
  double single = 0.0;   ///< >=1 fault, all on one replica (votable)
  double majority_lost = 0.0;
};
TmrWindowOdds tmr_window_odds(double expected_faults);

/// Expected completion time of one CSCP interval with m sub-intervals
/// ending in CCP comparisons (TMR semantics).  m >= 1.
double tmr_ccp_expected_time(const TmrRenewalParams& params, int m);

/// Expected completion time with m sub-intervals ending in SCP stores
/// (TMR semantics, detection at the CSCP only).  m >= 1.
double tmr_scp_expected_time(const TmrRenewalParams& params, int m);

/// Integer argmin of the corresponding expected time over m.
int num_scp_tmr(const TmrRenewalParams& params);
int num_ccp_tmr(const TmrRenewalParams& params);

/// num_scp_tmr / num_ccp_tmr, bit for bit, without checking params:
/// for callers whose params already satisfy validate().
int num_scp_tmr_unchecked(const TmrRenewalParams& params);
int num_ccp_tmr_unchecked(const TmrRenewalParams& params);

}  // namespace adacheck::analytic

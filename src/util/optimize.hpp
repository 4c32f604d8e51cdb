// Scalar minimization and root finding used by the analytic layer.
//
// num_SCP/num_CCP choose m with a direct integer scan (integer_argmin).
// The paper's Fig. 2 procedure, kept for the ablation bench, instead
// minimizes the renewal cost over a continuous sub-interval length T1
// (golden-section search on a unimodal bracket) and then rounds the
// implied count m to the better of floor/ceil.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

namespace adacheck::util {

struct ScalarMinimum {
  double x = 0.0;  ///< argmin
  double fx = 0.0; ///< f(argmin)
};

/// Golden-section search for the minimum of a unimodal f on [lo, hi].
/// Runs until the bracket is narrower than tol (absolute).  If f is not
/// unimodal the result is a local minimum inside the bracket.  Throws
/// std::invalid_argument on a non-finite bracket, hi < lo, or a
/// tolerance that is not finite and positive.
ScalarMinimum golden_section_minimize(const std::function<double(double)>& f,
                                      double lo, double hi,
                                      double tol = 1e-7);

struct IntegerMinimum {
  std::int64_t x = 1;
  double fx = 0.0;
};

/// Scans f over integers [lo, hi] and returns the argmin.  If
/// `early_stop_rises` > 0 the scan stops after the value has risen that
/// many consecutive times (valid shortcut for convex/unimodal costs such
/// as the renewal equations, where the tail is monotone increasing).
/// A template so `f` inlines into a plain loop: the scan runs on the
/// adaptive policies' per-decision path.
template <typename F>
IntegerMinimum integer_argmin(F&& f, std::int64_t lo, std::int64_t hi,
                              int early_stop_rises = 0) {
  if (lo > hi) throw std::invalid_argument("integer_argmin: lo > hi");
  IntegerMinimum best{lo, f(lo)};
  double prev = best.fx;
  int rises = 0;
  for (std::int64_t x = lo + 1; x <= hi; ++x) {
    const double fx = f(x);
    if (fx < best.fx) {
      best = {x, fx};
    }
    if (early_stop_rises > 0) {
      rises = fx > prev ? rises + 1 : 0;
      if (rises >= early_stop_rises) break;
    }
    prev = fx;
  }
  return best;
}

/// Bisection root finder for continuous f with f(lo), f(hi) of opposite
/// sign.  Returns the root to within tol.  Throws std::invalid_argument
/// if the bracket does not straddle a sign change, is non-finite, or
/// the tolerance is not finite and positive.
double bisect_root(const std::function<double(double)>& f, double lo,
                   double hi, double tol = 1e-10);

}  // namespace adacheck::util

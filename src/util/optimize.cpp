#include "util/optimize.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace adacheck::util {

ScalarMinimum golden_section_minimize(const std::function<double(double)>& f,
                                      double lo, double hi, double tol) {
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("golden_section: non-finite bracket");
  }
  if (!(hi >= lo)) throw std::invalid_argument("golden_section: hi < lo");
  // tol <= 0 (or NaN) can never be reached by the shrinking bracket and
  // would spin forever once b - a hits the floating-point floor.
  if (!(tol > 0.0) || !std::isfinite(tol)) {
    throw std::invalid_argument("golden_section: tol must be finite and > 0");
  }
  constexpr double invphi = 0.6180339887498949;   // 1/phi
  constexpr double invphi2 = 0.3819660112501051;  // 1/phi^2
  double a = lo, b = hi;
  double c = a + invphi2 * (b - a);
  double d = a + invphi * (b - a);
  double fc = f(c), fd = f(d);
  double width = b - a;
  while (width > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = a + invphi2 * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + invphi * (b - a);
      fd = f(d);
    }
    // When tol is below the bracket's ULP spacing the probe points
    // round onto the endpoints and the width stops shrinking; bail out
    // at floating-point resolution instead of spinning.
    const double new_width = b - a;
    if (new_width >= width) break;
    width = new_width;
  }
  const double xm = 0.5 * (a + b);
  return {xm, f(xm)};
}

double bisect_root(const std::function<double(double)>& f, double lo,
                   double hi, double tol) {
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("bisect_root: non-finite bracket");
  }
  if (!(tol > 0.0) || !std::isfinite(tol)) {
    throw std::invalid_argument("bisect_root: tol must be finite and > 0");
  }
  double flo = f(lo), fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if (std::signbit(flo) == std::signbit(fhi)) {
    throw std::invalid_argument("bisect_root: no sign change on bracket");
  }
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles: the midpoint rounds back onto an endpoint and
    // the bracket can never reach a tol below its ULP spacing.
    if (mid == lo || mid == hi) return mid;
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace adacheck::util

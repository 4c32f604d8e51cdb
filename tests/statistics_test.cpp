#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "util/rng.hpp"

namespace adacheck::util {
namespace {

TEST(RunningStats, EmptyMeanIsNaN) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  Xoshiro256 rng(21);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(-5.0, 20.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsNoOp) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, NumericalStabilityLargeOffset) {
  // Welford should survive a huge common offset that would destroy the
  // naive sum-of-squares formula.
  RunningStats s;
  const double offset = 1e12;
  for (double x : {1.0, 2.0, 3.0}) s.add(offset + x);
  EXPECT_NEAR(s.variance(), 1.0, 1e-3);
}

TEST(BinomialStats, EmptyProportionIsNaN) {
  BinomialStats b;
  EXPECT_TRUE(std::isnan(b.proportion()));
  EXPECT_TRUE(std::isnan(b.wilson_lo()));
}

TEST(BinomialStats, ProportionAndMerge) {
  BinomialStats a, b;
  for (int i = 0; i < 30; ++i) a.add(i < 12);
  for (int i = 0; i < 70; ++i) b.add(i < 48);
  a.merge(b);
  EXPECT_EQ(a.trials(), 100u);
  EXPECT_EQ(a.successes(), 60u);
  EXPECT_DOUBLE_EQ(a.proportion(), 0.6);
}

TEST(BinomialStats, WilsonIntervalBracketsProportion) {
  BinomialStats b;
  for (int i = 0; i < 200; ++i) b.add(i < 150);
  EXPECT_LT(b.wilson_lo(), 0.75);
  EXPECT_GT(b.wilson_hi(), 0.75);
  EXPECT_GT(b.wilson_lo(), 0.68);
  EXPECT_LT(b.wilson_hi(), 0.81);
}

TEST(BinomialStats, WilsonWellBehavedAtExtremes) {
  BinomialStats zero, one;
  for (int i = 0; i < 50; ++i) {
    zero.add(false);
    one.add(true);
  }
  EXPECT_EQ(zero.wilson_lo(), 0.0);
  EXPECT_GT(zero.wilson_hi(), 0.0);
  EXPECT_LT(zero.wilson_hi(), 0.12);
  EXPECT_EQ(one.wilson_hi(), 1.0);
  EXPECT_LT(one.wilson_lo(), 1.0);
  EXPECT_GT(one.wilson_lo(), 0.88);
}

TEST(RunningStats, RelativeHalfwidthGuards) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.rel_ci95_halfwidth()));  // empty
  s.add(5.0);
  // One sample must never satisfy a precision target.
  EXPECT_TRUE(std::isnan(s.rel_ci95_halfwidth()));
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.rel_ci95_halfwidth(), s.ci95_halfwidth() / 6.0);

  RunningStats zero_mean;
  zero_mean.add(-1.0);
  zero_mean.add(1.0);
  EXPECT_TRUE(std::isnan(zero_mean.rel_ci95_halfwidth()));
}

TEST(RunningStats, RelativeHalfwidthClosedForm) {
  // Samples {9, 10, 11}: mean 10, variance 1, sem 1/sqrt(3).
  RunningStats s;
  for (double x : {9.0, 10.0, 11.0}) s.add(x);
  EXPECT_NEAR(s.rel_ci95_halfwidth(), 1.96 / std::sqrt(3.0) / 10.0, 1e-12);
}

TEST(Wilson95, MatchesClosedForm) {
  // s = 50, n = 100 with z = 1.96, straight from the score-interval
  // definition: center = (p + z^2/2n) / (1 + z^2/n),
  // margin = z * sqrt(p(1-p)/n + z^2/4n^2) / (1 + z^2/n).
  const double z = 1.96, n = 100.0, p = 0.5;
  const double denom = 1.0 + z * z / n;
  const double center = (p + z * z / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  EXPECT_NEAR(wilson95_lower(50, 100), center - margin, 1e-12);
  EXPECT_NEAR(wilson95_upper(50, 100), center + margin, 1e-12);
  EXPECT_NEAR(wilson95_halfwidth(50, 100), margin, 1e-12);
}

TEST(Wilson95, SymmetricUnderSuccessFailureSwap) {
  // The half-width for P(success) equals the half-width for P(miss),
  // so one budget target covers both readings of the interval.
  for (const auto& [s, n] : {std::pair<std::size_t, std::size_t>{3, 256},
                            {200, 256},
                            {0, 100},
                            {97, 100}}) {
    EXPECT_DOUBLE_EQ(wilson95_halfwidth(s, n), wilson95_halfwidth(n - s, n));
  }
}

TEST(Wilson95, MembersDelegateToFreeHelpers) {
  BinomialStats b;
  for (int i = 0; i < 256; ++i) b.add(i < 255);
  EXPECT_DOUBLE_EQ(b.wilson_lo(), wilson95_lower(255, 256));
  EXPECT_DOUBLE_EQ(b.wilson_hi(), wilson95_upper(255, 256));
  EXPECT_DOUBLE_EQ(b.wilson_halfwidth(), wilson95_halfwidth(255, 256));
  // The half-width is computed through the canonical (smaller) tail,
  // so it matches the raw bound spread only up to rounding.
  EXPECT_NEAR(b.wilson_halfwidth(), (b.wilson_hi() - b.wilson_lo()) / 2.0,
              1e-12);
  EXPECT_TRUE(std::isnan(wilson95_halfwidth(0, 0)));
}

TEST(Wilson95, HalfwidthShrinksWithTrials) {
  // The budget loop relies on more chunks tightening the interval.
  double previous = 1.0;
  for (std::size_t n : {256u, 512u, 1024u, 2048u}) {
    const double hw = wilson95_halfwidth(n / 2, n);
    EXPECT_LT(hw, previous);
    previous = hw;
  }
}

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);  // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, NonFiniteSamplesAreSafe) {
  // Regression: casting NaN/±inf bin offsets to an integer was UB.
  // Infinities clamp to the edge bins; NaN is tallied separately and
  // never binned.
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
}

TEST(Histogram, ZeroQuantileSkipsEmptyLeadingBins) {
  // Regression: quantile(0.0) returned lo_ even when every sample sat
  // in a later bin.
  Histogram h(0.0, 10.0, 5);
  h.add(7.0);
  h.add(7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 6.0);  // lower edge of bin [6, 8)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);  // upper edge of bin [6, 8)
}

TEST(Histogram, QuantileOnUniformData) {
  Histogram h(0.0, 1.0, 100);
  Xoshiro256 rng(33);
  for (int i = 0; i < 100'000; ++i) h.add(rng.uniform01());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_TRUE(std::isnan(Histogram(0.0, 1.0, 4).quantile(0.5)));
}

TEST(Histogram, MergeMatchesSequentialFill) {
  // Integer tallies: a merged pair of partials is exactly the
  // histogram of the concatenated samples, whatever the split.
  Histogram whole(0.0, 10.0, 20);
  Histogram left(0.0, 10.0, 20);
  Histogram right(0.0, 10.0, 20);
  Xoshiro256 rng(7);
  for (int i = 0; i < 5'000; ++i) {
    const double x = 12.0 * rng.uniform01() - 1.0;  // exercises clamping
    whole.add(x);
    (i < 1'234 ? left : right).add(x);
  }
  left.add(std::numeric_limits<double>::quiet_NaN());
  whole.add(std::numeric_limits<double>::quiet_NaN());
  left.merge(right);
  EXPECT_EQ(left.total(), whole.total());
  EXPECT_EQ(left.nan_count(), whole.nan_count());
  for (std::size_t b = 0; b < whole.bins(); ++b) {
    EXPECT_EQ(left.bin_count(b), whole.bin_count(b)) << "bin " << b;
  }
  EXPECT_DOUBLE_EQ(left.quantile(0.99), whole.quantile(0.99));
}

TEST(Histogram, MergeRejectsMismatchedShapes) {
  Histogram a(0.0, 1.0, 4);
  Histogram bins(0.0, 1.0, 8);
  Histogram range(0.0, 2.0, 4);
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
  EXPECT_NO_THROW(a.merge(Histogram(0.0, 1.0, 4)));
}

}  // namespace
}  // namespace adacheck::util

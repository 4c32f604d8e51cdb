#include "analytic/num_checkpoints.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "analytic/renewal_tmr.hpp"

// Counts every heap allocation in this test binary, so tests can pin
// that the m searches allocate nothing per candidate m.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The array forms too: sanitizer runtimes define their own, which would
// otherwise bypass the count.
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adacheck::analytic {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
long allocations_in(Body body) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

ScpRenewalParams scp_params(double interval, double lambda,
                            model::CheckpointCosts costs =
                                model::CheckpointCosts::paper_scp_flavor()) {
  ScpRenewalParams p;
  p.interval = interval;
  p.lambda = lambda;
  p.costs = costs;
  return p;
}

CcpRenewalParams ccp_params(double interval, double lambda,
                            model::CheckpointCosts costs =
                                model::CheckpointCosts::paper_ccp_flavor()) {
  CcpRenewalParams p;
  p.interval = interval;
  p.lambda = lambda;
  p.costs = costs;
  return p;
}

// The exactness grid: fault-free to 2e-2; T from 1 (m_max == 1) to 1e4
// (past the 4096 cap); both cost flavours in time units at f = 1 and 2.
const double kLambdas[] = {0.0, 1e-5, 1e-4, 5e-4, 1.4e-3, 5e-3, 2e-2};
const double kIntervals[] = {1.0,   2.0,   10.0,    30.0,    60.0,  125.0,
                             300.0, 800.0, 2'000.0, 5'000.0, 1e4};

std::vector<model::CheckpointCosts> cost_grid() {
  std::vector<model::CheckpointCosts> grid;
  for (const double f : {1.0, 2.0}) {
    for (const auto& c : {model::CheckpointCosts::paper_scp_flavor(),
                          model::CheckpointCosts::paper_ccp_flavor()}) {
      grid.push_back({c.store / f, c.compare / f, c.rollback / f});
    }
  }
  return grid;
}

/// Calls check(interval, lambda, costs) at every grid point and asserts
/// the grid reaches both ends of max_sub_intervals.
template <typename Check>
void for_each_grid_point(Check check) {
  bool single = false, capped = false;
  for (const auto& costs : cost_grid()) {
    for (const double interval : kIntervals) {
      const int m_max = max_sub_intervals(interval, costs);
      single |= m_max == 1;
      capped |= m_max == 4096;
      for (const double lambda : kLambdas) check(interval, lambda, costs);
    }
  }
  EXPECT_TRUE(single && capped);
}

TEST(MaxSubIntervals, BoundedByCheapestOperation) {
  // Sub-intervals shorter than the cheaper checkpoint op are useless.
  const auto costs = model::CheckpointCosts::paper_scp_flavor();  // min 2
  EXPECT_EQ(max_sub_intervals(100.0, costs), 50);
  EXPECT_EQ(max_sub_intervals(1.0, costs), 1);
  EXPECT_EQ(max_sub_intervals(8'190.0, costs), 4095);
  EXPECT_EQ(max_sub_intervals(1e9, costs), 4096);  // hard cap
  EXPECT_EQ(max_sub_intervals(1e300, costs), 4096);
}

TEST(MaxSubIntervals, ZeroCostOperationStaysInRange) {
  // A zero-cost store clamps the divisor to 1e-9, so T / cheapest lies
  // far beyond int range; the count must clamp to the cap, not wrap.
  const model::CheckpointCosts free_store{0.0, 20.0, 0.0};
  EXPECT_EQ(max_sub_intervals(2'000.0, free_store), 4096);
  EXPECT_EQ(max_sub_intervals(1e-12, free_store), 1);
  const model::CheckpointCosts free_compare{20.0, 0.0, 0.0};
  EXPECT_EQ(max_sub_intervals(1e6, free_compare), 4096);
}

TEST(NumScp, ZeroStoreCostStillSplits) {
  // Regression: the overflowing cast left m_max = 1 here, although
  // R1(200) ~ 1.25e4 against R1(1) ~ 4.4e7.
  const auto p = scp_params(2'000.0, 5e-3, {0.0, 20.0, 0.0});
  const int m = num_scp(p);
  EXPECT_GT(m, 1);
  EXPECT_LT(scp_expected_time(p, m), 1e-3 * scp_expected_time(p, 1));
  const auto c = ccp_params(2'000.0, 5e-3, {20.0, 0.0, 0.0});
  EXPECT_GT(num_ccp(c), 1);
}

TEST(NumScp, SingleIntervalWhenFaultFree) {
  // lambda = 0: any extra SCP is pure overhead.
  EXPECT_EQ(num_scp(scp_params(500.0, 0.0)), 1);
}

TEST(NumScp, SingleIntervalWhenShort) {
  // A short, low-risk interval cannot amortize an extra store.
  EXPECT_EQ(num_scp(scp_params(30.0, 1e-4)), 1);
}

TEST(NumScp, SplitsLongRiskyIntervals) {
  EXPECT_GT(num_scp(scp_params(2'000.0, 5e-3)), 1);
}

TEST(NumScp, EqualsExhaustiveScanOverGrid) {
  for_each_grid_point([](double interval, double lambda,
                         const model::CheckpointCosts& costs) {
    const auto p = scp_params(interval, lambda, costs);
    EXPECT_EQ(num_scp(p), num_scp_exhaustive(p))
        << "T=" << interval << " lambda=" << lambda << " t_s=" << costs.store
        << " t_cp=" << costs.compare;
  });
}

TEST(NumCcp, EqualsExhaustiveScanOverGrid) {
  for_each_grid_point([](double interval, double lambda,
                         const model::CheckpointCosts& costs) {
    const auto p = ccp_params(interval, lambda, costs);
    EXPECT_EQ(num_ccp(p), num_ccp_exhaustive(p))
        << "T=" << interval << " lambda=" << lambda << " t_s=" << costs.store
        << " t_cp=" << costs.compare;
  });
}

TEST(NumTmr, EqualsScanOverPublicExpectedTimes) {
  // The TMR searches reuse one scratch buffer across m; the reference
  // evaluates every m through the public, validating functions.
  for_each_grid_point([](double interval, double lambda,
                         const model::CheckpointCosts& costs) {
    const TmrRenewalParams p{interval, lambda, costs};
    const int m_max = max_sub_intervals(interval, costs);
    EXPECT_EQ(num_scp_tmr(p), argmin_sub_intervals(m_max, [&](int m) {
                return tmr_scp_expected_time(p, m);
              }))
        << "T=" << interval << " lambda=" << lambda;
    EXPECT_EQ(num_ccp_tmr(p), argmin_sub_intervals(m_max, [&](int m) {
                return tmr_ccp_expected_time(p, m);
              }))
        << "T=" << interval << " lambda=" << lambda;
  });
}

TEST(NumCheckpoints, SearchesDoNotAllocatePerCandidate) {
  // Long, risky intervals: every scan visits hundreds of m.
  const auto scp_costs = model::CheckpointCosts::paper_scp_flavor();
  const auto ccp_costs = model::CheckpointCosts::paper_ccp_flavor();
  const auto scp = scp_params(1e4, 2e-2, scp_costs);
  const auto ccp = ccp_params(1e4, 2e-2, ccp_costs);
  const TmrRenewalParams tmr{1e4, 2e-2, scp_costs};
  int sink = 0;
  EXPECT_EQ(allocations_in([&] { sink += num_scp(scp); }), 0);
  EXPECT_EQ(allocations_in([&] { sink += num_ccp(ccp); }), 0);
  EXPECT_EQ(allocations_in([&] { sink += num_ccp_tmr(tmr); }), 0);
  // One scratch buffer for the whole TMR SCP scan, not one per m.
  EXPECT_EQ(allocations_in([&] { sink += num_scp_tmr(tmr); }), 1);
  EXPECT_EQ(allocations_in([&] {
              sink += static_cast<int>(scp_expected_time(scp, 700));
            }),
            0);
  EXPECT_GT(sink, 0);
}

TEST(NumScp, Fig2WithinStatedToleranceOfExactOptimum) {
  // The paper's continuous-then-round procedure must land on (or within
  // 0.1% of) the exact integer optimum's cost.
  for (const auto& costs : cost_grid()) {
    for (double interval : {60.0, 125.0, 300.0, 800.0, 2'000.0}) {
      for (double lambda : {1e-4, 1.4e-3, 5e-3, 2e-2}) {
        const auto p = scp_params(interval, lambda, costs);
        const int fig2 = num_scp_fig2(p);
        const int exact = num_scp(p);
        EXPECT_LE(scp_expected_time(p, fig2),
                  scp_expected_time(p, exact) * 1.001)
            << "interval=" << interval << " lambda=" << lambda
            << " fig2 m=" << fig2 << " exact m=" << exact;
      }
    }
  }
}

TEST(NumCcp, Fig2WithinStatedToleranceOfExactOptimum) {
  for (const auto& costs : cost_grid()) {
    for (double interval : {60.0, 125.0, 300.0, 800.0, 2'000.0}) {
      for (double lambda : {1e-4, 1.4e-3, 5e-3, 2e-2}) {
        const auto p = ccp_params(interval, lambda, costs);
        EXPECT_LE(ccp_expected_time(p, num_ccp_fig2(p)),
                  ccp_expected_time(p, num_ccp(p)) * 1.001)
            << "interval=" << interval << " lambda=" << lambda;
      }
    }
  }
}

TEST(NumCcp, SingleIntervalWhenFaultFree) {
  EXPECT_EQ(num_ccp(ccp_params(500.0, 0.0)), 1);
}

TEST(NumCcp, SplitsLongRiskyIntervals) {
  EXPECT_GT(num_ccp(ccp_params(2'000.0, 5e-3)), 1);
}

TEST(NumScp, CheapStoresEncourageMoreScps) {
  // SCP flavor (t_s = 2) should tolerate more inner checkpoints than a
  // hypothetical expensive-store variant at the same risk.
  const auto cheap = scp_params(1'000.0, 5e-3);
  const auto expensive =
      scp_params(1'000.0, 5e-3, model::CheckpointCosts{40.0, 20.0, 0.0});
  EXPECT_GE(num_scp(cheap), num_scp(expensive));
}

TEST(NumCcp, CheapComparesEncourageMoreCcps) {
  const auto cheap = ccp_params(1'000.0, 5e-3);
  const auto expensive =
      ccp_params(1'000.0, 5e-3, model::CheckpointCosts{20.0, 40.0, 0.0});
  EXPECT_GE(num_ccp(cheap), num_ccp(expensive));
}

TEST(NumScp, OptimalCountGrowsWithRisk) {
  int prev = 0;
  for (double lambda : {1e-4, 1e-3, 5e-3, 2e-2}) {
    const int m = num_scp(scp_params(1'000.0, lambda));
    EXPECT_GE(m, prev) << "lambda=" << lambda;
    prev = m;
  }
  EXPECT_GT(prev, 1);
}

}  // namespace
}  // namespace adacheck::analytic

#include "model/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "model/fault_env.hpp"
#include "util/rng.hpp"

namespace adacheck::model {
namespace {

TEST(FaultModel, PairRateIsSystemRate) {
  // The paper's lambda is the duplex-system arrival rate (DESIGN.md §3).
  FaultModel m{1.4e-3, false};
  EXPECT_DOUBLE_EQ(m.pair_rate(), 1.4e-3);
  EXPECT_TRUE(m.valid());
  EXPECT_FALSE((FaultModel{-1.0, false}).valid());
}

TEST(FaultModel, AcceptsAnyReplicaCountFromTwo) {
  // Regression for the {2,3}-only restriction: fault environments must
  // compose with future N-modular redundancy, so any N >= 2 (up to the
  // 32-bit mask width) is a valid replica group.
  for (int n : {2, 3, 4, 5, 8, 16, 32}) {
    EXPECT_TRUE((FaultModel{1e-3, false, n}).valid()) << n;
  }
  EXPECT_FALSE((FaultModel{1e-3, false, 1}).valid());
  EXPECT_FALSE((FaultModel{1e-3, false, 0}).valid());
  EXPECT_FALSE((FaultModel{1e-3, false, -2}).valid());
  EXPECT_FALSE((FaultModel{1e-3, false, 33}).valid());
}

TEST(FaultTrace, RecordKeepsOrderAndRejectsBadInput) {
  FaultTrace trace;
  trace.record(1.0, 0);
  trace.record(2.5, 1);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_THROW(trace.record(2.0, 0), std::invalid_argument);   // regression
  EXPECT_THROW(trace.record(3.0, 32), std::invalid_argument);  // mask width
  EXPECT_THROW(trace.record(3.0, -2), std::invalid_argument);  // bad replica
  EXPECT_NO_THROW(trace.record(3.0, 2));   // TMR third replica is valid
  EXPECT_NO_THROW(trace.record(3.5, 7));   // NMR replicas are valid
  EXPECT_NO_THROW(trace.record(4.0, kAllReplicas));  // common-cause strike
}

TEST(FaultTrace, ConstructorValidatesSorting) {
  EXPECT_NO_THROW(FaultTrace({{1.0, 0}, {2.0, 1}}));
  EXPECT_THROW(FaultTrace({{2.0, 0}, {1.0, 1}}), std::invalid_argument);
}

TEST(FaultTrace, ConstructorValidatesReplicasLikeRecord) {
  // Every event passes the same range check as record(): no replica
  // index the engine's 32-bit fault masks cannot hold.
  EXPECT_THROW(FaultTrace({{100.0, 40}}), std::invalid_argument);
  EXPECT_THROW(FaultTrace({{1.0, 0}, {2.0, 32}}), std::invalid_argument);
  EXPECT_THROW(FaultTrace({{1.0, -2}}), std::invalid_argument);
  EXPECT_NO_THROW(FaultTrace({{1.0, 31}, {2.0, kAllReplicas}}));
  FaultTrace recorded;
  EXPECT_THROW(recorded.record(1.0, 40), std::invalid_argument);
}

TEST(FaultTrace, CountInWindow) {
  FaultTrace trace({{1.0, 0}, {2.0, 1}, {2.0, 0}, {5.0, 1}});
  EXPECT_EQ(trace.count_in(0.0, 10.0), 4u);
  EXPECT_EQ(trace.count_in(1.5, 2.5), 2u);
  EXPECT_EQ(trace.count_in(2.0, 5.0), 2u);  // half-open: [2, 5)
  EXPECT_EQ(trace.count_in(6.0, 9.0), 0u);
}

TEST(PoissonFaultSource, ArrivalRateMatchesLambda) {
  util::Xoshiro256 rng(99);
  const FaultModel model{0.01, false};
  PoissonFaultSource source(model, rng);
  int count = 0;
  double cursor = 0.0;
  int cpu = 0;
  for (;;) {
    const double t = source.next_fault_after(cursor, cpu);
    if (t >= 10'000.0) break;
    ++count;
    cursor = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  EXPECT_NEAR(count, 100, 30);  // lambda * horizon = 100
}

TEST(PoissonFaultSource, QueryIsIdempotentUntilConsumed) {
  util::Xoshiro256 rng(5);
  PoissonFaultSource source(FaultModel{0.1, false}, rng);
  int cpu1 = -1, cpu2 = -1;
  const double t1 = source.next_fault_after(0.0, cpu1);
  const double t2 = source.next_fault_after(0.0, cpu2);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_EQ(cpu1, cpu2);
}

TEST(PoissonFaultSource, AssignsBothProcessors) {
  util::Xoshiro256 rng(123);
  PoissonFaultSource source(FaultModel{1.0, false}, rng);
  int seen0 = 0, seen1 = 0;
  double cursor = 0.0;
  int cpu = 0;
  for (int i = 0; i < 1'000; ++i) {
    const double t = source.next_fault_after(cursor, cpu);
    (cpu == 0 ? seen0 : seen1)++;
    cursor = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  EXPECT_GT(seen0, 300);
  EXPECT_GT(seen1, 300);
}

TEST(PoissonFaultSource, ZeroRateNeverFires) {
  util::Xoshiro256 rng(5);
  PoissonFaultSource source(FaultModel{0.0, false}, rng);
  int cpu = 0;
  EXPECT_TRUE(std::isinf(source.next_fault_after(0.0, cpu)));
}

TEST(ReplayFaultSource, WalksTraceInOrder) {
  FaultTrace trace({{1.0, 0}, {3.0, 1}, {7.0, 0}});
  ReplayFaultSource source(trace);
  int cpu = -1;
  EXPECT_DOUBLE_EQ(source.next_fault_after(0.0, cpu), 1.0);
  EXPECT_EQ(cpu, 0);
  EXPECT_DOUBLE_EQ(source.next_fault_after(2.0, cpu), 3.0);
  EXPECT_EQ(cpu, 1);
  EXPECT_DOUBLE_EQ(source.next_fault_after(3.5, cpu), 7.0);
  EXPECT_TRUE(std::isinf(source.next_fault_after(8.0, cpu)));
}

TEST(ReplayFaultSource, EmptyTraceIsFaultFree) {
  FaultTrace trace;
  ReplayFaultSource source(trace);
  int cpu = 0;
  EXPECT_TRUE(std::isinf(source.next_fault_after(0.0, cpu)));
}

}  // namespace
}  // namespace adacheck::model

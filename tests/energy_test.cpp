#include "model/energy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace adacheck::model {
namespace {

TEST(EnergyMeter, AccumulatesVSquaredTimesCycles) {
  EnergyMeter m;
  const SpeedLevel low{1.0, 2.0};   // energy/cycle 4
  const SpeedLevel high{2.0, 3.0};  // energy/cycle 9
  m.charge(low, 100.0);
  m.charge(high, 10.0);
  EXPECT_DOUBLE_EQ(m.total(), 400.0 + 90.0);
  EXPECT_DOUBLE_EQ(m.total_cycles(), 110.0);
}

TEST(EnergyMeter, BreakdownByFrequency) {
  EnergyMeter m;
  const SpeedLevel low{1.0, 2.0};
  const SpeedLevel high{2.0, 3.0};
  m.charge(low, 50.0);
  m.charge(high, 25.0);
  m.charge(low, 10.0);
  EXPECT_DOUBLE_EQ(m.cycles_at(1.0), 60.0);
  EXPECT_DOUBLE_EQ(m.cycles_at(2.0), 25.0);
  EXPECT_DOUBLE_EQ(m.cycles_at(4.0), 0.0);
  EXPECT_EQ(m.breakdown().size(), 2u);
}

TEST(EnergyMeter, ZeroChargeIsNoOp) {
  EnergyMeter m;
  m.charge({1.0, 1.0}, 0.0);
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

TEST(EnergyMeter, RejectsNegativeCycles) {
  EnergyMeter m;
  EXPECT_THROW(m.charge({1.0, 1.0}, -1.0), std::invalid_argument);
}

TEST(EnergyMeter, SpillsBeyondInlineCapacity) {
  // More distinct frequencies than the inline slot array holds (6):
  // the spill path must keep per-frequency accounting exact.
  EnergyMeter m;
  const int levels = 10;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 1; i <= levels; ++i) {
      m.charge({static_cast<double>(i), 1.0}, 10.0 * i);
    }
  }
  for (int i = 1; i <= levels; ++i) {
    EXPECT_DOUBLE_EQ(m.cycles_at(i), 20.0 * i) << "frequency " << i;
  }
  EXPECT_DOUBLE_EQ(m.total_cycles(), 2.0 * 10.0 * (levels * (levels + 1) / 2));
  EXPECT_DOUBLE_EQ(m.cycles_above(8.0), 20.0 * (9 + 10));
  const auto breakdown = m.breakdown();
  ASSERT_EQ(breakdown.size(), static_cast<std::size_t>(levels));
  for (int i = 1; i <= levels; ++i) {  // sorted ascending, no duplicates
    EXPECT_DOUBLE_EQ(breakdown[static_cast<std::size_t>(i - 1)].first, i);
  }
  m.reset();
  EXPECT_TRUE(m.breakdown().empty());
  EXPECT_DOUBLE_EQ(m.cycles_at(7.0), 0.0);
}

TEST(EnergyMeter, IndexedChargingMatchesChargeBitForBit) {
  // Nine frequencies: six inline slots and three spill slots.  Awkward
  // voltages and cycle counts make any reordering of the additions,
  // or a V^2 computed differently, visible in the last bit.
  std::vector<SpeedLevel> levels;
  for (int i = 0; i < 9; ++i) {
    levels.push_back({1.0 + 0.1 * i, 1.7 + 0.37 * i});
  }
  EnergyMeter by_level;
  EnergyMeter by_slot;
  double total = 0.0;
  double total_cycles = 0.0;
  std::vector<double> per_level(levels.size(), 0.0);
  std::vector<std::size_t> slots(levels.size());
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const auto& level = levels[i];
      // The first pass charges zero cycles to every other level.
      const double cycles =
          pass == 0 && i % 2 == 1 ? 0.0 : (pass + 1) * 0.1 + i / 3.0;
      by_level.charge(level, cycles);
      slots[i] = by_slot.slot(level.frequency);
      by_slot.charge_slot(slots[i], level.voltage * level.voltage, cycles);
      total += level.voltage * level.voltage * cycles;
      total_cycles += cycles;
      per_level[i] += cycles;
    }
  }
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(slots[i], i);  // first-charge order; spill slots follow
    EXPECT_EQ(by_slot.slot(levels[i].frequency), i);  // stable
  }
  EXPECT_EQ(by_slot.total(), total);
  EXPECT_EQ(by_level.total(), total);
  EXPECT_EQ(by_slot.total_cycles(), total_cycles);
  EXPECT_EQ(by_level.total_cycles(), total_cycles);
  EXPECT_EQ(by_slot.breakdown(), by_level.breakdown());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(by_slot.cycles_at(levels[i].frequency), per_level[i]);
    EXPECT_EQ(by_level.cycles_at(levels[i].frequency), per_level[i]);
  }
  EXPECT_EQ(by_slot.cycles_above(1.25), by_level.cycles_above(1.25));
}

TEST(EnergyMeter, ZeroCycleChargeStoresAPositiveZeroSlot) {
  // A first charge of zero cycles creates the level's slot holding
  // exactly +0.0 cycles, whether charged by level or by slot.
  const SpeedLevel level{1.5, 2.5};
  EnergyMeter by_level;
  EnergyMeter by_slot;
  by_level.charge(level, 0.0);
  by_slot.charge_slot(by_slot.slot(level.frequency), 6.25, 0.0);
  for (const EnergyMeter* m : {&by_level, &by_slot}) {
    ASSERT_EQ(m->breakdown().size(), 1u);
    EXPECT_FALSE(std::signbit(m->breakdown()[0].second));
    EXPECT_EQ(m->total(), 0.0);
  }
}

TEST(EnergyMeter, ChargeStillRejectsNegativeCyclesUnchanged) {
  EnergyMeter m;
  m.charge({1.0, 2.0}, 5.0);
  EXPECT_THROW(m.charge({1.0, 2.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(m.charge({3.0, 2.0}, -1.0), std::invalid_argument);
  EXPECT_EQ(m.total(), 20.0);
  EXPECT_EQ(m.total_cycles(), 5.0);
  EXPECT_EQ(m.breakdown().size(), 1u);  // the rejected level got no slot
}

TEST(EnergyMeter, ResetClearsEverything) {
  EnergyMeter m;
  m.charge({1.0, 2.0}, 10.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_cycles(), 0.0);
  EXPECT_TRUE(m.breakdown().empty());
}

TEST(EnergyMeter, PaperCalibration) {
  // With the default voltage law (kappa = 4), a fault-free N = 7600
  // cycle run at f1 costs 30400 — the right magnitude for the paper's
  // ~39000 including checkpoint overhead and re-execution.
  VoltageLaw law;
  EnergyMeter m;
  m.charge({1.0, law.voltage_for(1.0)}, 7'600.0);
  EXPECT_DOUBLE_EQ(m.total(), 30'400.0);
}

}  // namespace
}  // namespace adacheck::model

// Energy accounting.
//
// The paper measures energy by "summing the product of the square of
// the voltage and the number of computation cycles over all the
// segments of the task".  EnergyMeter implements exactly that, keeping
// a per-speed breakdown so benches can report how much work ran at the
// high speed.  We account one processor of the DMR pair (both execute
// the same cycles; a doubled figure is a constant factor).
//
// The meter sits on the Monte-Carlo hot path (one per simulated run),
// so the per-frequency table lives in a fixed inline array — charging
// never touches the heap for processors with up to kInlineLevels speed
// levels; beyond that it spills to a vector.  The engine resolves a
// level's slot once per decision (slot()) and then charges by index
// (charge_slot()), with the same additions charge() makes.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "model/speed.hpp"

namespace adacheck::model {

class EnergyMeter {
 public:
  /// Charges `cycles` cycles executed at `level` (computation or
  /// checkpoint overhead alike — everything the CPU executes costs).
  void charge(const SpeedLevel& level, double cycles);

  /// Index of the slot holding `frequency`'s cycles, appending an
  /// empty slot if this frequency was never charged.  Indices are
  /// stable until reset().
  std::size_t slot(double frequency);
  /// charge(level, cycles), bit for bit, for the level whose slot() is
  /// `slot` and whose V^2 is `v2` (voltage * voltage).  No sign check:
  /// `cycles` must be >= 0.
  void charge_slot(std::size_t slot, double v2, double cycles) noexcept {
    total_ += v2 * cycles;
    total_cycles_ += cycles;
    auto& entry =
        slot < kInlineLevels ? slots_[slot] : spill_[slot - kInlineLevels];
    entry.cycles += cycles;
  }

  double total() const noexcept { return total_; }
  double cycles_at(double frequency) const noexcept;
  double total_cycles() const noexcept { return total_cycles_; }
  /// Cycles executed strictly above `frequency`; allocation-free, for
  /// hot-path aggregation of high-speed work.
  double cycles_above(double frequency) const noexcept;
  /// Per-frequency cycle breakdown, sorted ascending by frequency.
  /// Builds a fresh vector — reporting paths only.
  std::vector<std::pair<double, double>> breakdown() const;

  void reset() noexcept;

 private:
  struct Entry {
    double frequency = 0.0;
    /// A new slot starts at -0.0, the exact additive identity, so its
    /// first charge stores that charge's cycles bit for bit.
    double cycles = -0.0;
  };
  /// Covers every realistic DVS table (the paper uses two levels).
  static constexpr std::size_t kInlineLevels = 6;

  double total_ = 0.0;
  double total_cycles_ = 0.0;
  std::array<Entry, kInlineLevels> slots_{};
  std::size_t slot_count_ = 0;
  std::vector<Entry> spill_;  ///< only for > kInlineLevels frequencies
};

}  // namespace adacheck::model

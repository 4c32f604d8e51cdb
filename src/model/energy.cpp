#include "model/energy.hpp"

#include <algorithm>
#include <stdexcept>

namespace adacheck::model {

void EnergyMeter::charge(const SpeedLevel& level, double cycles) {
  if (cycles < 0.0) throw std::invalid_argument("EnergyMeter: negative cycles");
  charge_slot(slot(level.frequency), level.voltage * level.voltage, cycles);
}

std::size_t EnergyMeter::slot(double frequency) {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    if (slots_[i].frequency == frequency) return i;
  }
  if (slot_count_ < kInlineLevels) {
    slots_[slot_count_] = {frequency};
    return slot_count_++;
  }
  for (std::size_t i = 0; i < spill_.size(); ++i) {
    if (spill_[i].frequency == frequency) return kInlineLevels + i;
  }
  spill_.push_back({frequency});
  return kInlineLevels + spill_.size() - 1;
}

double EnergyMeter::cycles_at(double frequency) const noexcept {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    if (slots_[i].frequency == frequency) return slots_[i].cycles;
  }
  for (const auto& entry : spill_) {
    if (entry.frequency == frequency) return entry.cycles;
  }
  return 0.0;
}

double EnergyMeter::cycles_above(double frequency) const noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < slot_count_; ++i) {
    if (slots_[i].frequency > frequency) sum += slots_[i].cycles;
  }
  for (const auto& entry : spill_) {
    if (entry.frequency > frequency) sum += entry.cycles;
  }
  return sum;
}

std::vector<std::pair<double, double>> EnergyMeter::breakdown() const {
  std::vector<std::pair<double, double>> out;
  out.reserve(slot_count_ + spill_.size());
  for (std::size_t i = 0; i < slot_count_; ++i) {
    out.emplace_back(slots_[i].frequency, slots_[i].cycles);
  }
  for (const auto& entry : spill_) {
    out.emplace_back(entry.frequency, entry.cycles);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void EnergyMeter::reset() noexcept {
  total_ = 0.0;
  total_cycles_ = 0.0;
  slot_count_ = 0;
  spill_.clear();
}

}  // namespace adacheck::model

// The two fixed-interval baseline schemes the paper compares against.
//
// Both place only CSCPs at a constant interval computed once, run at a
// fixed processor speed, and never adapt — exactly the "Poisson" and
// "k-f-t" columns of Tables 1-4.
#pragma once

#include <cstddef>

#include "sim/policy.hpp"

namespace adacheck::policy {

/// Poisson-arrival scheme (Duda): constant interval I1 = sqrt(2C/lambda)
/// at the configured speed level, where C = (t_s + t_cp)/f.
class PoissonArrivalPolicy final : public sim::ICheckpointPolicy {
 public:
  /// `level` indexes the processor's speed table (0 = slowest).
  explicit PoissonArrivalPolicy(std::size_t level = 0) : level_(level) {}

  std::string name() const override { return "Poisson"; }
  bool reset() override {
    plan_ = {};
    return true;
  }
  sim::Decision initial(const sim::ExecContext& ctx) override;
  sim::Decision on_fault(const sim::ExecContext& ctx) override;
  sim::CommitRule commit_rule() const override {
    return sim::CommitRule::kKeep;
  }

 private:
  std::size_t level_;
  sim::Decision plan_{};
};

/// k-fault-tolerant scheme (Lee/Shin/Min): constant interval
/// I2 = sqrt(N*C/k) sized from the whole task's worst case.
class KFaultTolerantPolicy final : public sim::ICheckpointPolicy {
 public:
  explicit KFaultTolerantPolicy(std::size_t level = 0) : level_(level) {}

  std::string name() const override { return "k-f-t"; }
  bool reset() override {
    plan_ = {};
    return true;
  }
  sim::Decision initial(const sim::ExecContext& ctx) override;
  sim::Decision on_fault(const sim::ExecContext& ctx) override;
  sim::CommitRule commit_rule() const override {
    return sim::CommitRule::kKeep;
  }

 private:
  std::size_t level_;
  sim::Decision plan_{};
};

}  // namespace adacheck::policy

// The adaptive checkpointing schemes: the paper's contribution and the
// DATE'03 baseline it extends.
//
// One configurable implementation covers all five pseudocode variants:
//
//   scheme            figure   DVS   inner checkpoints
//   ADT_DVS (A_D)     [3]      yes   none
//   adapchp-SCP       Fig. 3   no    SCPs
//   adapchp-CCP       §2.2     no    CCPs
//   adapchp_dvs_SCP   Fig. 6   yes   SCPs   <- "A_D_S"
//   adapchp_dvs_CCP   Fig. 7   yes   CCPs   <- "A_D_C"
//
// Decision recipe (the figures' lines 1-4 / 13-17):
//   1. speed: with DVS, the slowest level whose fault-aware estimate
//      t_est fits the remaining deadline, else the fastest (Fig. 6
//      line 2/15); without DVS, a fixed level.
//   2. abort when remaining work at the chosen speed cannot fit the
//      remaining deadline (Fig. 6 line 6).
//   3. outer interval Itv from procedure interval() (Fig. 4), clamped
//      to the remaining work.
//   4. inner count m from num_SCP/num_CCP (Fig. 2) on the renewal
//      model, sub-interval itv = Itv/m.
// Recomputed at start and after every detected fault; optionally also
// at every committed CSCP (ablation knob, off in the paper).
//
// Step 4 is memoised per instance.  A run re-plans after every fault,
// mostly at a speed, interval and rate some earlier decision already
// searched, so each instance remembers its last four m searches
// (round-robin replacement).  The key is the exact bit pattern of every
// search input: itv, the planning lambda, the time costs store/f,
// compare/f and rollback/f, and the voting flag (redundancy >= 3).  The
// value is the unclamped m, so max_inner still applies on a hit.  The
// search is a pure function of that key, so a hit returns what
// num_SCP/num_CCP would and no result byte changes.  The sweep keeps one
// instance per chunk (reset() between runs), so the table needs no lock;
// reset() keeps it, because an entry from an earlier run, or another
// setup, is still the right answer for its key.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/policy.hpp"

namespace adacheck::policy {

struct AdaptiveConfig {
  sim::InnerKind inner = sim::InnerKind::kNone;
  bool use_dvs = true;          ///< false: pin to `fixed_level`
  std::size_t fixed_level = 0;  ///< used when use_dvs is false
  bool recompute_at_commit = false;  ///< ablation: also re-plan per CSCP
  /// Cap on the inner count so degenerate renewal minima cannot flood
  /// an interval with checkpoints (paper's optimum is small anyway).
  int max_inner = 4096;
  /// Online inter-fault-gap rate tracking: instead of trusting the
  /// environment's nominal lambda for the whole run, blend it with the
  /// realized detection rate via a Gamma-posterior mean
  ///   lambda_hat = (k0 + detections) / (k0 / lambda0 + exposure)
  /// (k0 = estimator_prior_strength pseudo-faults at the nominal
  /// rate; exposure is the vulnerable-time clock lambda is defined
  /// on).  Early in a run lambda_hat ~ lambda0; as observed gaps
  /// accumulate the estimate follows the realized rate, which is what
  /// lets the adaptive rule track bursty / non-Poisson environments.
  /// Off by default: the paper's schemes (and their bit-identical
  /// statistics) trust the nominal rate.
  bool estimate_rate = false;
  double estimator_prior_strength = 4.0;  ///< k0, in pseudo-faults
};

class AdaptiveCheckpointPolicy final : public sim::ICheckpointPolicy {
 public:
  explicit AdaptiveCheckpointPolicy(AdaptiveConfig config);

  std::string name() const override { return name_; }
  /// All per-run state lives in the ExecContext; instances are reusable.
  /// The m-search memo is kept (see the file comment).
  bool reset() override { return true; }
  sim::Decision initial(const sim::ExecContext& ctx) override;
  sim::Decision on_fault(const sim::ExecContext& ctx) override;
  std::optional<sim::Decision> on_commit(const sim::ExecContext& ctx) override;
  /// kDeadlineGuard, or kCustom under recompute_at_commit.
  sim::CommitRule commit_rule() const override {
    return config_.recompute_at_commit ? sim::CommitRule::kCustom
                                       : sim::CommitRule::kDeadlineGuard;
  }

  const AdaptiveConfig& config() const noexcept { return config_; }

  /// Factory helpers with the paper's scheme names.
  static AdaptiveConfig adt_dvs();          ///< A_D (DATE'03 baseline)
  static AdaptiveConfig adapchp_scp();      ///< Fig. 3, fixed speed
  static AdaptiveConfig adapchp_ccp();      ///< §2.2, fixed speed
  static AdaptiveConfig adapchp_dvs_scp();  ///< A_D_S (Fig. 6)
  static AdaptiveConfig adapchp_dvs_ccp();  ///< A_D_C (Fig. 7)
  /// Rate-tracking variant of any config ("-est" scheme-name suffix).
  static AdaptiveConfig with_estimator(AdaptiveConfig config);

  /// The rate the policy plans with: ctx.lambda, or the Gamma-posterior
  /// blend of nominal rate and observed detections when estimate_rate
  /// is set (exposed for tests).
  double planning_lambda(const sim::ExecContext& ctx) const;

 private:
  /// Inputs of one m search as exact bit patterns: itv, the planning
  /// lambda, then the store/compare/rollback time costs.
  struct MSearchKey {
    std::array<std::uint64_t, 5> bits{};
    bool voting = false;  ///< searched the vote-aware (TMR) model
    friend bool operator==(const MSearchKey&,
                           const MSearchKey&) = default;
  };
  struct MSearch {
    MSearchKey key;
    int m = 0;  ///< unclamped search result; 0 marks an empty entry
  };

  sim::Decision decide(const sim::ExecContext& ctx);
  /// m for sub-interval planning: a remembered search, else a fresh
  /// num_{scp,ccp}[_tmr] search that replaces the oldest entry.
  int inner_count(double itv, double lambda,
                  const model::CheckpointCosts& time_costs, bool voting);

  AdaptiveConfig config_;
  std::string name_;
  std::array<MSearch, 4> recent_{};
  std::size_t next_slot_ = 0;  ///< round-robin replacement cursor
};

}  // namespace adacheck::policy

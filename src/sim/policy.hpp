// Policy interface between the DMR execution engine and the
// checkpointing schemes.
//
// The engine owns the mechanics (fault sampling, detection points,
// rollback targets, time/energy accounting); a policy owns the
// decisions the paper's pseudocode makes: the processor speed, the
// outer CSCP interval length Itv, the inner checkpoint kind and
// sub-interval length itv, and the early-abort call.  Policies are
// consulted at the three points where the paper's procedures act:
// before the first interval (line 1-4), after every fault detection
// (the else branch), and after every committed CSCP (where the
// pseudocode only updates Rt/Rd, so most policies keep their plan).
//
// What happens after a committed CSCP is usually known for the whole
// run, so a policy states it once as data (commit_rule()): keep the
// plan, or check the figures' deadline guard, which the engine then
// evaluates inline without a hook call.  Only kCustom policies are
// asked through on_commit.
//
// The engine asks its model::FaultSource each query once: a query's
// answer is used where it was asked for and never fetched again,
// because a source need not answer a repeated query the same way.  A
// concrete stochastic source may be asked fewer queries (a clean
// SCP/CCP attempt asks one for all its sub-windows), because it
// answers a query at or before its pending arrival with that arrival.
#pragma once

#include <optional>
#include <string>

#include "model/checkpoint.hpp"
#include "model/speed.hpp"
#include "model/task.hpp"

namespace adacheck::sim {

/// Inner-checkpoint flavor between consecutive CSCPs.
enum class InnerKind {
  kNone,  ///< plain CSCP scheme (baselines, A_D)
  kScp,   ///< additional store-checkpoints (paper §2.1)
  kCcp,   ///< additional compare-checkpoints (paper §2.2)
};

const char* to_string(InnerKind kind) noexcept;

/// One checkpointing plan, valid until the next decision point.
/// Lengths are wall-clock time units at `speed`.
struct Decision {
  model::SpeedLevel speed{};
  double cscp_interval = 0.0;  ///< Itv: distance between CSCPs.
  double sub_interval = 0.0;   ///< itv: distance between inner checkpoints
                               ///< (== cscp_interval when inner == kNone).
  InnerKind inner = InnerKind::kNone;
  bool abort = false;  ///< break with task failure (Fig. 6 line 6).
};

/// Execution snapshot a policy sees at a decision point.  All times are
/// absolute wall-clock; work is in cycles (speed-independent).
struct ExecContext {
  const model::TaskSpec* task = nullptr;
  /// Cycle units; valid (the engine validates them with the setup), so
  /// policies plan with them unchecked.
  const model::CheckpointCosts* costs = nullptr;
  const model::DvsProcessor* processor = nullptr;
  /// System-level fault rate (per exposure time): the environment's
  /// long-run effective rate — exact for exponential arrivals, the
  /// documented approximation for renewal/bursty environments
  /// (policies wanting to track the realized rate online can blend in
  /// faults_detected / exposure, see
  /// policy::AdaptiveConfig::estimate_rate).
  double lambda = 0.0;
  double remaining_cycles = 0.0; ///< R_c: committed work still to do.
  double now = 0.0;              ///< elapsed wall-clock time.
  /// Cumulative vulnerable time: the clock lambda is defined on
  /// (computation only, unless faults_during_overhead).
  double exposure = 0.0;
  int remaining_faults = 0;      ///< R_f: fault budget left.
  int faults_detected = 0;       ///< detections + corrections so far.
  int redundancy = 2;            ///< replicas: 2 (DMR), 3 (TMR), N (NMR).

  /// R_d: time left before the deadline.
  double remaining_deadline() const noexcept {
    return task->deadline - now;
  }
};

/// What the engine does after a committed CSCP that leaves work to do,
/// read once per run from ICheckpointPolicy::commit_rule().
enum class CommitRule {
  kCustom,         ///< call on_commit and follow its answer
  kKeep,           ///< keep the standing plan; on_commit is a no-op
  kDeadlineGuard,  ///< keep it unless deadline_guard_fires, then abort
                   ///< with deadline_guard_abort
};

/// The while-loop guard of Figs. 3/6/7, checked after every committed
/// CSCP: true when the remaining work R_c cannot fit the remaining
/// deadline R_d even at the fastest speed, so the run breaks with
/// failure.  The one home of the test, for the engine and the policies.
inline bool deadline_guard_fires(double remaining_cycles,
                                 double remaining_deadline,
                                 const model::DvsProcessor& processor) {
  return remaining_cycles / processor.fastest().frequency >
         remaining_deadline;
}

/// The plan a firing deadline guard returns: abort, at the fastest level.
inline Decision deadline_guard_abort(const model::DvsProcessor& processor) {
  Decision d;
  d.speed = processor.fastest();
  d.abort = true;
  return d;
}

class ICheckpointPolicy {
 public:
  virtual ~ICheckpointPolicy() = default;

  virtual std::string name() const = 0;

  /// Re-arms the policy for a fresh, independent run, as if newly
  /// constructed.  Returns false when the policy cannot guarantee that;
  /// the Monte-Carlo loop then falls back to constructing a new
  /// instance per run from its PolicyFactory.  Overriding this keeps
  /// the hot path allocation-free: one instance serves a whole chunk
  /// of runs.
  virtual bool reset() { return false; }

  /// Called once before execution begins.
  virtual Decision initial(const ExecContext& ctx) = 0;

  /// Called after every fault detection + rollback (context reflects
  /// the rolled-back state).  Adaptive schemes recompute speed and
  /// intervals here; fixed schemes return their standing plan.
  virtual Decision on_fault(const ExecContext& ctx) = 0;

  /// Called after every committed CSCP that leaves work to do, when
  /// commit_rule() is kCustom.  Return a new plan to replace the
  /// current one, or nullopt to keep it (the default — the paper's
  /// procedures only recompute on faults).
  virtual std::optional<Decision> on_commit(const ExecContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }

  /// How the engine treats a committed CSCP, read once per run.
  /// kCustom, the default, calls on_commit as documented above.  A
  /// policy may return kKeep only if its on_commit always returns
  /// nullopt, and kDeadlineGuard only if its on_commit is exactly
  /// deadline_guard_fires / deadline_guard_abort on the context; the
  /// engine then skips the call, and the context refresh it needs, and
  /// gets the same run.
  virtual CommitRule commit_rule() const { return CommitRule::kCustom; }
};

}  // namespace adacheck::sim

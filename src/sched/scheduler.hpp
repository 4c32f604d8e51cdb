// Scheduler-policy registry for the graph executive.
//
// Dispatch order is a pluggable policy resolved by name, the same
// factory-by-name shape as the fault-environment and checkpoint-policy
// registries.  A policy is a pure priority function: given a dispatch
// candidate and the current time it returns a key, and the executive
// dispatches the lowest key first.  Ties are always broken by
// admission sequence — a deterministic total order — so every policy
// yields the same schedule at any thread count, and the default "edf"
// on a periodic task set is non-preemptive EDF.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace adacheck::sched {

/// One dispatchable job as a policy sees it: a graph node's job, with
/// instance/remaining_path from the DAG (the graph instance number, or
/// an own-period node's job number; the inclusive downstream
/// critical-path cycles, just the node's cycles when it has no
/// successors).
struct DispatchCandidate {
  std::size_t node = 0;       ///< graph-node index
  int instance = 0;           ///< graph instance / own-period job number
  double release = 0.0;       ///< release time of the job (or its instance)
  double ready_time = 0.0;    ///< when it became dispatchable
  double absolute_deadline = 0.0;
  /// Remaining work bound in cycles at f1 = 1 (== time units at base
  /// speed): the node's inclusive downstream critical path.
  double remaining_path = 0.0;
  /// Admission order — the universal deterministic tie-break.
  std::uint64_t sequence = 0;
};

/// A dispatch policy: lower priority_key dispatches first; the
/// executive breaks key ties by DispatchCandidate::sequence.
/// Implementations must be pure functions of (candidate, now).
class ISchedulerPolicy {
 public:
  virtual ~ISchedulerPolicy() = default;

  /// Registry name ("edf", "fifo", ...).
  virtual std::string_view name() const = 0;
  virtual double priority_key(const DispatchCandidate& candidate,
                              double now) const = 0;
};

/// Registry entry for `adacheck list schedulers`.
struct SchedulerInfo {
  std::string name;
  std::string description;
};

/// Every registered policy, in stable listing order.
const std::vector<SchedulerInfo>& known_scheduler_info();

/// Registry names in listing order (for validation messages).
std::vector<std::string> known_schedulers();

bool is_known_scheduler(std::string_view name);

/// Builds a policy by registry name; throws std::invalid_argument
/// (listing the known names) on an unknown one.
std::unique_ptr<ISchedulerPolicy> make_scheduler(const std::string& name);

}  // namespace adacheck::sched

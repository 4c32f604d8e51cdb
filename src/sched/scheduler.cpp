#include "sched/scheduler.hpp"

#include <stdexcept>

namespace adacheck::sched {

namespace {

/// Earliest absolute deadline first.  With sequence tie-break this is
/// (deadline, release, node index) order, since admission follows
/// (release, node index).
class EdfPolicy final : public ISchedulerPolicy {
 public:
  std::string_view name() const override { return "edf"; }
  double priority_key(const DispatchCandidate& candidate,
                      double /*now*/) const override {
    return candidate.absolute_deadline;
  }
};

/// First dispatchable first: ready_time order (graph nodes become
/// ready when their last predecessor completes, not at release).
class FifoPolicy final : public ISchedulerPolicy {
 public:
  std::string_view name() const override { return "fifo"; }
  double priority_key(const DispatchCandidate& candidate,
                      double /*now*/) const override {
    return candidate.ready_time;
  }
};

/// Longest inclusive downstream critical path first — the classic DAG
/// heuristic: nodes gating the most remaining work go first.
class CriticalPathPolicy final : public ISchedulerPolicy {
 public:
  std::string_view name() const override { return "critical-path"; }
  double priority_key(const DispatchCandidate& candidate,
                      double /*now*/) const override {
    return -candidate.remaining_path;
  }
};

/// Least laxity first: slack to the absolute deadline minus the
/// remaining-path work bound (cycles at f1 = time at base speed).
class LeastLaxityPolicy final : public ISchedulerPolicy {
 public:
  std::string_view name() const override { return "least-laxity"; }
  double priority_key(const DispatchCandidate& candidate,
                      double now) const override {
    return (candidate.absolute_deadline - now) - candidate.remaining_path;
  }
};

}  // namespace

const std::vector<SchedulerInfo>& known_scheduler_info() {
  static const std::vector<SchedulerInfo>* const info =
      new std::vector<SchedulerInfo>{
          {"edf",
           "earliest absolute deadline first (non-preemptive; the default)"},
          {"fifo", "first ready first (precedence-aware arrival order)"},
          {"critical-path",
           "longest inclusive downstream critical path first"},
          {"least-laxity",
           "smallest deadline slack minus remaining-path work first"},
      };
  return *info;
}

std::vector<std::string> known_schedulers() {
  std::vector<std::string> names;
  names.reserve(known_scheduler_info().size());
  for (const auto& info : known_scheduler_info()) names.push_back(info.name);
  return names;
}

bool is_known_scheduler(std::string_view name) {
  for (const auto& info : known_scheduler_info()) {
    if (info.name == name) return true;
  }
  return false;
}

std::unique_ptr<ISchedulerPolicy> make_scheduler(const std::string& name) {
  if (name == "edf") return std::make_unique<EdfPolicy>();
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "critical-path") return std::make_unique<CriticalPathPolicy>();
  if (name == "least-laxity") return std::make_unique<LeastLaxityPolicy>();
  std::string message = "make_scheduler: unknown scheduler \"" + name +
                        "\"; known schedulers:";
  for (const auto& known : known_scheduler_info()) {
    message += " " + known.name;
  }
  throw std::invalid_argument(message);
}

}  // namespace adacheck::sched

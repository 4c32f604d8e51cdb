#include "sched/graph_executive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace adacheck::sched {

void GraphExecutiveConfig::validate() const {
  if (instances <= 0) {
    throw std::invalid_argument(
        "GraphExecutiveConfig: instances must be > 0");
  }
  if (workers < 1) {
    throw std::invalid_argument("GraphExecutiveConfig: workers must be >= 1");
  }
  if (!is_known_scheduler(scheduler)) {
    throw std::invalid_argument(
        "GraphExecutiveConfig: unknown scheduler \"" + scheduler + "\"");
  }
  costs.validate();
  environment.validate();
  if (!fault_model.valid()) {
    throw std::invalid_argument("GraphExecutiveConfig: invalid fault model");
  }
  if (speed_ratio <= 1.0) {
    throw std::invalid_argument("GraphExecutiveConfig: speed_ratio <= 1");
  }
}

double GraphScheduleResult::instance_miss_ratio() const {
  if (instances_released == 0) return 0.0;
  return static_cast<double>(instances_missed) /
         static_cast<double>(instances_released);
}

namespace {

/// Telemetry handles, resolved once; gated on Registry::enabled().
struct SchedMetrics {
  obs::Counter& released;
  obs::Counter& completed;
  obs::Counter& missed;
  obs::LatencyHisto& response;

  static SchedMetrics& get() {
    static SchedMetrics* const metrics = new SchedMetrics{
        obs::Registry::instance().counter("sched.jobs_released"),
        obs::Registry::instance().counter("sched.jobs_completed"),
        obs::Registry::instance().counter("sched.jobs_missed"),
        obs::Registry::instance().histogram("sched.job_response_us")};
    return *metrics;
  }
};

/// kAbsent: not a member of the instance (an own-period node in a
/// whole-graph instance, or any other node in a one-node instance).
enum class NodeState {
  kAbsent, kWaiting, kReady, kBlocked, kRunning, kDone, kSkipped
};

struct InstanceState {
  double release = 0.0;
  double absolute_deadline = 0.0;
  std::vector<int> deps_left;
  std::vector<NodeState> state;
  int nodes = 0;  ///< member count
  int nodes_done = 0;
  bool abandoned = false;
};

/// One release: a whole-graph instance (rank == kWholeGraph) or one
/// job of an own-period node.  Its index in the sorted release list is
/// the instance's slot.
struct Release {
  static constexpr std::size_t kWholeGraph = 0;  ///< rank ahead of nodes
  double time = 0.0;
  std::size_t rank = kWholeGraph;  ///< kWholeGraph, or node index + 1
  int index = 0;                   ///< graph instance / node job number
};

struct NodeJob : DispatchCandidate {
  std::size_t slot = 0;  ///< owning instance's release-list index
};

struct BlockedJob {
  NodeJob job;
  int worker = 0;
  double dispatch = 0.0;
};

struct RunningJob {
  NodeJob job;
  int worker = 0;
  double dispatch = 0.0;
  double acquire = 0.0;
  double finish = 0.0;
  sim::RunResult run;
};

std::uint64_t micros(double t) {
  return static_cast<std::uint64_t>(std::max(t, 0.0) * 1e6);
}

}  // namespace

GraphScheduleResult run_graph_executive(const TaskGraph& graph,
                                        const GraphExecutiveConfig& config) {
  graph.validate();
  config.validate();

  const std::size_t node_count = graph.nodes.size();
  const double e2e = graph.end_to_end_deadline();
  const auto paths = graph.downstream_path_cycles();
  const auto processor =
      model::DvsProcessor::two_speed(config.speed_ratio, config.voltage);
  const auto scheduler = make_scheduler(config.scheduler);
  const bool telemetry = obs::Registry::instance().enabled();
  const bool tracing = config.trace && obs::Tracer::instance().enabled();

  std::vector<int> indegree(node_count, 0);
  std::vector<std::vector<std::size_t>> successors(node_count);
  for (const auto& edge : graph.edges) {
    successors[edge.from].push_back(edge.to);
    ++indegree[edge.to];
  }

  // Every release in the window [0, instances * period), sorted by
  // (time, rank): the admission order, so sequence numbers and with
  // them every policy tie-break follow it.
  const double window = static_cast<double>(config.instances) * graph.period;
  std::vector<Release> releases;
  // Sized for the whole-graph releases up front: regrowing it in every
  // run measurably slows multi-threaded graph sweeps.
  releases.reserve(static_cast<std::size_t>(config.instances));
  if (std::any_of(graph.nodes.begin(), graph.nodes.end(),
                  [](const GraphNode& node) { return !node.own_period(); })) {
    for (int k = 0; k < config.instances; ++k) {
      releases.push_back(
          {static_cast<double>(k) * graph.period, Release::kWholeGraph, k});
    }
  }
  for (std::size_t n = 0; n < node_count; ++n) {
    const auto& node = graph.nodes[n];
    if (!node.own_period()) continue;
    for (int j = 0;; ++j) {
      const double time = node.phase + static_cast<double>(j) * node.period;
      if (time >= window) break;
      releases.push_back({time, n + 1, j});
    }
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.rank < b.rank;
            });

  GraphScheduleResult result;
  result.per_node.resize(node_count);

  std::vector<InstanceState> instances(releases.size());
  std::vector<bool> worker_busy(static_cast<std::size_t>(config.workers),
                                false);
  int free_workers = config.workers;
  std::vector<int> available(graph.resources.size());
  for (std::size_t r = 0; r < graph.resources.size(); ++r) {
    available[r] = graph.resources[r].capacity;
  }

  std::vector<NodeJob> ready;
  std::vector<BlockedJob> blocked;
  std::vector<RunningJob> running;
  std::vector<RunningJob> finished;  // complete_finished's scratch
  // One checkpoint policy per node, re-armed before each of its jobs:
  // reset() makes it act as newly constructed, and the adaptive
  // schemes keep their m-search memo across the node's jobs.
  std::vector<std::unique_ptr<sim::ICheckpointPolicy>> node_policies(
      node_count);
  std::uint64_t sequence = 0;
  std::size_t next_release = 0;
  double now = 0.0;

  const auto policy_order = [&](const DispatchCandidate& a,
                                const DispatchCandidate& b) {
    const double ka = scheduler->priority_key(a, now);
    const double kb = scheduler->priority_key(b, now);
    if (ka != kb) return ka < kb;
    return a.sequence < b.sequence;
  };

  const auto can_acquire = [&](std::size_t node) {
    for (const std::size_t r : graph.nodes[node].resources) {
      if (available[r] < 1) return false;
    }
    return true;
  };
  const auto acquire = [&](std::size_t node) {
    for (const std::size_t r : graph.nodes[node].resources) --available[r];
  };
  const auto release_resources = [&](std::size_t node) {
    for (const std::size_t r : graph.nodes[node].resources) ++available[r];
  };

  const auto skip_node = [&](const NodeJob& job) {
    auto& inst = instances[job.slot];
    inst.state[job.node] = NodeState::kSkipped;
    ++result.per_node[job.node].skipped;
    ++result.per_node[job.node].missed;
    if (telemetry) SchedMetrics::get().missed.add(1);
  };

  // Late or failed node: the instance cannot meet its end-to-end
  // deadline, so every node not yet done or running is skipped —
  // blocked ones free their workers, ready ones are dropped from the
  // queue.  Running nodes finish normally (non-preemptive lanes).
  const auto abandon_instance = [&](std::size_t slot) {
    auto& inst = instances[slot];
    if (inst.abandoned) return;
    inst.abandoned = true;
    ++result.instances_missed;
    for (std::size_t n = 0; n < node_count; ++n) {
      if (inst.state[n] == NodeState::kWaiting ||
          inst.state[n] == NodeState::kReady) {
        NodeJob job;
        job.node = n;
        job.slot = slot;
        skip_node(job);
      }
    }
    ready.erase(std::remove_if(ready.begin(), ready.end(),
                               [&](const NodeJob& job) {
                                 return job.slot == slot;
                               }),
                ready.end());
    for (auto it = blocked.begin(); it != blocked.end();) {
      if (it->job.slot == slot) {
        skip_node(it->job);
        worker_busy[static_cast<std::size_t>(it->worker)] = false;
        ++free_workers;
        it = blocked.erase(it);
      } else {
        ++it;
      }
    }
  };

  // Runs the node's paper-model job the moment it holds its resources.
  const auto execute = [&](const NodeJob& job, int worker, double dispatch,
                           double acquire_time) {
    const auto& node = graph.nodes[job.node];
    instances[job.slot].state[job.node] = NodeState::kRunning;
    const double blocking = acquire_time - dispatch;
    result.per_node[job.node].blocking_time.add(blocking);
    result.total_blocking += blocking;
    if (tracing && blocking > 0.0) {
      obs::Tracer::instance().complete("blocked:" + node.name, "dag",
                                       micros(dispatch), micros(blocking),
                                       worker);
    }

    const double slack = job.absolute_deadline - acquire_time;
    sim::SimSetup setup{
        model::TaskSpec{node.cycles, std::max(slack, 1e-9), 0.0,
                        node.fault_tolerance, node.name},
        config.costs, processor, config.fault_model, config.environment};
    auto& checkpoint_policy = node_policies[job.node];
    if (!checkpoint_policy || !checkpoint_policy->reset()) {
      checkpoint_policy = policy::make_policy(node.policy);
    }
    const std::uint64_t seed = util::derive_seed(
        config.seed,
        static_cast<std::uint64_t>(job.instance) * node_count + job.node);
    RunningJob entry;
    entry.job = job;
    entry.worker = worker;
    entry.dispatch = dispatch;
    entry.acquire = acquire_time;
    entry.run = sim::simulate_seeded(setup, *checkpoint_policy, seed);
    entry.finish = acquire_time + entry.run.finish_time;
    running.push_back(std::move(entry));
  };

  // Blocked-node acquisition retries then ready-queue dispatch, both
  // in policy order; the pinned scheduling point after completions and
  // releases at each event time.
  const auto start_work = [&] {
    std::sort(blocked.begin(), blocked.end(),
              [&](const BlockedJob& a, const BlockedJob& b) {
                return policy_order(a.job, b.job);
              });
    for (auto it = blocked.begin(); it != blocked.end();) {
      const double slack = it->job.absolute_deadline - now;
      if (config.skip_late_jobs && slack <= 0.0) {
        skip_node(it->job);
        worker_busy[static_cast<std::size_t>(it->worker)] = false;
        ++free_workers;
        const std::size_t slot = it->job.slot;
        blocked.erase(it);
        // abandon_instance erases this instance's remaining blocked
        // entries itself; restart (erase kept the policy order).
        abandon_instance(slot);
        it = blocked.begin();
        continue;
      }
      if (can_acquire(it->job.node)) {
        acquire(it->job.node);
        const BlockedJob entry = *it;
        it = blocked.erase(it);
        execute(entry.job, entry.worker, entry.dispatch, now);
        continue;
      }
      ++it;
    }

    while (free_workers > 0 && !ready.empty()) {
      const auto best =
          std::min_element(ready.begin(), ready.end(), policy_order);
      const NodeJob job = *best;
      ready.erase(best);
      const double slack = job.absolute_deadline - now;
      if (config.skip_late_jobs && slack <= 0.0) {
        skip_node(job);
        abandon_instance(job.slot);
        continue;
      }
      int worker = 0;
      while (worker_busy[static_cast<std::size_t>(worker)]) ++worker;
      worker_busy[static_cast<std::size_t>(worker)] = true;
      --free_workers;
      if (can_acquire(job.node)) {
        acquire(job.node);
        execute(job, worker, now, now);
      } else {
        // Mark kBlocked so abandon_instance's waiting/ready sweep does
        // not also count it — the blocked list is its single owner.
        instances[job.slot].state[job.node] = NodeState::kBlocked;
        blocked.push_back({job, worker, now});
      }
    }
  };

  // A whole-graph release admits every graph-period node and queues
  // the roots; an own-period release admits its one node.
  const auto admit_releases = [&] {
    while (next_release < releases.size() &&
           releases[next_release].time <= now) {
      const Release& release = releases[next_release];
      const bool whole = release.rank == Release::kWholeGraph;
      auto& inst = instances[next_release];
      inst.release = release.time;
      inst.absolute_deadline =
          inst.release +
          (whole ? e2e : graph.nodes[release.rank - 1].relative_deadline());
      if (whole) inst.deps_left = indegree;
      inst.state.assign(node_count, NodeState::kAbsent);
      ++result.instances_released;
      for (std::size_t n = 0; n < node_count; ++n) {
        if (whole ? graph.nodes[n].own_period() : n + 1 != release.rank) {
          continue;
        }
        ++inst.nodes;
        ++result.per_node[n].released;
        if (telemetry) SchedMetrics::get().released.add(1);
        inst.state[n] = NodeState::kWaiting;
        if (indegree[n] == 0) {
          NodeJob job;
          job.node = n;
          job.instance = release.index;
          job.slot = next_release;
          job.release = inst.release;
          job.ready_time = inst.release;
          job.absolute_deadline = inst.absolute_deadline;
          job.remaining_path = paths[n];
          job.sequence = sequence++;
          inst.state[n] = NodeState::kReady;
          ready.push_back(job);
        }
      }
      ++next_release;
    }
  };

  // Completions at exactly `now`, in worker-index order (the only
  // deterministic order available once finishes tie).
  const auto complete_finished = [&] {
    finished.clear();
    for (auto it = running.begin(); it != running.end();) {
      if (it->finish <= now) {
        finished.push_back(std::move(*it));
        it = running.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(finished.begin(), finished.end(),
              [](const RunningJob& a, const RunningJob& b) {
                return a.worker < b.worker;
              });
    for (const auto& entry : finished) {
      const NodeJob& job = entry.job;
      auto& inst = instances[job.slot];
      auto& stats = result.per_node[job.node];
      worker_busy[static_cast<std::size_t>(entry.worker)] = false;
      ++free_workers;
      release_resources(job.node);
      inst.state[job.node] = NodeState::kDone;

      stats.energy += entry.run.energy;
      result.total_energy += entry.run.energy;
      result.busy_time += entry.run.finish_time;
      result.total_faults += entry.run.faults;
      result.total_rollbacks += entry.run.rollbacks;
      result.total_corrections += entry.run.corrections;
      result.makespan = std::max(result.makespan, entry.finish);
      if (tracing) {
        obs::Tracer::instance().complete(
            graph.nodes[job.node].name + "#" + std::to_string(job.instance),
            "dag", micros(entry.acquire), micros(entry.run.finish_time),
            entry.worker);
      }

      if (entry.run.completed()) {
        ++stats.completed;
        const double response = entry.finish - inst.release;
        stats.response_time.add(response);
        if (telemetry) {
          SchedMetrics::get().completed.add(1);
          SchedMetrics::get().response.record(micros(response));
        }
        if (!inst.abandoned) {
          ++inst.nodes_done;
          for (const std::size_t next : successors[job.node]) {
            if (--inst.deps_left[next] == 0 &&
                inst.state[next] == NodeState::kWaiting) {
              NodeJob child;
              child.node = next;
              child.instance = job.instance;
              child.slot = job.slot;
              child.release = inst.release;
              child.ready_time = now;
              child.absolute_deadline = inst.absolute_deadline;
              child.remaining_path = paths[next];
              child.sequence = sequence++;
              inst.state[next] = NodeState::kReady;
              ready.push_back(child);
            }
          }
          if (inst.nodes_done == inst.nodes) {
            ++result.instances_completed;
            result.end_to_end.add(entry.finish - inst.release);
          }
        }
      } else {
        ++stats.missed;
        if (telemetry) SchedMetrics::get().missed.add(1);
        abandon_instance(job.slot);
      }
    }
  };

  for (;;) {
    admit_releases();
    start_work();

    double next_event = std::numeric_limits<double>::infinity();
    for (const auto& entry : running) {
      next_event = std::min(next_event, entry.finish);
    }
    if (next_release < releases.size()) {
      next_event = std::min(next_event, releases[next_release].time);
    }
    if (!std::isfinite(next_event)) break;
    now = std::max(now, next_event);
    complete_finished();
  }

  return result;
}

}  // namespace adacheck::sched

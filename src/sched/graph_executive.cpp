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

/// One release's instance; its per-node deps_left and state live in
/// the executive's release x node tables, row `slot`.
struct InstanceState {
  double release = 0.0;
  double absolute_deadline = 0.0;
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

/// A worker lane's running job (a lane runs at most one).
struct RunningJob {
  bool active = false;
  NodeJob job;
  double dispatch = 0.0;
  double acquire = 0.0;
  double finish = 0.0;
  sim::RunResult run;
};

std::uint64_t micros(double t) {
  return static_cast<std::uint64_t>(std::max(t, 0.0) * 1e6);
}

const TaskGraph& validated(const TaskGraph& graph,
                           const GraphExecutiveConfig& config) {
  graph.validate();
  config.validate();
  return graph;
}

}  // namespace

class GraphExecutive::Impl {
 public:
  Impl(const TaskGraph& graph, const GraphExecutiveConfig& config);

  const GraphScheduleResult& run(std::uint64_t seed, bool trace);
  const sim::SimSetup& setup() const { return setup_; }

 private:
  NodeState& state(std::size_t slot, std::size_t node) {
    return state_[slot * node_count_ + node];
  }
  int& deps_left(std::size_t slot, std::size_t node) {
    return deps_left_[slot * node_count_ + node];
  }

  bool policy_order(const DispatchCandidate& a,
                    const DispatchCandidate& b) const;
  bool can_acquire(std::size_t node) const;
  void acquire(std::size_t node);
  void release_resources(std::size_t node);
  void free_worker(int worker);
  void skip_node(std::size_t slot, std::size_t node);
  void abandon_instance(std::size_t slot);
  void execute(const NodeJob& job, int worker, double dispatch,
               double acquire_time);
  void start_work();
  void admit_releases();
  void complete_finished();

  // Prepared once: the graph, its derived tables and release list, the
  // scheduler, the bound job setup and one policy per node.
  const TaskGraph graph_;
  const std::size_t node_count_;
  const int workers_;
  const bool skip_late_jobs_;
  const double e2e_;
  const std::vector<double> paths_;
  std::vector<int> indegree_;
  std::vector<std::vector<std::size_t>> successors_;
  std::vector<Release> releases_;
  const std::unique_ptr<ISchedulerPolicy> scheduler_;
  /// Only the task (cycles, slack deadline, k, name) changes per job.
  sim::SimSetup setup_;
  // One checkpoint policy per node, re-armed before each of its jobs:
  // reset() makes it act as newly constructed, and the adaptive
  // schemes keep their m-search memo across the node's jobs.
  std::vector<std::unique_ptr<sim::ICheckpointPolicy>> node_policies_;

  // Working state, sized here and reset by every run().
  std::vector<InstanceState> instances_;  ///< per release slot
  std::vector<int> deps_left_;            ///< release slot x node
  std::vector<NodeState> state_;          ///< release slot x node
  std::vector<char> worker_busy_;
  std::vector<int> available_;
  std::vector<NodeJob> ready_;
  std::vector<BlockedJob> blocked_;
  std::vector<RunningJob> running_;  ///< per worker lane
  GraphScheduleResult result_;
  std::uint64_t seed_ = 0;
  bool telemetry_ = false;
  bool tracing_ = false;
  int free_workers_ = 0;
  std::uint64_t sequence_ = 0;
  std::size_t next_release_ = 0;
  double now_ = 0.0;
};

GraphExecutive::Impl::Impl(const TaskGraph& graph,
                           const GraphExecutiveConfig& config)
    : graph_(validated(graph, config)),
      node_count_(graph_.nodes.size()),
      workers_(config.workers),
      skip_late_jobs_(config.skip_late_jobs),
      e2e_(graph_.end_to_end_deadline()),
      paths_(graph_.downstream_path_cycles()),
      indegree_(node_count_, 0),
      successors_(node_count_),
      scheduler_(make_scheduler(config.scheduler)),
      setup_(model::TaskSpec{}, config.costs,
             model::DvsProcessor::two_speed(config.speed_ratio,
                                            config.voltage),
             config.fault_model, config.environment),
      node_policies_(node_count_) {
  for (const auto& edge : graph_.edges) {
    successors_[edge.from].push_back(edge.to);
    ++indegree_[edge.to];
  }
  for (std::size_t n = 0; n < node_count_; ++n) {
    try {
      node_policies_[n] = policy::make_policy(graph_.nodes[n].policy);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("GraphExecutive: node \"" +
                                  graph_.nodes[n].name + "\": " + e.what());
    }
  }

  // Every release in the window [0, instances * period), sorted by
  // (time, rank): the admission order, so sequence numbers and with
  // them every policy tie-break follow it.
  // node_jobs counts the node jobs of the window: the ready list's bound.
  const double window = static_cast<double>(config.instances) * graph_.period;
  const auto graph_nodes = static_cast<std::size_t>(
      std::count_if(graph_.nodes.begin(), graph_.nodes.end(),
                    [](const GraphNode& node) { return !node.own_period(); }));
  std::size_t node_jobs = 0;
  if (graph_nodes > 0) {
    for (int k = 0; k < config.instances; ++k) {
      releases_.push_back(
          {static_cast<double>(k) * graph_.period, Release::kWholeGraph, k});
      node_jobs += graph_nodes;
    }
  }
  for (std::size_t n = 0; n < node_count_; ++n) {
    const auto& node = graph_.nodes[n];
    if (!node.own_period()) continue;
    for (int j = 0;; ++j) {
      const double time = node.phase + static_cast<double>(j) * node.period;
      if (time >= window) break;
      releases_.push_back({time, n + 1, j});
      ++node_jobs;
    }
  }
  std::sort(releases_.begin(), releases_.end(),
            [](const Release& a, const Release& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.rank < b.rank;
            });

  // Every buffer at its bound, so no run() regrows one: the ready
  // list holds at most every node job, the blocked list at most one
  // job per worker.
  const auto lanes = static_cast<std::size_t>(workers_);
  instances_.resize(releases_.size());
  deps_left_.resize(releases_.size() * node_count_);
  state_.resize(releases_.size() * node_count_);
  worker_busy_.resize(lanes);
  available_.resize(graph_.resources.size());
  ready_.reserve(node_jobs);
  blocked_.reserve(lanes);
  running_.resize(lanes);
  result_.per_node.resize(node_count_);
}

bool GraphExecutive::Impl::policy_order(const DispatchCandidate& a,
                                        const DispatchCandidate& b) const {
  const double ka = scheduler_->priority_key(a, now_);
  const double kb = scheduler_->priority_key(b, now_);
  if (ka != kb) return ka < kb;
  return a.sequence < b.sequence;
}

bool GraphExecutive::Impl::can_acquire(std::size_t node) const {
  for (const std::size_t r : graph_.nodes[node].resources) {
    if (available_[r] < 1) return false;
  }
  return true;
}

void GraphExecutive::Impl::acquire(std::size_t node) {
  for (const std::size_t r : graph_.nodes[node].resources) --available_[r];
}

void GraphExecutive::Impl::release_resources(std::size_t node) {
  for (const std::size_t r : graph_.nodes[node].resources) ++available_[r];
}

void GraphExecutive::Impl::free_worker(int worker) {
  worker_busy_[static_cast<std::size_t>(worker)] = 0;
  ++free_workers_;
}

void GraphExecutive::Impl::skip_node(std::size_t slot, std::size_t node) {
  state(slot, node) = NodeState::kSkipped;
  ++result_.per_node[node].skipped;
  ++result_.per_node[node].missed;
  if (telemetry_) SchedMetrics::get().missed.add(1);
}

// Late or failed node: the instance cannot meet its end-to-end
// deadline, so every node not yet done or running is skipped — blocked
// ones free their workers, ready ones are dropped from the queue.
// Running nodes finish normally (non-preemptive lanes).
void GraphExecutive::Impl::abandon_instance(std::size_t slot) {
  auto& inst = instances_[slot];
  if (inst.abandoned) return;
  inst.abandoned = true;
  ++result_.instances_missed;
  for (std::size_t n = 0; n < node_count_; ++n) {
    if (state(slot, n) == NodeState::kWaiting ||
        state(slot, n) == NodeState::kReady) {
      skip_node(slot, n);
    }
  }
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [&](const NodeJob& job) {
                                return job.slot == slot;
                              }),
               ready_.end());
  for (auto it = blocked_.begin(); it != blocked_.end();) {
    if (it->job.slot == slot) {
      skip_node(slot, it->job.node);
      free_worker(it->worker);
      it = blocked_.erase(it);
    } else {
      ++it;
    }
  }
}

// Runs the node's paper-model job the moment it holds its resources.
void GraphExecutive::Impl::execute(const NodeJob& job, int worker,
                                   double dispatch, double acquire_time) {
  const auto& node = graph_.nodes[job.node];
  state(job.slot, job.node) = NodeState::kRunning;
  const double blocking = acquire_time - dispatch;
  result_.per_node[job.node].blocking_time.add(blocking);
  result_.total_blocking += blocking;
  if (tracing_ && blocking > 0.0) {
    obs::Tracer::instance().complete("blocked:" + node.name, "dag",
                                     micros(dispatch), micros(blocking),
                                     worker);
  }

  const double slack = job.absolute_deadline - acquire_time;
  auto& task = setup_.task;
  task.cycles = node.cycles;
  task.deadline = std::max(slack, 1e-9);
  task.fault_tolerance = node.fault_tolerance;
  task.name = node.name;
  auto& checkpoint_policy = node_policies_[job.node];
  if (!checkpoint_policy->reset()) {
    checkpoint_policy = policy::make_policy(node.policy);
  }
  const std::uint64_t seed = util::derive_seed(
      seed_,
      static_cast<std::uint64_t>(job.instance) * node_count_ + job.node);
  auto& entry = running_[static_cast<std::size_t>(worker)];
  entry.active = true;
  entry.job = job;
  entry.dispatch = dispatch;
  entry.acquire = acquire_time;
  // The graph, the config and with them every field of the setup were
  // validated at construction; the slack deadline is kept positive.
  entry.run =
      sim::simulate_seeded_unchecked(setup_, *checkpoint_policy, seed, {});
  entry.finish = acquire_time + entry.run.finish_time;
}

// Blocked-node acquisition retries then ready-queue dispatch, both in
// policy order; the pinned scheduling point after completions and
// releases at each event time.
void GraphExecutive::Impl::start_work() {
  std::sort(blocked_.begin(), blocked_.end(),
            [this](const BlockedJob& a, const BlockedJob& b) {
              return policy_order(a.job, b.job);
            });
  for (auto it = blocked_.begin(); it != blocked_.end();) {
    const double slack = it->job.absolute_deadline - now_;
    if (skip_late_jobs_ && slack <= 0.0) {
      skip_node(it->job.slot, it->job.node);
      free_worker(it->worker);
      const std::size_t slot = it->job.slot;
      blocked_.erase(it);
      // abandon_instance erases this instance's remaining blocked
      // entries itself; restart (erase kept the policy order).
      abandon_instance(slot);
      it = blocked_.begin();
      continue;
    }
    if (can_acquire(it->job.node)) {
      acquire(it->job.node);
      const BlockedJob entry = *it;
      it = blocked_.erase(it);
      execute(entry.job, entry.worker, entry.dispatch, now_);
      continue;
    }
    ++it;
  }

  while (free_workers_ > 0 && !ready_.empty()) {
    const auto best = std::min_element(
        ready_.begin(), ready_.end(),
        [this](const NodeJob& a, const NodeJob& b) {
          return policy_order(a, b);
        });
    const NodeJob job = *best;
    ready_.erase(best);
    const double slack = job.absolute_deadline - now_;
    if (skip_late_jobs_ && slack <= 0.0) {
      skip_node(job.slot, job.node);
      abandon_instance(job.slot);
      continue;
    }
    int worker = 0;
    while (worker_busy_[static_cast<std::size_t>(worker)]) ++worker;
    worker_busy_[static_cast<std::size_t>(worker)] = 1;
    --free_workers_;
    if (can_acquire(job.node)) {
      acquire(job.node);
      execute(job, worker, now_, now_);
    } else {
      // Mark kBlocked so abandon_instance's waiting/ready sweep does
      // not also count it — the blocked list is its single owner.
      state(job.slot, job.node) = NodeState::kBlocked;
      blocked_.push_back({job, worker, now_});
    }
  }
}

// A whole-graph release admits every graph-period node and queues the
// roots; an own-period release admits its one node.  Admission resets
// the slot's instance state left by the previous run.
void GraphExecutive::Impl::admit_releases() {
  while (next_release_ < releases_.size() &&
         releases_[next_release_].time <= now_) {
    const std::size_t slot = next_release_;
    const Release& release = releases_[slot];
    const bool whole = release.rank == Release::kWholeGraph;
    auto& inst = instances_[slot];
    inst = InstanceState{};
    inst.release = release.time;
    inst.absolute_deadline =
        inst.release +
        (whole ? e2e_ : graph_.nodes[release.rank - 1].relative_deadline());
    if (whole) {
      std::copy(indegree_.begin(), indegree_.end(), &deps_left(slot, 0));
    }
    std::fill_n(&state(slot, 0), node_count_, NodeState::kAbsent);
    ++result_.instances_released;
    for (std::size_t n = 0; n < node_count_; ++n) {
      if (whole ? graph_.nodes[n].own_period() : n + 1 != release.rank) {
        continue;
      }
      ++inst.nodes;
      ++result_.per_node[n].released;
      if (telemetry_) SchedMetrics::get().released.add(1);
      state(slot, n) = NodeState::kWaiting;
      if (indegree_[n] == 0) {
        NodeJob job;
        job.node = n;
        job.instance = release.index;
        job.slot = slot;
        job.release = inst.release;
        job.ready_time = inst.release;
        job.absolute_deadline = inst.absolute_deadline;
        job.remaining_path = paths_[n];
        job.sequence = sequence_++;
        state(slot, n) = NodeState::kReady;
        ready_.push_back(job);
      }
    }
    ++next_release_;
  }
}

// Completions at exactly `now`, in worker-index order (the only
// deterministic order available once finishes tie).  Completing a job
// starts none, so the set finishing at `now` is fixed up front.
void GraphExecutive::Impl::complete_finished() {
  for (std::size_t lane = 0; lane < running_.size(); ++lane) {
    auto& entry = running_[lane];
    if (!entry.active || entry.finish > now_) continue;
    entry.active = false;
    const int worker = static_cast<int>(lane);
    const NodeJob& job = entry.job;
    auto& inst = instances_[job.slot];
    auto& stats = result_.per_node[job.node];
    free_worker(worker);
    release_resources(job.node);
    state(job.slot, job.node) = NodeState::kDone;

    stats.energy += entry.run.energy;
    result_.total_energy += entry.run.energy;
    result_.busy_time += entry.run.finish_time;
    result_.total_faults += entry.run.faults;
    result_.total_rollbacks += entry.run.rollbacks;
    result_.total_corrections += entry.run.corrections;
    result_.makespan = std::max(result_.makespan, entry.finish);
    if (tracing_) {
      obs::Tracer::instance().complete(
          graph_.nodes[job.node].name + "#" + std::to_string(job.instance),
          "dag", micros(entry.acquire), micros(entry.run.finish_time),
          worker);
    }

    if (entry.run.completed()) {
      ++stats.completed;
      const double response = entry.finish - inst.release;
      stats.response_time.add(response);
      if (telemetry_) {
        SchedMetrics::get().completed.add(1);
        SchedMetrics::get().response.record(micros(response));
      }
      if (!inst.abandoned) {
        ++inst.nodes_done;
        for (const std::size_t next : successors_[job.node]) {
          if (--deps_left(job.slot, next) == 0 &&
              state(job.slot, next) == NodeState::kWaiting) {
            NodeJob child;
            child.node = next;
            child.instance = job.instance;
            child.slot = job.slot;
            child.release = inst.release;
            child.ready_time = now_;
            child.absolute_deadline = inst.absolute_deadline;
            child.remaining_path = paths_[next];
            child.sequence = sequence_++;
            state(job.slot, next) = NodeState::kReady;
            ready_.push_back(child);
          }
        }
        if (inst.nodes_done == inst.nodes) {
          ++result_.instances_completed;
          result_.end_to_end.add(entry.finish - inst.release);
        }
      }
    } else {
      ++stats.missed;
      if (telemetry_) SchedMetrics::get().missed.add(1);
      abandon_instance(job.slot);
    }
  }
}

const GraphScheduleResult& GraphExecutive::Impl::run(std::uint64_t seed,
                                                     bool trace) {
  seed_ = seed;
  telemetry_ = obs::Registry::instance().enabled();
  tracing_ = trace && obs::Tracer::instance().enabled();

  // Back to the state of a fresh executive; no buffer shrinks.
  auto per_node = std::move(result_.per_node);
  std::fill(per_node.begin(), per_node.end(), GraphNodeStats{});
  result_ = GraphScheduleResult{};
  result_.per_node = std::move(per_node);
  std::fill(worker_busy_.begin(), worker_busy_.end(), 0);
  free_workers_ = workers_;
  for (std::size_t r = 0; r < available_.size(); ++r) {
    available_[r] = graph_.resources[r].capacity;
  }
  ready_.clear();
  blocked_.clear();
  for (auto& entry : running_) entry.active = false;
  sequence_ = 0;
  next_release_ = 0;
  now_ = 0.0;

  for (;;) {
    admit_releases();
    start_work();

    double next_event = std::numeric_limits<double>::infinity();
    for (const auto& entry : running_) {
      if (entry.active) next_event = std::min(next_event, entry.finish);
    }
    if (next_release_ < releases_.size()) {
      next_event = std::min(next_event, releases_[next_release_].time);
    }
    if (!std::isfinite(next_event)) break;
    now_ = std::max(now_, next_event);
    complete_finished();
  }

  return result_;
}

GraphExecutive::GraphExecutive(const TaskGraph& graph,
                               const GraphExecutiveConfig& config)
    : impl_(std::make_unique<Impl>(graph, config)) {}

GraphExecutive::~GraphExecutive() = default;

const GraphScheduleResult& GraphExecutive::run(std::uint64_t seed,
                                               bool trace) {
  return impl_->run(seed, trace);
}

const sim::SimSetup& GraphExecutive::setup() const { return impl_->setup(); }

GraphScheduleResult run_graph_executive(const TaskGraph& graph,
                                        const GraphExecutiveConfig& config) {
  return GraphExecutive(graph, config).run(config.seed, config.trace);
}

}  // namespace adacheck::sched

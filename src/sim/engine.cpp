#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/rng.hpp"

namespace adacheck::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

int popcount(unsigned mask) noexcept { return std::popcount(mask); }

/// One checkpoint operation at a bound speed.
struct Overhead {
  double cycles = 0.0;
  double time = 0.0;  ///< cycles / f
};

/// A decision's speed level as the engine charges it, bound once when
/// the decision first executes: the meter slot, V^2, and each
/// checkpoint operation's duration at this frequency.
struct BoundSpeed {
  double frequency = 0.0;
  double v2 = 0.0;       ///< energy per cycle, voltage * voltage
  std::size_t slot = 0;  ///< EnergyMeter::slot(frequency)
  Overhead store;        ///< t_s
  Overhead compare;      ///< t_cp
  Overhead cscp;         ///< t_s + t_cp
  Overhead rollback;     ///< t_r
};

BoundSpeed bind_speed(const model::SpeedLevel& level,
                      const model::CheckpointCosts& costs,
                      model::EnergyMeter& meter) {
  const double f = level.frequency;
  const auto op = [f](double cycles) { return Overhead{cycles, cycles / f}; };
  return {f, level.voltage * level.voltage, meter.slot(f), op(costs.store),
          op(costs.compare), op(costs.cscp()), op(costs.rollback)};
}

[[noreturn]] void reject_replica(int processor, int processors) {
  throw std::invalid_argument(
      "engine: fault source named replica " + std::to_string(processor) +
      " of a " + std::to_string(processors) + "-replica group");
}

/// Mutable run state shared by the helpers below, specialised on the
/// fault source type so concrete sources are sampled without a virtual
/// call.
template <typename Source>
struct EngineState {
  const SimSetup* setup = nullptr;
  const EngineConfig* config = nullptr;
  Source* faults = nullptr;
  RunResult* result = nullptr;

  double committed = 0.0;   ///< cycles banked at consistent checkpoints
  double now = 0.0;         ///< wall-clock time
  double exposure = 0.0;    ///< cumulative vulnerable time
  int remaining_faults = 0; ///< R_f
  unsigned carry_mask = 0;  ///< replicas corrupted by trailing overhead ops
  double last_frequency = 0.0;
  std::size_t steps = 0;

  int redundancy() const noexcept { return setup->fault_model.processors; }

  double remaining_cycles() const noexcept {
    return setup->task.cycles - committed;
  }

  void trace(TraceEventKind kind, double value = 0.0, int aux = 0) {
    if (config->record_trace) result->trace.push(kind, now, value, aux);
  }

  void bump_steps() {
    if (++steps > config->max_steps) {
      throw std::runtime_error(
          "engine: step limit exceeded (degenerate checkpoint plan?)");
    }
  }

  /// One fault-source answer: the next fault at or after a cursor.
  struct FaultQuery {
    double time = kInf;  ///< exposure coordinate; +inf for none
    int processor = 0;
  };

  /// Asks the source once.  Each answer is used where it was asked
  /// for: sources need not answer a repeated query the same way.
  FaultQuery next_fault(double from_exposure) {
    FaultQuery q;
    q.time = faults->next_fault_after(from_exposure, q.processor);
    return q;
  }

  /// Collects faults on the exposure window [exposure, exposure+span)
  /// and returns the bitmask of replicas struck.  `first` is the
  /// source's answer for the window start; later queries continue just
  /// past each fault.  A common-cause arrival (processor ==
  /// model::kAllReplicas) strikes every replica.
  unsigned collect_faults(double span, FaultQuery first) {
    unsigned mask = 0;
    const double window_end = exposure + span;
    for (FaultQuery q = first; q.time < window_end;
         q = next_fault(std::nextafter(q.time, kInf))) {
      const int processor = q.processor;
      if constexpr (std::is_same_v<Source, model::FaultSource>) {
        // Stochastic sources draw below(processors); a replayed or
        // external source may name a replica the group does not have.
        if (processor != model::kAllReplicas &&
            (processor < 0 || processor >= redundancy())) {
          reject_replica(processor, redundancy());
        }
      }
      ++result->faults;
      if (config->record_trace) {
        // Both wall-clock time and the exposure coordinate (for replay).
        result->trace.push(TraceEventKind::kFault, now + (q.time - exposure),
                           q.time, processor);
      }
      // ~0u >> (32 - n) rather than (1u << n) - 1: n may be the full
      // mask width (kMaxProcessors == 32), where the left shift is UB.
      mask |= processor == model::kAllReplicas
                  ? ~0u >> (32 - redundancy())
                  : 1u << processor;
    }
    exposure = window_end;
    return mask;
  }

  /// Executes a computation window of `duration` time at `speed`,
  /// starting from `first`, the source's answer for its start.
  /// Returns the replica-fault mask for the window.
  unsigned run_computation(const BoundSpeed& speed, double duration,
                           int sub_index, FaultQuery first) {
    const unsigned mask = collect_faults(duration, first);
    now += duration;
    const double cycles = duration * speed.frequency;
    result->meter.charge_slot(speed.slot, speed.v2, cycles);
    trace(TraceEventKind::kSegment, cycles, sub_index);
    return mask;
  }

  /// Executes a checkpoint/vote/rollback operation `op` at `speed`.
  /// Faults strike during the operation only when
  /// faults_during_overhead is set.
  unsigned run_overhead(const BoundSpeed& speed, const Overhead& op) {
    if (op.cycles <= 0.0) return 0;
    unsigned mask = 0;
    if (setup->fault_model.faults_during_overhead) {
      mask = collect_faults(op.time, next_fault(exposure));
    }
    now += op.time;
    result->meter.charge_slot(speed.slot, speed.v2, op.cycles);
    return mask;
  }
};

/// Corruption bookkeeping for one interval attempt: which replicas have
/// faulted since the last consistency point, in which sub-interval the
/// first fault landed, and in which sub-interval the healthy majority
/// was first lost (the voting rollback boundary — SCPs up to there
/// still hold a recoverable majority).  For N replicas the majority is
/// lost once ceil(N/2) distinct replicas are corrupted (2-of-3 for the
/// paper's TMR).
struct AttemptCorruption {
  unsigned mask = 0;
  int majority_count = 2;  ///< corrupted-replica count that kills majority
  int first_sub = 0;       ///< 0 = clean
  int majority_sub = 0;    ///< 0 = majority still holds

  void note(unsigned new_mask, int sub) {
    if (new_mask == 0) return;
    if (first_sub == 0) first_sub = sub;
    const unsigned merged = mask | new_mask;
    if (majority_sub == 0 && popcount(merged) >= majority_count) {
      majority_sub = sub;
    }
    mask = merged;
  }
  void clear() { *this = AttemptCorruption{.majority_count = majority_count}; }
  bool corrupted() const noexcept { return mask != 0; }
};

/// Result of executing one CSCP-interval attempt.
enum class AttemptOutcome {
  kCommitted,       ///< interval committed cleanly
  kCommittedVoted,  ///< committed after a majority-vote correction (TMR)
  kFaultDetected,   ///< rolled back; policy must re-plan
};

/// Executes one outer interval under `decision`.
///
/// DMR (2 replicas): any comparison that sees corruption triggers a
/// rollback — to the last good SCP (SCP mode) or the interval start
/// (CCP/None mode).
/// NMR (N >= 3 replicas, the paper's TMR generalized): a comparison
/// seeing a corrupted strict minority majority-votes it back to health
/// (cost t_r, no work lost); once a majority cannot be formed the
/// comparison forces a rollback, to the last SCP that still has a
/// healthy majority (SCP mode) or to the interval start (CCP/None
/// mode).
template <typename Source>
AttemptOutcome execute_interval(EngineState<Source>& st,
                                const Decision& decision,
                                const BoundSpeed& speed) {
  const double f = speed.frequency;
  const int n_rep = st.redundancy();
  const bool voting = n_rep >= 3;

  // Clamp the plan to the remaining work.  Interval lengths are wall
  // clock at the current speed; work is cycles.
  const double remaining_time = st.remaining_cycles() / f;
  const double itv_outer = std::min(decision.cscp_interval, remaining_time);
  double itv_sub = decision.inner == InnerKind::kNone
                       ? itv_outer
                       : std::min(decision.sub_interval, itv_outer);
  if (!(itv_outer > 0.0) || !(itv_sub > 0.0)) {
    throw std::invalid_argument("engine: non-positive checkpoint interval");
  }
  // The first window's step and fault query, shared by both paths.
  st.bump_steps();
  auto query = st.next_fault(st.exposure);

  // Clean-attempt branch: a plain CSCP interval with nothing carried
  // in, untraced, whose one window has no fault, commits here with the
  // general path's floating-point operations in the same order (its
  // window is itv_outer, and no fault can strike the CSCP).  Any other
  // attempt continues below from the answer already fetched.
  const double window_end = st.exposure + itv_outer;
  if (decision.inner == InnerKind::kNone && st.carry_mask == 0 &&
      !st.config->record_trace &&
      !st.setup->fault_model.faults_during_overhead &&
      !(query.time < window_end)) {
    st.exposure = window_end;
    st.now += itv_outer;
    st.result->meter.charge_slot(speed.slot, speed.v2, itv_outer * f);
    st.run_overhead(speed, speed.cscp);  // no overhead faults: no query
    ++st.result->checkpoints_cscp;
    st.committed += itv_outer * f;
    return AttemptOutcome::kCommitted;
  }

  // Number of sub-intervals, preserving the planned sub length (the
  // paper inserts checkpoints by length); the last one may be shorter.
  const double n_real = itv_outer / itv_sub;
  const int n_subs = std::max(1, static_cast<int>(std::ceil(n_real - 1e-9)));

  // Corruption carried over from a trailing overhead fault of the
  // previous interval poisons the attempt from its start.
  AttemptCorruption corrupt;
  // ceil(N/2) corrupted replicas leave no healthy strict majority.
  corrupt.majority_count = (n_rep + 1) / 2;
  corrupt.note(st.carry_mask, 1);
  st.carry_mask = 0;

  // A comparison seeing a corrupted strict minority can vote it back.
  const auto votable = [&] {
    return voting && popcount(corrupt.mask) * 2 < n_rep;
  };
  const auto vote_correct = [&](unsigned op_mask, int next_sub) {
    ++st.result->corrections;
    --st.remaining_faults;
    st.trace(TraceEventKind::kCorrection, 0.0,
             static_cast<int>(corrupt.mask));
    const unsigned repair_mask = st.run_overhead(speed, speed.rollback);
    corrupt.clear();
    corrupt.note(op_mask | repair_mask, next_sub);
  };

  bool voted_this_interval = false;

  for (int i = 1; i <= n_subs; ++i) {
    if (i > 1) {
      st.bump_steps();
      query = st.next_fault(st.exposure);
    }
    const double w =
        i < n_subs ? itv_sub
                   : itv_outer - static_cast<double>(n_subs - 1) * itv_sub;
    corrupt.note(st.run_computation(speed, w, i, query), i);

    const bool is_last = i == n_subs;
    if (!is_last) {
      switch (decision.inner) {
        case InnerKind::kScp: {
          // Store all replica states; no comparison, so no detection.
          // A fault during the store corrupts the stored snapshot:
          // attribute it to this sub-interval so rollback lands before.
          const unsigned op_mask = st.run_overhead(speed, speed.store);
          ++st.result->checkpoints_scp;
          st.trace(TraceEventKind::kCheckpoint, speed.store.cycles, 0);
          corrupt.note(op_mask, i);
          break;
        }
        case InnerKind::kCcp: {
          // Compare the running states: sees any corruption so far.
          const unsigned op_mask = st.run_overhead(speed, speed.compare);
          ++st.result->checkpoints_ccp;
          st.trace(TraceEventKind::kCheckpoint, speed.compare.cycles, 1);
          if (corrupt.corrupted()) {
            if (votable()) {
              // NMR: the healthy majority repairs the deviant minority;
              // execution continues with no work lost.  A fault during
              // the compare/repair corrupts the *following* window.
              vote_correct(op_mask, i + 1);
              voted_this_interval = true;
              break;
            }
            // No majority: roll back to the interval-start CSCP.
            st.trace(TraceEventKind::kDetection);
            const unsigned rollback_mask =
                st.run_overhead(speed, speed.rollback);
            ++st.result->detections;
            ++st.result->rollbacks;
            --st.remaining_faults;
            st.trace(TraceEventKind::kRollback,
                     static_cast<double>(i) * itv_sub * f,
                     st.result->detections);
            // Faults during the compare or restore slip past and
            // corrupt the next attempt.
            st.carry_mask = op_mask | rollback_mask;
            return AttemptOutcome::kFaultDetected;
          }
          // Clean comparison; a fault during the compare corrupts the
          // following execution (seen at the next comparison).
          corrupt.note(op_mask, i + 1);
          break;
        }
        case InnerKind::kNone:
          break;  // unreachable: n_subs == 1 when inner is none
      }
    }
  }

  // Interval-end CSCP: one atomic compare-and-store operation costing
  // t_cp + t_s whether or not the comparison agrees (the paper's lumped
  // per-checkpoint cost c; its baseline results across the two cost
  // flavors confirm the full cost is paid on mismatch too).
  const unsigned cscp_mask = st.run_overhead(speed, speed.cscp);
  st.trace(TraceEventKind::kCheckpoint, speed.cscp.cycles, 2);

  if (corrupt.corrupted() && votable()) {
    // NMR: repair the deviant minority and commit the interval.
    vote_correct(cscp_mask, 1);
    st.carry_mask = corrupt.mask;
    ++st.result->checkpoints_cscp;
    st.committed += itv_outer * f;
    st.trace(TraceEventKind::kCommit, st.committed);
    return AttemptOutcome::kCommittedVoted;
  }

  if (corrupt.corrupted()) {
    st.trace(TraceEventKind::kDetection);
    ++st.result->detections;
    ++st.result->rollbacks;
    --st.remaining_faults;
    const unsigned rollback_mask = st.run_overhead(speed, speed.rollback);
    if (decision.inner == InnerKind::kScp) {
      // Roll back to the most recent recoverable SCP: DMR needs stored
      // states that are identical (before the first fault); NMR only a
      // healthy majority (before majority loss).  That prefix is
      // recovery-consistent, so it is committed.
      const int boundary = voting && corrupt.majority_sub > 0
                               ? corrupt.majority_sub
                               : corrupt.first_sub;
      const double committed_subs = static_cast<double>(boundary - 1);
      const double committed_cycles = committed_subs * itv_sub * f;
      st.committed += committed_cycles;
      st.trace(TraceEventKind::kRollback, itv_outer * f - committed_cycles,
               st.result->detections);
    } else {
      // CCP/None: nothing stored since the interval start.
      st.trace(TraceEventKind::kRollback, itv_outer * f,
               st.result->detections);
    }
    st.carry_mask = cscp_mask | rollback_mask;
    return AttemptOutcome::kFaultDetected;
  }

  // Agreement: the stored snapshot commits the whole interval.
  ++st.result->checkpoints_cscp;
  st.committed += itv_outer * f;
  st.trace(TraceEventKind::kCommit, st.committed);
  // A fault during the operation corrupts the running state after the
  // committed snapshot; the next comparison will catch it.
  st.carry_mask = cscp_mask;
  return voted_this_interval ? AttemptOutcome::kCommittedVoted
                             : AttemptOutcome::kCommitted;
}

void validate_decision(const Decision& d) {
  if (!(d.speed.frequency > 0.0) || !(d.speed.voltage > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive speed");
  }
  if (d.abort) return;  // intervals unused
  if (!(d.cscp_interval > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive Itv");
  }
  if (d.inner != InnerKind::kNone && !(d.sub_interval > 0.0)) {
    throw std::invalid_argument("engine: decision with non-positive itv");
  }
}

/// The engine loop, specialised on the fault source.  Runs unchecked:
/// callers validate the setup (simulate, simulate_seeded) or have
/// validated it once per cell (simulate_seeded_unchecked).
template <typename Source>
RunResult run_engine(const SimSetup& setup, ICheckpointPolicy& policy,
                     Source& fault_source, const EngineConfig& config) {
  RunResult result;

  EngineState<Source> st;
  st.setup = &setup;
  st.config = &config;
  st.faults = &fault_source;
  st.result = &result;
  st.remaining_faults = setup.task.fault_tolerance;

  ExecContext ctx;
  ctx.task = &setup.task;
  ctx.costs = &setup.costs;
  ctx.processor = &setup.processor;
  // Policies see the environment's long-run effective rate: exact for
  // exponential arrivals (multiplier 1 leaves the rate bit-identical),
  // the documented approximation otherwise.
  ctx.lambda = setup.fault_model.rate * setup.environment.rate_multiplier();
  ctx.redundancy = setup.fault_model.processors;

  auto refresh_ctx = [&] {
    ctx.remaining_cycles = st.remaining_cycles();
    ctx.now = st.now;
    ctx.exposure = st.exposure;
    ctx.remaining_faults = st.remaining_faults;
    ctx.faults_detected = result.detections + result.corrections;
  };

  refresh_ctx();
  Decision decision = policy.initial(ctx);
  // After a clean commit the engine applies kKeep and kDeadlineGuard
  // itself, so the context is refreshed only before a hook runs.
  const CommitRule commit_rule = policy.commit_rule();
  validate_decision(decision);
  // Each decision is validated when the policy returns it and bound
  // when it first executes, so a decision that ends the run (abort, or
  // one returned at the deadline) never adds an empty meter slot.
  BoundSpeed speed;
  bool bound = false;

  const double work_eps = setup.task.cycles * 1e-12;

  for (;;) {
    if (st.remaining_cycles() <= work_eps) {
      result.outcome = st.now <= setup.task.deadline
                           ? RunOutcome::kCompleted
                           : RunOutcome::kDeadlineMiss;
      result.finish_time = st.now;
      st.trace(result.completed() ? TraceEventKind::kComplete
                                  : TraceEventKind::kDeadlineMiss,
               st.committed);
      break;
    }
    if (decision.abort) {
      result.outcome = RunOutcome::kAborted;
      result.finish_time = st.now;
      st.trace(TraceEventKind::kAbort);
      break;
    }
    if (st.now >= setup.task.deadline) {
      result.outcome = RunOutcome::kDeadlineMiss;
      result.finish_time = setup.task.deadline;
      st.trace(TraceEventKind::kDeadlineMiss, st.committed);
      break;
    }

    if (!bound) {
      if (decision.speed.frequency != st.last_frequency) {
        if (st.last_frequency != 0.0) {
          ++result.speed_switches;
          st.trace(TraceEventKind::kSpeedChange, decision.speed.frequency);
        }
        st.last_frequency = decision.speed.frequency;
      }
      speed = bind_speed(decision.speed, setup.costs, result.meter);
      bound = true;
    }

    const AttemptOutcome outcome = execute_interval(st, decision, speed);
    if (st.remaining_cycles() <= work_eps) {
      continue;  // done — the loop top records the outcome
    }
    if (outcome == AttemptOutcome::kFaultDetected ||
        outcome == AttemptOutcome::kCommittedVoted) {
      // Both consume fault budget; the policy re-plans (Fig. 3/6/7
      // "else" branch).  For a voted commit nothing was lost, but the
      // remaining budget changed, so the plan may too.
      refresh_ctx();
      decision = policy.on_fault(ctx);
    } else if (commit_rule == CommitRule::kKeep) {
      continue;  // the standing plan stays bound
    } else if (commit_rule == CommitRule::kDeadlineGuard) {
      if (!deadline_guard_fires(st.remaining_cycles(),
                                setup.task.deadline - st.now,
                                setup.processor)) {
        continue;
      }
      decision = deadline_guard_abort(setup.processor);
    } else {
      refresh_ctx();
      auto replacement = policy.on_commit(ctx);
      if (!replacement) continue;
      decision = *replacement;
    }
    validate_decision(decision);
    bound = false;
  }

  result.energy = result.meter.total();
  result.cycles_executed = result.meter.total_cycles();
  result.cycles_committed = st.committed;
  return result;
}

}  // namespace

void SimSetup::validate() const {
  task.validate();
  costs.validate();
  if (!fault_model.valid()) {
    throw std::invalid_argument(
        "SimSetup: fault model needs rate >= 0 and 2..32 processors");
  }
  environment.validate();
}

RunResult simulate(const SimSetup& setup, ICheckpointPolicy& policy,
                   model::FaultSource& fault_source,
                   const EngineConfig& config) {
  setup.validate();
  return run_engine(setup, policy, fault_source, config);
}

RunResult simulate_seeded(const SimSetup& setup, ICheckpointPolicy& policy,
                          std::uint64_t seed, const EngineConfig& config) {
  // The checks the fault source makes come first, then the whole
  // setup's: the order simulate_seeded reports errors in.
  if (!setup.fault_model.valid()) {
    throw std::invalid_argument("FaultModel: invalid");
  }
  setup.environment.validate();
  setup.validate();
  return simulate_seeded_unchecked(setup, policy, seed, config);
}

RunResult simulate_seeded_unchecked(const SimSetup& setup,
                                    ICheckpointPolicy& policy,
                                    std::uint64_t seed,
                                    const EngineConfig& config) {
  // Stack-constructed sources keep the per-run hot path allocation-free
  // (the same three-way dispatch as model::make_fault_source).
  util::Xoshiro256 rng(seed);
  const auto& env = setup.environment;
  if (env.plain_exponential()) {
    model::PoissonFaultSource source(setup.fault_model, rng);
    return run_engine(setup, policy, source, config);
  }
  if (env.burst.enabled) {
    model::MmppFaultSource source(setup.fault_model, env, rng,
                                  model::kPrevalidated);
    return run_engine(setup, policy, source, config);
  }
  model::RenewalFaultSource source(setup.fault_model, env, rng,
                                   model::kPrevalidated);
  return run_engine(setup, policy, source, config);
}

}  // namespace adacheck::sim

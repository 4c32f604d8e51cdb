// DMR execution engine.
//
// Simulates one job of a task on a replicated (DMR/TMR/NMR) system
// under a checkpointing policy: computation segments, SCP/CCP/CSCP
// operations, transient faults from a pluggable environment (Poisson,
// renewal, Markov-modulated bursts, common cause — or replayed),
// comparison-based detection, rollback recovery, DVS speed changes,
// and V^2-per-cycle energy accounting.  The engine owns the
// *mechanics* — policies only pick speeds and interval lengths (see
// sim/policy.hpp).
//
// Semantics implemented (DESIGN.md §3):
//  * Faults strike either processor during computation (optionally also
//    during checkpoint operations); they corrupt processor state and
//    stay latent until a comparison (CCP or CSCP) observes disagreement.
//  * SCP mode: detection at the interval-end CSCP; rollback to the most
//    recent SCP preceding the first fault of the attempt (that work is
//    committed — its stored states are identical).
//  * CCP mode: detection at the first comparison at/after the fault;
//    rollback to the interval-start CSCP (nothing in between was
//    stored).
//  * None mode: equivalent to CCP mode with a single sub-interval.
//  * A CSCP compares (t_cp) and, only on agreement, stores (t_s).
//  * After every detection the policy is consulted again (Fig. 3/6/7
//    "else" branch); after every committed CSCP it may optionally
//    replace the plan (paper recomputes only on faults).
//  * The run ends at completion, at the deadline (failure), or when the
//    policy aborts (Fig. 6 line 6).
//
// Performance: the engine loop is a template over the fault source.
// simulate_seeded instantiates it with the concrete Poisson, MMPP or
// renewal source, so sampling is not a virtual call; simulate with a
// model::FaultSource& (replay, tests) is the type-erased instantiation,
// and the only one that range-checks the replica a fault names.  Each
// decision's speed level is bound once, when it first executes (meter
// slot, V^2, overhead durations), and charged by slot index.
//
// Validation: simulate and simulate_seeded validate the setup on every
// call.  The Monte-Carlo sweep validates each cell once, before its
// first run, and then runs simulate_seeded_unchecked.
#pragma once

#include <utility>

#include "model/checkpoint.hpp"
#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "model/speed.hpp"
#include "model/task.hpp"
#include "sim/policy.hpp"
#include "sim/run_result.hpp"

namespace adacheck::sim {

/// Immutable description of one simulation scenario.
struct SimSetup {
  model::TaskSpec task;
  model::CheckpointCosts costs;       ///< cycle units
  model::DvsProcessor processor;
  model::FaultModel fault_model;
  /// How faults arrive (distribution shape, bursts, common cause).
  /// The default is the paper's homogeneous Poisson process, which is
  /// bit-identical to the pre-environment simulator.
  model::FaultEnvironment environment;

  SimSetup() = default;
  SimSetup(model::TaskSpec task_, model::CheckpointCosts costs_,
           model::DvsProcessor processor_, model::FaultModel fault_model_,
           model::FaultEnvironment environment_ = {})
      : task(std::move(task_)), costs(costs_),
        processor(std::move(processor_)), fault_model(fault_model_),
        environment(environment_) {}

  void validate() const;
};

struct EngineConfig {
  bool record_trace = false;
  /// Safety valve: the engine throws if a single run executes more than
  /// this many sub-interval attempts (guards against degenerate plans).
  std::size_t max_steps = 50'000'000;
};

/// Runs one job to completion / deadline / abort and returns the
/// outcome.  `fault_source` supplies fault arrival times on the
/// *exposure* clock (cumulative vulnerable time); use
/// model::PoissonFaultSource for stochastic runs or
/// model::ReplayFaultSource for deterministic replay.
RunResult simulate(const SimSetup& setup, ICheckpointPolicy& policy,
                   model::FaultSource& fault_source,
                   const EngineConfig& config = {});

/// Convenience overload: stochastic faults from a fresh RNG seed,
/// drawn by the source matching setup.environment (Poisson, renewal,
/// or Markov-modulated burst — see model::make_fault_source).
RunResult simulate_seeded(const SimSetup& setup, ICheckpointPolicy& policy,
                          std::uint64_t seed, const EngineConfig& config = {});

/// simulate_seeded, bit for bit, without validating `setup`: for
/// callers that validated it once for many runs (the Monte-Carlo sweep
/// validates each cell before its first run).
RunResult simulate_seeded_unchecked(const SimSetup& setup,
                                    ICheckpointPolicy& policy,
                                    std::uint64_t seed,
                                    const EngineConfig& config);

}  // namespace adacheck::sim

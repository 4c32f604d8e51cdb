// Transient-fault model for the replica group.
//
// In the paper, faults arrive to the duplex *system* as one Poisson
// process of rate lambda (per time unit); each fault strikes one of
// the two processors uniformly.  This is the paper's "faults are
// injected into the system using a Poisson process with parameter
// lambda", and it is the only reading under which the paper's
// baseline completion probabilities reproduce (DESIGN.md §3); the
// same lambda feeds the renewal equations and interval rules, keeping
// analysis and injection consistent.  The fault-environment subsystem
// (model/fault_env.hpp) generalizes the arrival process — Weibull /
// log-normal / gamma renewal gaps, Markov-modulated bursts, and
// common-cause strikes hitting every replica — with Poisson remaining
// the bit-identical default.  Faults corrupt processor state; they
// are latent until a comparison (CCP or CSCP) observes disagreement.
// By default faults strike only during computation segments, matching
// the analytic model; `faults_during_overhead` extends exposure to
// checkpoint operations for ablation.
//
// FaultTrace supports record/replay so a stochastic run can be rerun
// deterministically (tests, debugging, the satellite example).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace adacheck::model {

struct FaultEnvironment;  // model/fault_env.hpp
enum class ArrivalKind;   // model/fault_env.hpp

/// Widest replica group a fault mask can express (engine masks are
/// 32-bit; replica indices recorded in traces must fit below this).
inline constexpr int kMaxProcessors = 32;

/// Sentinel processor index meaning "all replicas struck at once"
/// (common-cause strikes; accepted by FaultTrace and the engine).
inline constexpr int kAllReplicas = -1;

struct FaultModel {
  double rate = 0.0;  ///< lambda: system-level fault rate per time unit.
  bool faults_during_overhead = false;
  /// Number of replicated processors sharing the arrival process: 2 for
  /// the paper's DMR, 3 for the TMR extension, any N >= 2 for the
  /// N-modular generalization (each arrival strikes one processor
  /// uniformly, or all at once under a common-cause environment).
  int processors = 2;

  bool valid() const noexcept {
    return rate >= 0.0 && processors >= 2 && processors <= kMaxProcessors;
  }
  /// Combined arrival rate seen by the replica group (== rate).
  double pair_rate() const noexcept { return rate; }
};

/// A recorded fault: which processor and when (absolute sim time).
struct FaultEvent {
  double time = 0.0;
  /// Replica index (0..processors-1), or kAllReplicas (-1) for a
  /// common-cause strike hitting every replica at once.
  int processor = 0;
};

/// Sorted-by-time fault series, recordable and replayable.
class FaultTrace {
 public:
  FaultTrace() = default;
  /// Takes events as record() would: time-sorted, each naming a
  /// replica below kMaxProcessors or kAllReplicas.
  explicit FaultTrace(std::vector<FaultEvent> events);

  void record(double time, int processor);
  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// Number of faults in the half-open window [t0, t1).
  std::size_t count_in(double t0, double t1) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Source of "time until the next fault on either processor" samples.
/// The stochastic implementation draws exponentials; the replay
/// implementation walks a FaultTrace.  `exposure` elapses only while
/// the pair is vulnerable (the engine controls what counts).  Queries
/// need not be idempotent: the engine makes each one once.
class FaultSource {
 public:
  virtual ~FaultSource() = default;
  /// Exposure time from `from_exposure` until the next fault on either
  /// processor; +infinity if none.  Also reports which processor.
  virtual double next_fault_after(double from_exposure, int& processor) = 0;
};

/// Tag for the environment source constructors that skip validating
/// the model and environment: for callers that validated both once
/// (the sweep validates each cell's setup before its first run).
struct Prevalidated {};
inline constexpr Prevalidated kPrevalidated{};

/// Memoryless stochastic source at the pair rate 2*lambda.
class PoissonFaultSource final : public FaultSource {
 public:
  PoissonFaultSource(const FaultModel& model, util::Xoshiro256& rng);
  /// Inline so the engine, specialised on this type, samples without a
  /// call per query.
  double next_fault_after(double from_exposure, int& processor) override {
    // The process is memoryless, so we only ever move forward; the
    // engine queries with non-decreasing exposure except after
    // rollbacks, where re-executed work is *new* exposure (faults can
    // strike again), which the engine models by continuing to
    // accumulate exposure time.
    while (next_time_ < from_exposure) advance();
    processor = next_proc_;
    return next_time_;
  }

 private:
  double pair_rate_;
  int processors_;
  util::Xoshiro256& rng_;
  double next_time_;
  int next_proc_;
  void advance() {
    next_time_ += rng_.exponential(pair_rate_);
    next_proc_ = static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(processors_)));
  }
};

/// Renewal-process stochastic source: i.i.d. inter-arrival gaps drawn
/// from the environment's distribution, scaled so the mean gap is
/// 1/lambda (the long-run rate matches the Poisson source; only the
/// clustering differs).  Honors the environment's common-cause
/// fraction by reporting kAllReplicas for correlated strikes.
class RenewalFaultSource final : public FaultSource {
 public:
  RenewalFaultSource(const FaultModel& model, const FaultEnvironment& env,
                     util::Xoshiro256& rng);
  /// Same source; `model` and `env` must be valid and `env` unbursty.
  RenewalFaultSource(const FaultModel& model, const FaultEnvironment& env,
                     util::Xoshiro256& rng, Prevalidated);
  double next_fault_after(double from_exposure, int& processor) override;

 private:
  ArrivalKind kind_;
  double shape_ = 1.0;
  double scale_ = 0.0;  ///< Weibull/gamma scale or log-normal mu
  double common_cause_ = 0.0;
  int processors_;
  util::Xoshiro256& rng_;
  double next_time_;
  int next_proc_;
  double draw_gap();
  int draw_processor();
  void advance();
};

/// Two-state Markov-modulated Poisson source (quiet/burst) on the
/// exposure clock: exponential dwell in each state, arrival rate
/// lambda in quiet and rate_multiplier * lambda in burst.  Runs start
/// in the quiet state.  Also honors the common-cause fraction.
class MmppFaultSource final : public FaultSource {
 public:
  MmppFaultSource(const FaultModel& model, const FaultEnvironment& env,
                  util::Xoshiro256& rng);
  /// Same source; `model` and `env` must be valid and `env` bursty.
  MmppFaultSource(const FaultModel& model, const FaultEnvironment& env,
                  util::Xoshiro256& rng, Prevalidated);
  double next_fault_after(double from_exposure, int& processor) override;

 private:
  double quiet_rate_;
  double burst_rate_;
  double mean_quiet_dwell_;
  double mean_burst_dwell_;
  double common_cause_ = 0.0;
  int processors_;
  util::Xoshiro256& rng_;
  bool in_burst_ = false;
  double state_end_;   ///< exposure time at which the state flips
  double cursor_;      ///< arrival-sampling position on the exposure clock
  double next_time_;
  int next_proc_;
  int draw_processor();
  void advance();
};

/// Replays a pre-recorded trace (times interpreted as exposure time).
class ReplayFaultSource final : public FaultSource {
 public:
  explicit ReplayFaultSource(const FaultTrace& trace);
  double next_fault_after(double from_exposure, int& processor) override;

 private:
  const FaultTrace& trace_;
  std::size_t cursor_ = 0;
};

/// Builds the stochastic source matching the environment: the plain
/// exponential environment yields a PoissonFaultSource consuming the
/// exact RNG stream of the pre-environment simulator (bit-identical
/// runs); bursty environments yield MmppFaultSource; everything else
/// RenewalFaultSource.
std::unique_ptr<FaultSource> make_fault_source(const FaultModel& model,
                                               const FaultEnvironment& env,
                                               util::Xoshiro256& rng);

}  // namespace adacheck::model

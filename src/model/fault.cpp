#include "model/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/fault_env.hpp"

namespace adacheck::model {

namespace {

void check_processor(int processor) {
  if (processor < kAllReplicas || processor >= kMaxProcessors) {
    throw std::invalid_argument(
        "FaultTrace: processor must be a replica index below 32, or -1 "
        "for a common-cause strike");
  }
}

}  // namespace

FaultTrace::FaultTrace(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  if (!std::is_sorted(events_.begin(), events_.end(),
                      [](const FaultEvent& a, const FaultEvent& b) {
                        return a.time < b.time;
                      })) {
    throw std::invalid_argument("FaultTrace: events must be time-sorted");
  }
  for (const auto& event : events_) check_processor(event.processor);
}

void FaultTrace::record(double time, int processor) {
  if (!events_.empty() && time < events_.back().time) {
    throw std::invalid_argument("FaultTrace: out-of-order record");
  }
  check_processor(processor);
  events_.push_back({time, processor});
}

std::size_t FaultTrace::count_in(double t0, double t1) const {
  const auto lo = std::lower_bound(
      events_.begin(), events_.end(), t0,
      [](const FaultEvent& e, double t) { return e.time < t; });
  const auto hi = std::lower_bound(
      lo, events_.end(), t1,
      [](const FaultEvent& e, double t) { return e.time < t; });
  return static_cast<std::size_t>(hi - lo);
}

PoissonFaultSource::PoissonFaultSource(const FaultModel& model,
                                       util::Xoshiro256& rng)
    : pair_rate_(model.pair_rate()), processors_(model.processors),
      rng_(rng), next_time_(0.0), next_proc_(0) {
  if (!model.valid()) throw std::invalid_argument("FaultModel: invalid");
  next_time_ = rng_.exponential(pair_rate_);
  next_proc_ = static_cast<int>(
      rng_.below(static_cast<std::uint64_t>(processors_)));
}

namespace {

/// Common-cause coin flip, else a uniform replica index — the shared
/// strike-assignment rule of every stochastic environment source.
int draw_struck_processor(util::Xoshiro256& rng, double common_cause,
                          int processors) {
  if (common_cause > 0.0 && rng.uniform01() < common_cause) {
    return kAllReplicas;
  }
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(processors)));
}

/// The checks the checked environment sources run before delegating
/// to their Prevalidated constructors; returns `env`.
const FaultEnvironment& checked(const FaultModel& model,
                                const FaultEnvironment& env, bool bursty) {
  if (!model.valid()) throw std::invalid_argument("FaultModel: invalid");
  env.validate();
  if (env.burst.enabled != bursty) {
    throw std::invalid_argument(
        bursty ? "MmppFaultSource: environment has no burst process"
               : "RenewalFaultSource: bursty environments use "
                 "MmppFaultSource");
  }
  return env;
}

}  // namespace

RenewalFaultSource::RenewalFaultSource(const FaultModel& model,
                                       const FaultEnvironment& env,
                                       util::Xoshiro256& rng)
    : RenewalFaultSource(model, checked(model, env, /*bursty=*/false), rng,
                         kPrevalidated) {}

RenewalFaultSource::RenewalFaultSource(const FaultModel& model,
                                       const FaultEnvironment& env,
                                       util::Xoshiro256& rng, Prevalidated)
    : kind_(env.arrival), shape_(env.shape),
      common_cause_(env.common_cause_fraction),
      processors_(model.processors), rng_(rng), next_time_(0.0),
      next_proc_(0) {
  // Pin the mean inter-arrival gap to 1/rate so every distribution
  // family injects faults at the same long-run rate as the Poisson
  // source; a rate of 0 disables arrivals entirely.
  const double rate = model.pair_rate();
  const double mean_gap = rate > 0.0 ? 1.0 / rate : 0.0;
  switch (env.arrival) {
    case ArrivalKind::kExponential:
      scale_ = mean_gap;
      break;
    case ArrivalKind::kWeibull:
      // mean = scale * Gamma(1 + 1/k)
      scale_ = mean_gap / std::tgamma(1.0 + 1.0 / shape_);
      break;
    case ArrivalKind::kLogNormal:
      // mean = exp(mu + sigma^2/2); scale_ stores mu.
      scale_ = rate > 0.0 ? -std::log(rate) - 0.5 * shape_ * shape_ : 0.0;
      break;
    case ArrivalKind::kGamma:
      // mean = shape * scale
      scale_ = mean_gap / shape_;
      break;
  }
  if (rate > 0.0) {
    next_time_ = draw_gap();
    next_proc_ = draw_processor();
  } else {
    next_time_ = std::numeric_limits<double>::infinity();
  }
}

double RenewalFaultSource::draw_gap() {
  switch (kind_) {
    case ArrivalKind::kExponential:
      return scale_ > 0.0 ? rng_.exponential(1.0 / scale_)
                          : std::numeric_limits<double>::infinity();
    case ArrivalKind::kWeibull:
      return rng_.weibull(shape_, scale_);
    case ArrivalKind::kLogNormal:
      return rng_.lognormal(scale_, shape_);
    case ArrivalKind::kGamma:
      return rng_.gamma(shape_, scale_);
  }
  return std::numeric_limits<double>::infinity();
}

int RenewalFaultSource::draw_processor() {
  return draw_struck_processor(rng_, common_cause_, processors_);
}

void RenewalFaultSource::advance() {
  next_time_ += draw_gap();
  next_proc_ = draw_processor();
}

double RenewalFaultSource::next_fault_after(double from_exposure,
                                            int& processor) {
  // Unlike the Poisson source this process is NOT memoryless, but the
  // engine only ever queries forward on the exposure clock (rollback
  // re-execution is new exposure), so walking the renewal sequence is
  // exact.
  while (next_time_ < from_exposure) advance();
  processor = next_proc_;
  return next_time_;
}

MmppFaultSource::MmppFaultSource(const FaultModel& model,
                                 const FaultEnvironment& env,
                                 util::Xoshiro256& rng)
    : MmppFaultSource(model, checked(model, env, /*bursty=*/true), rng,
                      kPrevalidated) {}

MmppFaultSource::MmppFaultSource(const FaultModel& model,
                                 const FaultEnvironment& env,
                                 util::Xoshiro256& rng, Prevalidated)
    : quiet_rate_(model.pair_rate()),
      burst_rate_(model.pair_rate() * env.burst.rate_multiplier),
      mean_quiet_dwell_(env.burst.mean_quiet_dwell),
      mean_burst_dwell_(env.burst.mean_burst_dwell),
      common_cause_(env.common_cause_fraction),
      processors_(model.processors), rng_(rng), cursor_(0.0),
      next_time_(0.0), next_proc_(0) {
  if (quiet_rate_ <= 0.0) {
    // No arrivals in either state; skip the modulation walk entirely
    // (it would otherwise flip states forever chasing an infinite gap).
    next_time_ = std::numeric_limits<double>::infinity();
    state_end_ = std::numeric_limits<double>::infinity();
    return;
  }
  state_end_ = rng_.exponential(1.0 / mean_quiet_dwell_);
  advance();
}

int MmppFaultSource::draw_processor() {
  return draw_struck_processor(rng_, common_cause_, processors_);
}

void MmppFaultSource::advance() {
  // Competing exponentials: within a state both the next arrival and
  // the state flip are memoryless, so re-drawing the arrival gap after
  // each flip is exact.
  for (;;) {
    const double rate = in_burst_ ? burst_rate_ : quiet_rate_;
    const double gap = rng_.exponential(rate);
    if (cursor_ + gap < state_end_) {
      cursor_ += gap;
      next_time_ = cursor_;
      next_proc_ = draw_processor();
      return;
    }
    cursor_ = state_end_;
    in_burst_ = !in_burst_;
    const double dwell = in_burst_ ? mean_burst_dwell_ : mean_quiet_dwell_;
    state_end_ = cursor_ + rng_.exponential(1.0 / dwell);
  }
}

double MmppFaultSource::next_fault_after(double from_exposure,
                                         int& processor) {
  while (next_time_ < from_exposure) advance();
  processor = next_proc_;
  return next_time_;
}

ReplayFaultSource::ReplayFaultSource(const FaultTrace& trace) : trace_(trace) {}

double ReplayFaultSource::next_fault_after(double from_exposure,
                                           int& processor) {
  while (cursor_ < trace_.size() &&
         trace_.events()[cursor_].time < from_exposure) {
    ++cursor_;
  }
  if (cursor_ >= trace_.size()) {
    processor = 0;
    return std::numeric_limits<double>::infinity();
  }
  processor = trace_.events()[cursor_].processor;
  return trace_.events()[cursor_].time;
}

std::unique_ptr<FaultSource> make_fault_source(const FaultModel& model,
                                               const FaultEnvironment& env,
                                               util::Xoshiro256& rng) {
  env.validate();
  if (env.plain_exponential()) {
    return std::make_unique<PoissonFaultSource>(model, rng);
  }
  if (env.burst.enabled) {
    return std::make_unique<MmppFaultSource>(model, env, rng);
  }
  return std::make_unique<RenewalFaultSource>(model, env, rng);
}

}  // namespace adacheck::model

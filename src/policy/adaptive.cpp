#include "policy/adaptive.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "analytic/dvs_estimate.hpp"
#include "analytic/interval_policy.hpp"
#include "analytic/num_checkpoints.hpp"
#include "analytic/renewal_tmr.hpp"

namespace adacheck::policy {

namespace {
std::string scheme_name(const AdaptiveConfig& c) {
  std::string base = "adaptive";
  if (!c.use_dvs) {
    switch (c.inner) {
      case sim::InnerKind::kNone: base = "adapchp"; break;
      case sim::InnerKind::kScp: base = "adapchp-SCP"; break;
      case sim::InnerKind::kCcp: base = "adapchp-CCP"; break;
    }
  } else {
    switch (c.inner) {
      case sim::InnerKind::kNone: base = "A_D"; break;
      case sim::InnerKind::kScp: base = "A_D_S"; break;
      case sim::InnerKind::kCcp: base = "A_D_C"; break;
    }
  }
  return c.estimate_rate ? base + "-est" : base;
}
}  // namespace

AdaptiveCheckpointPolicy::AdaptiveCheckpointPolicy(AdaptiveConfig config)
    : config_(config), name_(scheme_name(config)) {
  if (config_.max_inner < 1) {
    throw std::invalid_argument("AdaptiveConfig: max_inner must be >= 1");
  }
  if (config_.estimate_rate && !(config_.estimator_prior_strength > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveConfig: estimator_prior_strength must be > 0");
  }
}

double AdaptiveCheckpointPolicy::planning_lambda(
    const sim::ExecContext& ctx) const {
  // Observation window on the *exposure* clock — the clock lambda is
  // defined on — so checkpoint/rollback overhead does not dilute the
  // estimate.  (Detections still undercount bursts that land several
  // faults in one attempt; the estimator is deliberately conservative.)
  if (!config_.estimate_rate || ctx.exposure <= 0.0) return ctx.lambda;
  const double detections = static_cast<double>(ctx.faults_detected);
  if (ctx.lambda <= 0.0) {
    // No prior to anchor on: pure maximum-likelihood detections/time.
    return detections / ctx.exposure;
  }
  // Gamma(k0, k0/lambda0) prior on the rate, Poisson-count likelihood:
  // the posterior mean interpolates from the nominal rate (exposure
  // -> 0) to the observed inter-detection-gap rate (detections -> inf).
  const double k0 = config_.estimator_prior_strength;
  return (k0 + detections) / (k0 / ctx.lambda + ctx.exposure);
}

sim::Decision AdaptiveCheckpointPolicy::decide(const sim::ExecContext& ctx) {
  const double c_cycles = ctx.costs->cscp();
  const double lambda = planning_lambda(ctx);
  const auto& level =
      config_.use_dvs
          ? analytic::choose_speed(*ctx.processor, ctx.remaining_cycles,
                                   ctx.remaining_deadline(), c_cycles,
                                   lambda)
          : ctx.processor->level(config_.fixed_level);

  sim::Decision d;
  d.speed = level;

  const double f = level.frequency;
  const double remaining_work = ctx.remaining_cycles / f;   // R_t
  const double remaining_deadline = ctx.remaining_deadline();  // R_d
  // Fig. 6 line 6: even the chosen (fastest-if-needed) speed cannot fit
  // the remaining work before the deadline — break with task failure.
  if (remaining_work > remaining_deadline) {
    d.abort = true;
    return d;
  }

  const double cost_time = c_cycles / f;
  const auto interval = analytic::adaptive_interval(
      remaining_deadline, remaining_work, cost_time, ctx.remaining_faults,
      lambda);
  const double itv = std::min(interval.interval, remaining_work);
  d.cscp_interval = itv;
  d.inner = config_.inner;

  // Sub-interval count from the renewal model matching the platform's
  // redundancy: DMR uses the paper's R1/R2; any voting group (N >= 3)
  // the vote-aware TMR variants — exact for 3 replicas, and the
  // documented approximation for wider NMR groups (the engine votes
  // there too, so the 2-of-3 renewal model is far closer than the
  // every-fault-rolls-back DMR equations).  The searches run unchecked:
  // the costs were validated with the setup, adaptive_interval has
  // checked the rate and the remaining work, and every interval rule
  // is positive, so itv > 0.
  const model::CheckpointCosts time_costs{ctx.costs->store / f,
                                          ctx.costs->compare / f,
                                          ctx.costs->rollback / f};
  if (config_.inner == sim::InnerKind::kNone) {
    d.sub_interval = itv;
  } else {
    const int m = std::min(
        inner_count(itv, lambda, time_costs, ctx.redundancy >= 3),
        config_.max_inner);
    d.sub_interval = itv / static_cast<double>(m);
  }
  return d;
}

int AdaptiveCheckpointPolicy::inner_count(
    double itv, double lambda, const model::CheckpointCosts& time_costs,
    bool voting) {
  const MSearchKey key{{std::bit_cast<std::uint64_t>(itv),
                        std::bit_cast<std::uint64_t>(lambda),
                        std::bit_cast<std::uint64_t>(time_costs.store),
                        std::bit_cast<std::uint64_t>(time_costs.compare),
                        std::bit_cast<std::uint64_t>(time_costs.rollback)},
                       voting};
  for (const auto& entry : recent_) {
    if (entry.m != 0 && entry.key == key) return entry.m;
  }
  int m = 1;
  if (config_.inner == sim::InnerKind::kScp) {
    m = voting ? analytic::num_scp_tmr_unchecked({itv, lambda, time_costs})
               : analytic::num_scp_unchecked({itv, lambda, time_costs});
  } else {
    m = voting ? analytic::num_ccp_tmr_unchecked({itv, lambda, time_costs})
               : analytic::num_ccp_unchecked({itv, lambda, time_costs});
  }
  recent_[next_slot_] = {key, m};
  next_slot_ = (next_slot_ + 1) % recent_.size();
  return m;
}

sim::Decision AdaptiveCheckpointPolicy::initial(const sim::ExecContext& ctx) {
  return decide(ctx);
}

sim::Decision AdaptiveCheckpointPolicy::on_fault(const sim::ExecContext& ctx) {
  return decide(ctx);
}

std::optional<sim::Decision> AdaptiveCheckpointPolicy::on_commit(
    const sim::ExecContext& ctx) {
  if (ctx.remaining_cycles <= 0.0) return std::nullopt;  // engine will finish
  if (config_.recompute_at_commit) return decide(ctx);
  // Even without re-planning, the while-loop guard of Figs. 3/6/7 runs
  // every iteration: break with failure when the remaining work cannot
  // fit the remaining deadline at the fastest speed.
  if (sim::deadline_guard_fires(ctx.remaining_cycles,
                                ctx.remaining_deadline(), *ctx.processor)) {
    return sim::deadline_guard_abort(*ctx.processor);
  }
  return std::nullopt;
}

AdaptiveConfig AdaptiveCheckpointPolicy::adt_dvs() {
  AdaptiveConfig c;
  c.inner = sim::InnerKind::kNone;
  c.use_dvs = true;
  return c;
}

AdaptiveConfig AdaptiveCheckpointPolicy::adapchp_scp() {
  AdaptiveConfig c;
  c.inner = sim::InnerKind::kScp;
  c.use_dvs = false;
  return c;
}

AdaptiveConfig AdaptiveCheckpointPolicy::adapchp_ccp() {
  AdaptiveConfig c;
  c.inner = sim::InnerKind::kCcp;
  c.use_dvs = false;
  return c;
}

AdaptiveConfig AdaptiveCheckpointPolicy::adapchp_dvs_scp() {
  AdaptiveConfig c;
  c.inner = sim::InnerKind::kScp;
  c.use_dvs = true;
  return c;
}

AdaptiveConfig AdaptiveCheckpointPolicy::adapchp_dvs_ccp() {
  AdaptiveConfig c;
  c.inner = sim::InnerKind::kCcp;
  c.use_dvs = true;
  return c;
}

AdaptiveConfig AdaptiveCheckpointPolicy::with_estimator(AdaptiveConfig c) {
  c.estimate_rate = true;
  return c;
}

}  // namespace adacheck::policy

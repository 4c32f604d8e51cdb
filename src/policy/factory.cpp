#include "policy/factory.hpp"

#include <stdexcept>

#include "policy/adaptive.hpp"
#include "policy/fixed_interval.hpp"

namespace adacheck::policy {

namespace {

/// Every scheme make_policy builds, in known_policies() order, with
/// whether it ever plans inner checkpoints (SCPs or CCPs between two
/// CSCPs).  A new scheme is added here as well as to make_policy.
struct SchemeInfo {
  const char* name;
  bool plans_inner;
};

constexpr SchemeInfo kSchemes[] = {
    {"Poisson", false},     {"k-f-t", false},      {"A_D", false},
    {"A_D_S", true},        {"A_D_C", true},       {"adapchp-SCP", true},
    {"adapchp-CCP", true},  {"A_D-est", false},    {"A_D_S-est", true},
    {"A_D_C-est", true}};

/// The adaptive configuration a scheme name selects; throws for names
/// that are neither adaptive nor a fixed-interval baseline.
AdaptiveConfig adaptive_config(const std::string& name,
                               std::size_t baseline_level) {
  using P = AdaptiveCheckpointPolicy;
  if (name == "A_D") return P::adt_dvs();
  if (name == "A_D_S") return P::adapchp_dvs_scp();
  if (name == "A_D_C") return P::adapchp_dvs_ccp();
  if (name == "adapchp-SCP" || name == "adapchp-CCP") {
    auto config = name == "adapchp-SCP" ? P::adapchp_scp() : P::adapchp_ccp();
    config.fixed_level = baseline_level;
    return config;
  }
  // Rate-tracking variants for non-Poisson fault environments: the
  // adaptive rule re-estimates lambda from observed inter-fault gaps
  // instead of trusting the nominal rate for the whole run.
  if (name == "A_D-est") return P::with_estimator(P::adt_dvs());
  if (name == "A_D_S-est") return P::with_estimator(P::adapchp_dvs_scp());
  if (name == "A_D_C-est") return P::with_estimator(P::adapchp_dvs_ccp());
  throw std::invalid_argument("unknown policy: " + name);
}

}  // namespace

std::unique_ptr<sim::ICheckpointPolicy> make_policy(
    const std::string& name, std::size_t baseline_level,
    bool recompute_at_commit) {
  if (name == "Poisson") {
    return std::make_unique<PoissonArrivalPolicy>(baseline_level);
  }
  if (name == "k-f-t") {
    return std::make_unique<KFaultTolerantPolicy>(baseline_level);
  }
  auto config = adaptive_config(name, baseline_level);
  config.recompute_at_commit = recompute_at_commit;
  return std::make_unique<AdaptiveCheckpointPolicy>(config);
}

sim::PolicyFactory make_policy_factory(const std::string& name,
                                       std::size_t baseline_level,
                                       bool recompute_at_commit) {
  return [name, baseline_level, recompute_at_commit] {
    return make_policy(name, baseline_level, recompute_at_commit);
  };
}

bool plans_inner_checkpoints(const std::string& name) {
  for (const auto& scheme : kSchemes) {
    if (name == scheme.name) return scheme.plans_inner;
  }
  throw std::invalid_argument("unknown policy: " + name);
}

std::vector<std::string> known_policies() {
  std::vector<std::string> names;
  for (const auto& scheme : kSchemes) names.emplace_back(scheme.name);
  return names;
}

}  // namespace adacheck::policy

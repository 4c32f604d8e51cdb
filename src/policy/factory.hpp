// By-name policy construction for the harness, scenarios and examples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/monte_carlo.hpp"
#include "sim/policy.hpp"

namespace adacheck::policy {

/// Builds a policy by scheme name.  Recognized names (paper's labels):
///   "Poisson"      Poisson-arrival baseline (at `baseline_level`)
///   "k-f-t"        k-fault-tolerant baseline (at `baseline_level`)
///   "A_D"          ADT_DVS adaptive baseline of ref [3]
///   "A_D_S"        adapchp_dvs_SCP (Fig. 6)
///   "A_D_C"        adapchp_dvs_CCP (Fig. 7)
///   "adapchp-SCP"  non-DVS adaptive with SCPs (Fig. 3)
///   "adapchp-CCP"  non-DVS adaptive with CCPs (§2.2)
///   "A_D-est", "A_D_S-est", "A_D_C-est"
///                  rate-tracking variants: the adaptive rule blends
///                  the nominal lambda with the observed inter-fault
///                  gap rate (for non-Poisson fault environments)
/// `recompute_at_commit` makes every adaptive scheme re-plan at each
/// committed CSCP as well (an ablation; the paper re-plans only after
/// faults); the fixed-interval baselines ignore it.
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<sim::ICheckpointPolicy> make_policy(
    const std::string& name, std::size_t baseline_level = 0,
    bool recompute_at_commit = false);

/// A factory closure suitable for sim::run_cell.
sim::PolicyFactory make_policy_factory(const std::string& name,
                                       std::size_t baseline_level = 0,
                                       bool recompute_at_commit = false);

/// True when the named scheme may plan inner checkpoints (an SCP or a
/// CCP between two CSCPs); false for Poisson, k-f-t, A_D and A_D-est,
/// whose every interval is one plain CSCP interval.  Such a scheme's
/// runs read only the lumped cost c = t_s + t_cp and t_r, never t_s or
/// t_cp alone, which is what lets harness::experiment_jobs give the
/// SCP- and CCP-flavor tables' baseline cells one result key.  Every
/// scheme states it next to its name; throws std::invalid_argument for
/// unknown names.
bool plans_inner_checkpoints(const std::string& name);

/// All scheme names recognized by make_policy.
std::vector<std::string> known_policies();

}  // namespace adacheck::policy

// Validation on every public path into the engine and the m search.
//
// The sweep validates each cell's setup once, before its first run,
// and then simulates through unchecked entry points; the adaptive
// policies search for m without re-checking costs the setup already
// validated.  These cases pin that every public entry point still
// rejects each invalid setup, with the same message it always gave.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/num_checkpoints.hpp"
#include "model/fault.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "sim/monte_carlo.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck {
namespace {

/// The message of the std::invalid_argument `body` throws.
std::string message_of(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no std::invalid_argument>";
}

const char kFaultModel[] =
    "SimSetup: fault model needs rate >= 0 and 2..32 processors";
const char kEnvironment[] =
    "FaultEnvironment: invalid spec (shape must be positive, burst requires "
    "exponential arrivals with positive dwells and multiplier >= 1, "
    "common_cause_fraction in [0, 1])";
const char kCosts[] =
    "CheckpointCosts: costs must be non-negative with t_s + t_cp > 0";

struct InvalidSetup {
  const char* name;
  std::function<void(sim::SimSetup&)> spoil;
  /// Expected messages: from simulate and run_cell, which validate the
  /// whole setup first, and from simulate_seeded, which builds the
  /// fault source (with its own checks) before validating the rest.
  std::string checked;
  std::string seeded;
};

std::vector<InvalidSetup> invalid_setups() {
  return {
      {"negative rate", [](sim::SimSetup& s) { s.fault_model.rate = -1e-3; },
       kFaultModel, "FaultModel: invalid"},
      {"one processor",
       [](sim::SimSetup& s) { s.fault_model.processors = 1; }, kFaultModel,
       "FaultModel: invalid"},
      {"invalid renewal environment",
       [](sim::SimSetup& s) {
         s.environment = model::FaultEnvironment::weibull(-1.0);
       },
       kEnvironment, kEnvironment},
      {"invalid burst environment",
       [](sim::SimSetup& s) {
         s.environment = model::FaultEnvironment::bursty(0.5, 100.0, 10.0);
       },
       kEnvironment, kEnvironment},
      {"invalid costs",
       [](sim::SimSetup& s) { s.costs = {-1.0, 20.0, 0.0}; }, kCosts, kCosts},
  };
}

sim::SimSetup valid_setup() {
  return testutil::dvs_setup(4'000.0, 10'000.0, 5, 1e-3);
}

TEST(ValidationPaths, SimulateRejectsEveryInvalidSetup) {
  for (const auto& c : invalid_setups()) {
    auto setup = valid_setup();
    c.spoil(setup);
    const model::FaultTrace trace;
    model::ReplayFaultSource source(trace);
    testutil::ScriptedPolicy policy(testutil::plain_plan(setup, 500.0));
    const auto run = [&] { sim::simulate(setup, policy, source); };
    EXPECT_EQ(message_of(run), c.checked) << c.name;
  }
}

TEST(ValidationPaths, SimulateSeededRejectsEveryInvalidSetup) {
  for (const auto& c : invalid_setups()) {
    auto setup = valid_setup();
    c.spoil(setup);
    const auto policy = policy::make_policy_factory("A_D_S")();
    const auto run = [&] { sim::simulate_seeded(setup, *policy, 7); };
    EXPECT_EQ(message_of(run), c.seeded) << c.name;
  }
}

TEST(ValidationPaths, RunCellRejectsEveryInvalidSetup) {
  for (const auto& c : invalid_setups()) {
    auto setup = valid_setup();
    c.spoil(setup);
    sim::MonteCarloConfig config;
    config.runs = 8;
    const auto factory = policy::make_policy_factory("A_D_S");
    const auto run = [&] { sim::run_cell(setup, factory, config); };
    EXPECT_EQ(message_of(run), c.checked) << c.name;
  }
}

TEST(ValidationPaths, NumScpAndNumCcpRejectInvalidCosts) {
  for (const model::CheckpointCosts costs :
       {model::CheckpointCosts{-1.0, 20.0, 0.0},
        model::CheckpointCosts{0.0, 0.0, 0.0}}) {
    const auto scp = [&] { analytic::num_scp({100.0, 1e-3, costs}); };
    const auto ccp = [&] { analytic::num_ccp({100.0, 1e-3, costs}); };
    EXPECT_EQ(message_of(scp), kCosts);
    EXPECT_EQ(message_of(ccp), kCosts);
  }
}

}  // namespace
}  // namespace adacheck

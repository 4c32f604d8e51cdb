// The fault-environment subsystem: spec validation and registry,
// renewal / Markov-modulated / common-cause fault sources, the
// bit-for-bit compatibility of the exponential environment with the
// pre-environment simulator, cross-thread determinism under bursty
// environments, and the accuracy of the effective-rate approximation
// the analytic layer uses for non-Poisson environments.
#include "model/fault_env.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "model/fault.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "sim/monte_carlo.hpp"
#include "tests/test_helpers.hpp"
#include "util/rng.hpp"

namespace adacheck::model {
namespace {

TEST(FaultEnvironment, DefaultIsThePlainPoissonProcess) {
  const FaultEnvironment env;
  EXPECT_TRUE(env.plain_exponential());
  EXPECT_TRUE(env.valid());
  EXPECT_DOUBLE_EQ(env.rate_multiplier(), 1.0);
}

TEST(FaultEnvironment, ValidationRejectsBadSpecs) {
  EXPECT_FALSE(FaultEnvironment::weibull(0.0).valid());
  EXPECT_FALSE(FaultEnvironment::weibull(-1.0).valid());
  EXPECT_FALSE(FaultEnvironment::log_normal(0.0).valid());
  EXPECT_FALSE(
      FaultEnvironment::exponential().with_common_cause(1.5).valid());
  EXPECT_FALSE(
      FaultEnvironment::exponential().with_common_cause(-0.1).valid());
  // Bursts require positive *finite* dwells and a multiplier >= 1
  // (an infinite dwell would make rate_multiplier() NaN and poison
  // every planning decision downstream).
  EXPECT_FALSE(FaultEnvironment::bursty(0.5, 100.0, 10.0).valid());
  EXPECT_FALSE(FaultEnvironment::bursty(10.0, 0.0, 10.0).valid());
  EXPECT_FALSE(FaultEnvironment::bursty(10.0, 100.0, 0.0).valid());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(FaultEnvironment::bursty(10.0, inf, 10.0).valid());
  EXPECT_FALSE(FaultEnvironment::bursty(10.0, 100.0, inf).valid());
  EXPECT_FALSE(FaultEnvironment::bursty(inf, 100.0, 10.0).valid());
  // Burst modulation composes only with exponential arrivals.
  FaultEnvironment mixed = FaultEnvironment::bursty(10.0, 100.0, 10.0);
  mixed.arrival = ArrivalKind::kWeibull;
  mixed.shape = 2.0;
  EXPECT_FALSE(mixed.valid());
  EXPECT_THROW(mixed.validate(), std::invalid_argument);
}

TEST(FaultEnvironment, RateMultiplierAveragesTheBurstStates) {
  const auto env = FaultEnvironment::bursty(12.0, 2'300.0, 250.0);
  // duty = 250 / 2550; multiplier = 1 + duty * 11.
  const double duty = 250.0 / 2'550.0;
  EXPECT_NEAR(env.rate_multiplier(), 1.0 + duty * 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(FaultEnvironment::weibull(2.0).rate_multiplier(), 1.0);
}

TEST(FaultEnvironment, RegistryKnowsItsNames) {
  const auto names = known_environments();
  ASSERT_GE(names.size(), 9u);
  EXPECT_EQ(names.front(), "poisson");
  for (const auto& name : names) {
    EXPECT_TRUE(is_known_environment(name)) << name;
    EXPECT_NO_THROW(find_environment(name).validate()) << name;
  }
  EXPECT_FALSE(is_known_environment("made-up"));
  EXPECT_THROW(find_environment("made-up"), std::invalid_argument);
  EXPECT_TRUE(find_environment("poisson").plain_exponential());
  EXPECT_TRUE(find_environment("bursty-orbit").burst.enabled);
  EXPECT_GT(find_environment("common-cause").common_cause_fraction, 0.0);
}

TEST(FaultSourceFactory, PlainExponentialConsumesTheExactPoissonStream) {
  // The factory's default-environment source must be bit-identical to
  // the pre-environment PoissonFaultSource: same RNG consumption, same
  // arrival times, same processor assignments.
  const FaultModel fault_model{2.0e-3, false};
  util::Xoshiro256 rng_a(31337), rng_b(31337);
  PoissonFaultSource reference(fault_model, rng_a);
  const auto source =
      make_fault_source(fault_model, FaultEnvironment::exponential(), rng_b);
  double cursor = 0.0;
  for (int i = 0; i < 1'000; ++i) {
    int proc_a = -2, proc_b = -2;
    const double t_a = reference.next_fault_after(cursor, proc_a);
    const double t_b = source->next_fault_after(cursor, proc_b);
    ASSERT_EQ(t_a, t_b) << i;
    ASSERT_EQ(proc_a, proc_b) << i;
    cursor = std::nextafter(t_a, std::numeric_limits<double>::infinity());
  }
}

// Exact statistics captured from the pre-environment simulator (commit
// 0174df2, RelWithDebInfo): the exponential environment must reproduce
// them bit-for-bit — same seeds, same CellStats — forever.
TEST(SeedParity, ExponentialEnvironmentReproducesSeedStatisticsBitForBit) {
  sim::SimSetup setup{model::task_from_utilization(0.78, 1.0, 10'000.0, 5),
                      model::CheckpointCosts::paper_scp_flavor(),
                      model::DvsProcessor::two_speed(2.0),
                      model::FaultModel{1.4e-3, false}};
  sim::MonteCarloConfig config;
  config.runs = 500;
  config.seed = 77;
  const auto stats =
      sim::run_cell(setup, policy::make_policy_factory("A_D_S"), config);
  EXPECT_EQ(stats.completion.successes(), 500u);
  EXPECT_EQ(stats.energy_success.mean(), 0x1.b7b3398967557p+15);
  EXPECT_EQ(stats.finish_time_success.mean(), 0x1.04a922d241d72p+13);
  EXPECT_EQ(stats.faults.mean(), 0x1.5395810624dd3p+3);
  EXPECT_EQ(stats.rollbacks.mean(), 0x1.2de353f7ced91p+3);
}

TEST(SeedParity, TmrStatisticsAlsoBitForBit) {
  sim::SimSetup setup{model::task_from_utilization(0.84, 1.0, 10'000.0, 5),
                      model::CheckpointCosts::paper_ccp_flavor(),
                      model::DvsProcessor::two_speed(2.0),
                      model::FaultModel{2.0e-3, false, 3}};
  sim::MonteCarloConfig config;
  config.runs = 400;
  config.seed = 0xBEEF;
  const auto stats =
      sim::run_cell(setup, policy::make_policy_factory("A_D_C"), config);
  EXPECT_EQ(stats.completion.successes(), 400u);
  EXPECT_EQ(stats.energy_success.mean(), 0x1.b59f55f9b26b1p+15);
  EXPECT_EQ(stats.finish_time_success.mean(), 0x1.d4376e89733c4p+12);
  EXPECT_EQ(stats.faults.mean(), 0x1.a3d70a3d70a3fp+3);
  EXPECT_EQ(stats.rollbacks.mean(), 0x1.67ae147ae147bp-1);
}

// Exact engine output across every fault source, speed path and
// replica count the engine specialises or binds: one cell's
// CellStats plus one seeded run's meter, captured before the engine
// loop became a template over the source type.  A refactor of the
// engine that is meant to keep every byte must keep every value here.
struct CellPin {
  std::size_t successes = 0;
  double energy_success = 0.0;
  double energy_all = 0.0;
  double finish_time = 0.0;
  double faults = 0.0;
  double rollbacks = 0.0;
  double corrections = 0.0;
  double high_speed_cycles = 0.0;
};

struct RunPin {
  std::vector<std::pair<double, double>> breakdown;
  double cycles_executed = 0.0;
  double energy = 0.0;
};

/// The pin literal matching `stats`, printed on mismatch.
std::string describe(const sim::CellStats& s) {
  std::ostringstream os;
  os << std::hexfloat << "{" << s.completion.successes() << ", "
     << s.energy_success.mean() << ", " << s.energy_all.mean() << ", "
     << s.finish_time_success.mean() << ", " << s.faults.mean() << ", "
     << s.rollbacks.mean() << ", " << s.corrections.mean() << ", "
     << s.high_speed_cycles.mean() << "}";
  return os.str();
}

std::string describe(const sim::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat << "{{";
  for (const auto& [f, c] : r.meter.breakdown()) {
    os << "{" << f << ", " << c << "}, ";
  }
  os << "}, " << r.cycles_executed << ", " << r.energy << "}";
  return os.str();
}

void expect_run(const sim::RunResult& run, const RunPin& pin) {
  SCOPED_TRACE("actual run " + describe(run));
  EXPECT_EQ(run.meter.breakdown(), pin.breakdown);
  EXPECT_EQ(run.cycles_executed, pin.cycles_executed);
  EXPECT_EQ(run.energy, pin.energy);
}

/// Runs `runs` runs of the cell, and one run at `seed` on its own.
void expect_parity(const sim::SimSetup& setup,
                   const sim::PolicyFactory& factory, int runs,
                   std::uint64_t seed, const CellPin& cell,
                   const RunPin& run) {
  sim::MonteCarloConfig config;
  config.runs = runs;
  config.seed = seed;
  const auto stats = sim::run_cell(setup, factory, config);
  {
    SCOPED_TRACE("actual cell " + describe(stats));
    EXPECT_EQ(stats.completion.successes(), cell.successes);
    EXPECT_EQ(stats.energy_success.mean(), cell.energy_success);
    EXPECT_EQ(stats.energy_all.mean(), cell.energy_all);
    EXPECT_EQ(stats.finish_time_success.mean(), cell.finish_time);
    EXPECT_EQ(stats.faults.mean(), cell.faults);
    EXPECT_EQ(stats.rollbacks.mean(), cell.rollbacks);
    EXPECT_EQ(stats.corrections.mean(), cell.corrections);
    EXPECT_EQ(stats.high_speed_cycles.mean(), cell.high_speed_cycles);
  }
  const auto policy = factory();
  expect_run(sim::simulate_seeded(setup, *policy, seed), run);
}

sim::SimSetup parity_setup(double utilization, FaultModel fault_model,
                           FaultEnvironment env = {}) {
  return {task_from_utilization(utilization, 1.0, 10'000.0, 5),
          CheckpointCosts::paper_scp_flavor(), DvsProcessor::two_speed(2.0),
          fault_model, env};
}

/// A DVS table of `levels` evenly spaced speeds from f = 1 to f = 2.
DvsProcessor even_levels(int levels) {
  std::vector<SpeedLevel> table;
  const VoltageLaw law;
  for (int i = 0; i < levels; ++i) {
    const double f = 1.0 + static_cast<double>(i) / (levels - 1);
    table.push_back({f, law.voltage_for(f)});
  }
  return DvsProcessor(std::move(table));
}

/// A CCP plan that moves up one speed level, wrapping, at every
/// committed CSCP: each commit hands the engine a replacement decision.
class RotatingSpeedPolicy final : public sim::ICheckpointPolicy {
 public:
  std::string name() const override { return "rotating"; }
  bool reset() override {
    level_ = 0;
    return true;
  }
  sim::Decision initial(const sim::ExecContext& ctx) override {
    return plan(ctx);
  }
  sim::Decision on_fault(const sim::ExecContext& ctx) override {
    return plan(ctx);
  }
  std::optional<sim::Decision> on_commit(const sim::ExecContext& ctx) override {
    level_ = (level_ + 1) % ctx.processor->num_levels();
    return plan(ctx);
  }

 private:
  sim::Decision plan(const sim::ExecContext& ctx) const {
    sim::Decision d;
    d.speed = ctx.processor->level(level_);
    d.cscp_interval = 100.0;
    d.sub_interval = 25.0;
    d.inner = sim::InnerKind::kCcp;
    return d;
  }
  std::size_t level_ = 0;
};

TEST(SeedParity, MmppBurstyOrbitIsPinned) {
  expect_parity(parity_setup(0.78, {1.4e-3, false},
                             find_environment("bursty-orbit")),
                policy::make_policy_factory("A_D_S"), 300, 101,
                {300, 0x1.042a8841815d3p+16, 0x1.042a8841815d3p+16,
                 0x1.eb471488a4115p+12, 0x1.30b17e4b17e4cp+4,
                 0x1.a19999999999cp+3, 0x0p+0, 0x1.6e42085396428p+12},
                {{{0x1p+0, 0x1.952048939221ap+12},
                  {0x1p+1, 0x1.2edb1ef7c8048p+12}},
                 0x1.61fdb3c5ad116p+13, 0x1.f96b43419113ap+15});
}

TEST(SeedParity, WeibullRenewalIsPinned) {
  expect_parity(parity_setup(0.80, {1.6e-3, false},
                             find_environment("weibull-infant")),
                policy::make_policy_factory("A_D_C"), 300, 102,
                {300, 0x1.0ae043a716abep+16, 0x1.0ae043a716abep+16,
                 0x1.ed958a716f432p+12, 0x1.864b17e4b17e5p+3,
                 0x1.323d70a3d70a7p+3, 0x0p+0, 0x1.7e9d02c7479c8p+12},
                {{{0x1p+0, 0x1.9c8d68d7a3a41p+12},
                  {0x1p+1, 0x1.2095fca832028p+12}},
                 0x1.5e91b2bfead3cp+13, 0x1.eedcb11403d58p+15});
}

TEST(SeedParity, LogNormalRenewalIsPinned) {
  expect_parity(parity_setup(0.76, {1.4e-3, false},
                             find_environment("lognormal-heavy")),
                policy::make_policy_factory("A_D"), 300, 103,
                {297, 0x1.042f589e1fc19p+16, 0x1.04a4eea4e1714p+16,
                 0x1.edd2cfebd61cdp+12, 0x1.b9eb851eb851dp+3,
                 0x1.597e4b17e4b19p+3, 0x0p+0, 0x1.6cf8409b07ebap+12},
                {{{0x1p+0, 0x1.e2bad86d70498p+12},
                  {0x1p+1, 0x1.dd3f8b4dfab1p+11}},
                 0x1.68ad4f0a36d1p+13, 0x1.dffd31ddb57d6p+15});
}

TEST(SeedParity, GammaRenewalIsPinned) {
  expect_parity(parity_setup(0.70, {1.2e-3, false},
                             find_environment("gamma-regular")),
                policy::make_policy_factory("k-f-t"), 300, 104,
                {177, 0x1.2c2564cd51e27p+15, 0x1.31f6797350ef4p+15,
                 0x1.2c2564cd51e27p+13, 0x1.42c5f92c5f92dp+3,
                 0x1.4147ae147ae19p+3, 0x0p+0, 0x0p+0},
                {{{0x1p+0, 0x1.2dcbf2df2c33dp+13}},
                 0x1.2dcbf2df2c33dp+13, 0x1.2dcbf2df2c33dp+15});
}

TEST(SeedParity, CommonCauseTmrIsPinned) {
  expect_parity(parity_setup(0.84, {2.0e-3, false, 3},
                             find_environment("common-cause")),
                policy::make_policy_factory("A_D_C"), 300, 105,
                {300, 0x1.d58e34d806b4fp+15, 0x1.d58e34d806b4fp+15,
                 0x1.e9b3591a66928p+12, 0x1.b428f5c28f5c3p+3,
                 0x1.fae147ae147acp+1, 0x1.028f5c28f5c29p+3,
                 0x1.2b9b6063c48e8p+12},
                {{{0x1p+0, 0x1.f193517fcbb58p+11},
                  {0x1p+1, 0x1.789ce56b40066p+12}},
                 0x1.38b3471592f0dp+13, 0x1.f501b9cb32f47p+15});
}

TEST(SeedParity, FaultsDuringOverheadArePinned) {
  expect_parity(parity_setup(0.78, {2.0e-3, true}),
                policy::make_policy_factory("A_D_C"), 300, 106,
                {297, 0x1.10bac7add76e3p+16, 0x1.109b22eff190cp+16,
                 0x1.11ae9d1806e54p+13, 0x1.1aeeeeeeeeeedp+4,
                 0x1.e428f5c28f5c4p+3, 0x0p+0, 0x1.69877096dab3bp+12},
                {{{0x1p+0, 0x1.c5895e2d7f492p+12},
                  {0x1p+1, 0x1.21b3c42b1d8ecp+12}},
                 0x1.739e912c4e6c8p+13, 0x1.023c39a0ee9a4p+16});
}

TEST(SeedParity, ThreeLevelDvsSwitchingSpeedIsPinned) {
  auto setup = parity_setup(0.86, {2.0e-3, false});
  setup.processor = even_levels(3);
  const auto factory = policy::make_policy_factory("A_D_S");
  expect_parity(setup, factory, 300, 107,
                {300, 0x1.ef3acfa62ed29p+15, 0x1.ef3acfa62ed29p+15,
                 0x1.1aa6d3726f894p+13, 0x1.f2e147ae147adp+3,
                 0x1.b66666666666ap+3, 0x0p+0, 0x1.fe2703db2c8e1p+12},
                {{{0x1p+0, 0x1.6df3bc057a0e3p+10},
                  {0x1.8p+0, 0x1.2d628512d2cb7p+13}},
                 0x1.5b20fc93820cfp+13, 0x1.f1d23f1ceb729p+15});
  // The pinned run really switches speed.
  EXPECT_GT(sim::simulate_seeded(setup, *factory(), 107).speed_switches, 0);
}

TEST(SeedParity, SevenLevelTableReachesTheMeterSpillAndIsPinned) {
  auto setup = parity_setup(0.50, {1.0e-3, false});
  setup.processor = even_levels(7);
  const sim::PolicyFactory factory = [] {
    return std::make_unique<RotatingSpeedPolicy>();
  };
  expect_parity(setup, factory, 300, 108,
                {300, 0x1.8b4b1eb851eb9p+15, 0x1.8b4b1eb851eb9p+15,
                 0x1.6331c46164ce9p+12, 0x1.ce147ae147ae4p+1,
                 0x1.c740da740da74p+1, 0x0p+0, 0x1.c857c4d5e6f81p+12},
                {{{0x1p+0, 0x1.c7p+9},
                  {0x1.2aaaaaaaaaaabp+0, 0x1.f0aaaaaaaaaa8p+9},
                  {0x1.5555555555555p+0, 0x1.0d2aaaaaaaaacp+10},
                  {0x1.8p+0, 0x1.22p+10},
                  {0x1.aaaaaaaaaaaaap+0, 0x1.6515555555556p+10},
                  {0x1.d555555555556p+0, 0x1.7c7fffffffffdp+10},
                  {0x1p+1, 0x1.1ap+10}},
                 0x1.00d2aaaaaaaaap+13, 0x1.8bfaaaaaaaaabp+15});
  // One run charges all seven frequencies: more than the inline slots.
  RotatingSpeedPolicy policy;
  EXPECT_EQ(sim::simulate_seeded(setup, policy, 108).meter.breakdown().size(),
            7u);
}

TEST(SeedParity, FiveReplicaGroupIsPinned) {
  expect_parity(parity_setup(0.82, {2.5e-3, false, 5}),
                policy::make_policy_factory("A_D_S"), 300, 109,
                {300, 0x1.abf33a9e2eb63p+15, 0x1.abf33a9e2eb63p+15,
                 0x1.c54e2732ebd67p+12, 0x1.fce81b4e81b4dp+3,
                 0x1.a740da740da73p-4, 0x1.b6147ae147ae2p+3,
                 0x1.0c65895ba10ebp+12},
                {{{0x1p+0, 0x1.44baada361c4ep+12},
                  {0x1p+1, 0x1.0605525c9e3b3p+12}},
                 0x1.256p+13, 0x1.a862a92e4f1dap+15});
}

TEST(SeedParity, ReplayThroughSimulateIsPinned) {
  auto setup = parity_setup(0.80, {1.4e-3, false, 3});
  const FaultTrace trace({{300.0, 0},
                          {310.0, 1},
                          {2'000.0, 2},
                          {4'100.0, kAllReplicas},
                          {6'050.5, 1}});
  ReplayFaultSource source(trace);
  auto policy = policy::make_policy_factory("A_D_S")();
  const auto run = sim::simulate(setup, *policy, source);
  expect_run(run, {{{0x1p+0, 0x1.39294ffd8de2p+12},
                    {0x1p+1, 0x1.10b698bed8652p+12}},
                   0x1.24eff45e3323ap+13, 0x1.ad4b40bd9f566p+15});
  EXPECT_EQ(run.faults, 5);
}

/// Counts arrivals of `source` on [0, horizon).
std::size_t count_arrivals(FaultSource& source, double horizon) {
  std::size_t count = 0;
  double cursor = 0.0;
  int proc = 0;
  for (;;) {
    const double t = source.next_fault_after(cursor, proc);
    if (!(t < horizon)) break;
    ++count;
    cursor = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  return count;
}

TEST(RenewalFaultSource, LongRunRateMatchesLambdaForEveryKind) {
  // Renewal gaps are scaled to mean 1/lambda, so by the elementary
  // renewal theorem the arrival count over a long horizon approaches
  // lambda * horizon for every distribution family.  This is exactly
  // the effective-rate approximation the analytic layer documents for
  // non-exponential environments (rate_multiplier() == 1).
  const FaultModel fault_model{1.0e-3, false};
  const double horizon = 4.0e6;  // ~4000 arrivals
  const struct {
    FaultEnvironment env;
    double tolerance;  // relative; scales with the gap's variance
  } cases[] = {
      {FaultEnvironment::weibull(0.7), 0.10},
      {FaultEnvironment::weibull(2.0), 0.05},
      {FaultEnvironment::log_normal(1.5), 0.15},
      {FaultEnvironment::gamma_arrivals(4.0), 0.05},
  };
  for (const auto& c : cases) {
    util::Xoshiro256 rng(4242);
    RenewalFaultSource source(fault_model, c.env, rng);
    const double count = static_cast<double>(count_arrivals(source, horizon));
    const double expected = fault_model.rate * horizon;
    EXPECT_NEAR(count / expected, 1.0, c.tolerance)
        << to_string(c.env.arrival);
  }
}

TEST(RenewalFaultSource, ZeroRateNeverFires) {
  for (const auto& env :
       {FaultEnvironment::weibull(2.0), FaultEnvironment::log_normal(1.0),
        FaultEnvironment::gamma_arrivals(3.0)}) {
    util::Xoshiro256 rng(9);
    RenewalFaultSource source(FaultModel{0.0, false}, env, rng);
    int proc = 0;
    EXPECT_TRUE(std::isinf(source.next_fault_after(0.0, proc)))
        << to_string(env.arrival);
  }
}

TEST(MmppFaultSource, LongRunRateMatchesTheEffectiveRate) {
  const FaultModel fault_model{2.0e-3, false};
  const auto env = FaultEnvironment::bursty(12.0, 2'300.0, 250.0);
  util::Xoshiro256 rng(777);
  MmppFaultSource source(fault_model, env, rng);
  const double horizon = 4.0e6;
  const double count = static_cast<double>(count_arrivals(source, horizon));
  const double expected = fault_model.rate * env.rate_multiplier() * horizon;
  // Burst clumping inflates the count variance well past Poisson;
  // 8% at ~16600 expected arrivals is ~10 sigma for Poisson but a
  // comfortable margin for this MMPP.
  EXPECT_NEAR(count / expected, 1.0, 0.08);
  // And it must be visibly MORE than the quiet rate alone would give.
  EXPECT_GT(count, fault_model.rate * horizon * 1.5);
}

TEST(MmppFaultSource, ZeroRateNeverFires) {
  util::Xoshiro256 rng(5);
  MmppFaultSource source(FaultModel{0.0, false},
                         FaultEnvironment::bursty(12.0, 100.0, 10.0), rng);
  int proc = 0;
  EXPECT_TRUE(std::isinf(source.next_fault_after(0.0, proc)));
}

TEST(CommonCause, FullFractionStrikesAllReplicasEveryTime) {
  const FaultModel fault_model{1.0e-2, false, 3};
  const auto env = FaultEnvironment::exponential().with_common_cause(1.0);
  util::Xoshiro256 rng(11);
  RenewalFaultSource source(fault_model, env, rng);
  double cursor = 0.0;
  for (int i = 0; i < 200; ++i) {
    int proc = 0;
    const double t = source.next_fault_after(cursor, proc);
    ASSERT_EQ(proc, kAllReplicas) << i;
    cursor = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
}

TEST(CommonCause, FractionSplitsStrikes) {
  const FaultModel fault_model{1.0e-2, false, 2};
  const auto env = FaultEnvironment::exponential().with_common_cause(0.5);
  util::Xoshiro256 rng(23);
  RenewalFaultSource source(fault_model, env, rng);
  int all = 0, single = 0;
  double cursor = 0.0;
  for (int i = 0; i < 2'000; ++i) {
    int proc = 0;
    const double t = source.next_fault_after(cursor, proc);
    (proc == kAllReplicas ? all : single)++;
    cursor = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  EXPECT_NEAR(all, 1'000, 100);
  EXPECT_NEAR(single, 1'000, 100);
}

TEST(CommonCause, DefeatsMajorityVotingInTheEngine) {
  // N = 3 with every strike hitting all replicas: no comparison can
  // ever find a healthy majority, so corrections must be zero and
  // every detection must roll back.  The same scenario without common
  // cause repairs most faults by voting.
  auto setup = testutil::basic_setup(2'000.0, 100'000.0, 50, 2.0e-3);
  setup.fault_model.processors = 3;
  const sim::Decision plan =
      testutil::inner_plan(setup, 500.0, 100.0, sim::InnerKind::kCcp);
  sim::MonteCarloConfig config;
  config.runs = 200;
  config.seed = 99;

  setup.environment = FaultEnvironment::exponential().with_common_cause(1.0);
  const auto correlated = sim::run_cell(
      setup,
      [plan] { return std::make_unique<testutil::ScriptedPolicy>(plan); },
      config);
  EXPECT_GT(correlated.faults.mean(), 0.0);
  EXPECT_DOUBLE_EQ(correlated.corrections.mean(), 0.0);
  EXPECT_GT(correlated.rollbacks.mean(), 0.0);

  setup.environment = FaultEnvironment::exponential();
  const auto independent = sim::run_cell(
      setup,
      [plan] { return std::make_unique<testutil::ScriptedPolicy>(plan); },
      config);
  EXPECT_GT(independent.corrections.mean(), 0.0);
}

TEST(NModularRedundancy, FiveReplicasVoteOutAMinority) {
  // N = 5: two distinct corrupted replicas are still a strict
  // minority, so a CCP comparison repairs them instead of rolling
  // back; a common-cause strike corrupts all five and must roll back.
  auto setup = testutil::basic_setup(400.0, 100'000.0, 50, 0.0);
  setup.fault_model.processors = 5;
  auto policy_plan =
      testutil::inner_plan(setup, 400.0, 100.0, sim::InnerKind::kCcp);

  {
    testutil::ScriptedPolicy policy(policy_plan);
    // Two different replicas struck in the first two sub-intervals.
    const FaultTrace trace({{50.0, 0}, {150.0, 1}});
    ReplayFaultSource source(trace);
    const auto result = sim::simulate(setup, policy, source, {});
    EXPECT_TRUE(result.completed());
    EXPECT_EQ(result.corrections, 2);
    EXPECT_EQ(result.rollbacks, 0);
  }
  {
    testutil::ScriptedPolicy policy(policy_plan);
    const FaultTrace trace({{50.0, kAllReplicas}});
    ReplayFaultSource source(trace);
    const auto result = sim::simulate(setup, policy, source, {});
    EXPECT_TRUE(result.completed());
    EXPECT_EQ(result.corrections, 0);
    EXPECT_GE(result.rollbacks, 1);
  }
}

TEST(NModularRedundancy, CommonCauseStrikesDetectAtTheFullMaskWidth) {
  // Regression: at N = 32 (the widest allowed group) the all-replicas
  // mask must cover every replica — (1u << 32) - 1 would be UB and
  // silently corrupt nothing.
  auto setup = testutil::basic_setup(400.0, 100'000.0, 50, 0.0);
  setup.fault_model.processors = 32;
  testutil::ScriptedPolicy policy(
      testutil::inner_plan(setup, 400.0, 100.0, sim::InnerKind::kCcp));
  const FaultTrace trace({{50.0, kAllReplicas}});
  ReplayFaultSource source(trace);
  const auto result = sim::simulate(setup, policy, source, {});
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.faults, 1);
  EXPECT_EQ(result.corrections, 0);  // no healthy majority to vote with
  EXPECT_GE(result.detections, 1);   // the strike must NOT vanish
  EXPECT_GE(result.rollbacks, 1);
}

void expect_same_stats(const sim::CellStats& a, const sim::CellStats& b) {
  EXPECT_EQ(a.completion.trials(), b.completion.trials());
  EXPECT_EQ(a.completion.successes(), b.completion.successes());
  EXPECT_EQ(a.aborted_runs, b.aborted_runs);
  const std::pair<const util::RunningStats*, const util::RunningStats*>
      tracked[] = {
          {&a.energy_success, &b.energy_success},
          {&a.energy_all, &b.energy_all},
          {&a.finish_time_success, &b.finish_time_success},
          {&a.faults, &b.faults},
          {&a.rollbacks, &b.rollbacks},
          {&a.corrections, &b.corrections},
          {&a.high_speed_cycles, &b.high_speed_cycles},
      };
  for (const auto& [lhs, rhs] : tracked) {
    EXPECT_EQ(lhs->count(), rhs->count());
    if (lhs->count() == 0) continue;
    EXPECT_DOUBLE_EQ(lhs->mean(), rhs->mean());
    EXPECT_DOUBLE_EQ(lhs->variance(), rhs->variance());
    EXPECT_DOUBLE_EQ(lhs->min(), rhs->min());
    EXPECT_DOUBLE_EQ(lhs->max(), rhs->max());
  }
}

TEST(Determinism, BurstyEnvironmentBitIdenticalAcrossThreadCounts) {
  // The 256-run chunk grain and per-run seeding make every environment
  // — not just the paper's Poisson — bit-identical for threads=1 and
  // threads=4.
  auto setup = testutil::dvs_setup(7'800.0, 10'000.0, 5, 1.4e-3);
  setup.environment = find_environment("bursty-correlated");
  sim::MonteCarloConfig serial;
  serial.runs = 700;  // 3 chunks
  serial.seed = 0xB00B5;
  serial.threads = 1;
  sim::MonteCarloConfig parallel = serial;
  parallel.threads = 4;
  const auto a =
      sim::run_cell(setup, policy::make_policy_factory("A_D_S-est"), serial);
  const auto b =
      sim::run_cell(setup, policy::make_policy_factory("A_D_S-est"), parallel);
  expect_same_stats(a, b);
  EXPECT_GT(a.faults.mean(), 0.0);
}

TEST(EffectiveRate, ApproximationPredictsSimulatedFaultCounts) {
  // Cross-check of the analytic layer's effective-rate approximation
  // against full simulations: with an unconstrained deadline and a
  // fixed plan, the mean number of injected faults per run must track
  // lambda_eff * exposure.  The horizon (50,000 time units at f = 1,
  // ~100 expected faults) is deep in the asymptotic renewal regime.
  // Exposure exceeds the 50,000-cycle floor because a failed attempt
  // is detected only at the interval-end CSCP and re-executed whole;
  // under the same Poisson approximation attempts are geometric with
  // success probability exp(-lambda_eff * Itv), giving the
  // 1 / (1 - p) inflation below.  The stated tolerance of the whole
  // approximation chain — effective rate + geometric re-execution —
  // is 10% across renewal and bursty environments (measured: <= 4%).
  for (const char* name : {"weibull-aging", "lognormal-heavy",
                           "gamma-regular", "bursty-orbit"}) {
    auto setup = testutil::basic_setup(50'000.0, 1.0e9, 1'000'000, 2.0e-3);
    setup.environment = find_environment(name);
    const double interval = 50.0;
    const sim::Decision plan = testutil::plain_plan(setup, interval);
    sim::MonteCarloConfig config;
    config.runs = 500;
    config.seed = 0xEFFEC7;
    const auto stats = sim::run_cell(
        setup,
        [plan] { return std::make_unique<testutil::ScriptedPolicy>(plan); },
        config);
    const double lambda_eff =
        setup.fault_model.rate * setup.environment.rate_multiplier();
    const double exposure_floor = 50'000.0;  // computation time at f = 1
    const double attempt_fail = -std::expm1(-lambda_eff * interval);
    const double reexecution = 1.0 / (1.0 - attempt_fail);
    const double predicted = lambda_eff * exposure_floor * reexecution;
    EXPECT_NEAR(stats.faults.mean() / predicted, 1.0, 0.10) << name;
  }
}

TEST(EstimatorPolicy, RunsUnderEveryRegistryEnvironment) {
  // Smoke-level integration: every named environment composes with the
  // rate-tracking adaptive scheme and the full Monte-Carlo pipeline.
  for (const auto& name : known_environments()) {
    auto setup = testutil::dvs_setup(7'000.0, 10'000.0, 5, 1.0e-3);
    setup.environment = find_environment(name);
    sim::MonteCarloConfig config;
    config.runs = 50;
    config.seed = 0x5EED;
    const auto stats =
        sim::run_cell(setup, policy::make_policy_factory("A_D_S-est"), config);
    EXPECT_EQ(stats.completion.trials(), 50u) << name;
    EXPECT_EQ(stats.validation_failures, 0u) << name;
  }
}

}  // namespace
}  // namespace adacheck::model

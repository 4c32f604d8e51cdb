// The engine's clean-attempt branch and commit rules change no result.
//
// A clean plain-CSCP attempt commits in straight-line code, but only in
// untraced runs, because tracing needs the general path's events; and
// the engine applies a kKeep / kDeadlineGuard commit rule itself
// instead of calling on_commit.  So the reference is a traced run of
// the policy behind a wrapper that hides its commit rule (the engine
// then asks on_commit after every clean commit).  Every RunResult
// field, the per-frequency energy breakdown included, must match the
// plain untraced run of the same seed bit for bit.  A counting fault
// source also pins that both modes ask the source the same queries in
// the same order: the branch reuses the first answer it fetched
// instead of asking again.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/fault.hpp"
#include "model/fault_env.hpp"
#include "policy/adaptive.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace adacheck::sim {
namespace {

constexpr int kSeeds = 200;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Field-by-field, bitwise comparison of everything but the trace.
void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& where) {
  EXPECT_EQ(a.outcome, b.outcome) << where;
  EXPECT_EQ(bits(a.finish_time), bits(b.finish_time)) << where;
  EXPECT_EQ(bits(a.energy), bits(b.energy)) << where;
  EXPECT_EQ(bits(a.cycles_executed), bits(b.cycles_executed)) << where;
  EXPECT_EQ(bits(a.cycles_committed), bits(b.cycles_committed)) << where;
  EXPECT_EQ(a.faults, b.faults) << where;
  EXPECT_EQ(a.detections, b.detections) << where;
  EXPECT_EQ(a.corrections, b.corrections) << where;
  EXPECT_EQ(a.rollbacks, b.rollbacks) << where;
  EXPECT_EQ(a.checkpoints_scp, b.checkpoints_scp) << where;
  EXPECT_EQ(a.checkpoints_ccp, b.checkpoints_ccp) << where;
  EXPECT_EQ(a.checkpoints_cscp, b.checkpoints_cscp) << where;
  EXPECT_EQ(a.speed_switches, b.speed_switches) << where;
  EXPECT_EQ(bits(a.meter.total()), bits(b.meter.total())) << where;
  EXPECT_EQ(bits(a.meter.total_cycles()), bits(b.meter.total_cycles()))
      << where;
  const auto breakdown_a = a.meter.breakdown();
  const auto breakdown_b = b.meter.breakdown();
  ASSERT_EQ(breakdown_a.size(), breakdown_b.size()) << where;
  for (std::size_t i = 0; i < breakdown_a.size(); ++i) {
    EXPECT_EQ(bits(breakdown_a[i].first), bits(breakdown_b[i].first))
        << where;
    EXPECT_EQ(bits(breakdown_a[i].second), bits(breakdown_b[i].second))
        << where;
  }
}

/// Forwards to a real source and records every query's cursor.
class CountingFaultSource final : public model::FaultSource {
 public:
  explicit CountingFaultSource(std::unique_ptr<model::FaultSource> inner)
      : inner_(std::move(inner)) {}

  double next_fault_after(double from_exposure, int& processor) override {
    cursors.push_back(bits(from_exposure));
    return inner_->next_fault_after(from_exposure, processor);
  }

  std::vector<std::uint64_t> cursors;

 private:
  std::unique_ptr<model::FaultSource> inner_;
};

/// Forwards every hook but not the commit rule, so the engine asks
/// on_commit after every clean commit (kCustom): the reference for the
/// rules the engine applies itself.
class AskEveryCommit final : public ICheckpointPolicy {
 public:
  explicit AskEveryCommit(std::unique_ptr<ICheckpointPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool reset() override { return inner_->reset(); }
  Decision initial(const ExecContext& ctx) override {
    return inner_->initial(ctx);
  }
  Decision on_fault(const ExecContext& ctx) override {
    return inner_->on_fault(ctx);
  }
  std::optional<Decision> on_commit(const ExecContext& ctx) override {
    return inner_->on_commit(ctx);
  }

 private:
  std::unique_ptr<ICheckpointPolicy> inner_;
};

struct Variant {
  const char* scheme;
  bool recompute_at_commit;
};

std::unique_ptr<ICheckpointPolicy> make(const Variant& v) {
  if (v.recompute_at_commit) {
    auto config = policy::AdaptiveCheckpointPolicy::adapchp_dvs_scp();
    config.recompute_at_commit = true;
    return std::make_unique<policy::AdaptiveCheckpointPolicy>(config);
  }
  return policy::make_policy(v.scheme);
}

SimSetup paper_setup(double utilization, const std::string& environment,
                     int replicas, bool overhead_faults) {
  return {model::task_from_utilization(utilization, 1.0, 10'000.0, 5),
          model::CheckpointCosts::paper_scp_flavor(),
          model::DvsProcessor::two_speed(2.0),
          model::FaultModel{1.4e-3, overhead_faults, replicas},
          model::find_environment(environment)};
}

/// Whether a traced run ended with an abort right after a commit: the
/// deadline guard, not a re-plan, stopped it.
bool guard_aborted(const RunResult& traced) {
  const auto& events = traced.trace.events();
  return traced.outcome == RunOutcome::kAborted && events.size() >= 2 &&
         events[events.size() - 2].kind == TraceEventKind::kCommit;
}

/// What the runs of one setup exercised, summed over a test.
struct Coverage {
  int completed = 0;
  int guard_aborts = 0;
};

/// Runs `variant` on `setup` at kSeeds seeds, reference against fast,
/// through the seeded entry point and through a counting FaultSource&.
void expect_same_runs(const SimSetup& setup, const Variant& variant,
                      const std::string& label, Coverage& coverage) {
  EngineConfig traced;
  traced.record_trace = true;
  const EngineConfig untraced;
  AskEveryCommit reference(make(variant));
  auto fast = make(variant);
  int committed = 0, faulted = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const std::string where = label + " seed " + std::to_string(seed);
    // The seeded path: each concrete source type.
    reference.reset();
    fast->reset();
    const RunResult a = simulate_seeded(setup, reference, seed, traced);
    const RunResult b = simulate_seeded(setup, *fast, seed, untraced);
    expect_same_run(a, b, where);
    if (b.checkpoints_cscp > 0) ++committed;
    if (b.faults > 0) ++faulted;
    if (b.completed()) ++coverage.completed;
    if (guard_aborted(a)) ++coverage.guard_aborts;

    // The type-erased path, counting the source's queries.
    util::Xoshiro256 rng_a(seed), rng_b(seed);
    CountingFaultSource source_a(model::make_fault_source(
        setup.fault_model, setup.environment, rng_a));
    CountingFaultSource source_b(model::make_fault_source(
        setup.fault_model, setup.environment, rng_b));
    reference.reset();
    fast->reset();
    const RunResult c = simulate(setup, reference, source_a, traced);
    const RunResult d = simulate(setup, *fast, source_b, untraced);
    expect_same_run(c, d, where + " (FaultSource&)");
    expect_same_run(a, c, where + " (seeded vs FaultSource&)");
    EXPECT_EQ(source_a.cursors, source_b.cursors) << where;
    if (::testing::Test::HasFailure()) return;
  }
  // The load must exercise both paths: commits, and faults that send
  // attempts down the general path.
  EXPECT_GT(committed, 0) << label;
  EXPECT_GT(faulted, 0) << label;
}

class FastPathEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FastPathEquivalence, TracedAndUntracedRunsAgreeBitForBit) {
  const std::string environment = GetParam();
  const std::vector<Variant> variants = {
      {"Poisson", false}, {"k-f-t", false}, {"A_D", false},
      {"A_D_S", false},   {"A_D_C", false}, {"A_D_S", true}};
  Coverage coverage;
  // U = 0.78 at f1 is a Table-1-like load, at a fault rate high enough
  // that most runs re-plan several times.  U = 1.8 needs the fast speed
  // almost throughout, so the adaptive schemes' deadline guard fires.
  for (double utilization : {0.78, 1.8}) {
    for (const auto& variant : variants) {
      for (int replicas : {2, 3}) {
        for (bool overhead_faults : {false, true}) {
          const std::string label =
              "U=" + std::to_string(utilization) + " " + environment + " " +
              variant.scheme +
              (variant.recompute_at_commit ? "+recompute" : "") + " N=" +
              std::to_string(replicas) +
              (overhead_faults ? " overhead-faults" : "");
          expect_same_runs(paper_setup(utilization, environment, replicas,
                                       overhead_faults),
                           variant, label, coverage);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(coverage.completed, 0) << environment;
  EXPECT_GT(coverage.guard_aborts, 0) << environment;
}

INSTANTIATE_TEST_SUITE_P(Environments, FastPathEquivalence,
                         ::testing::Values("poisson", "weibull-infant",
                                           "bursty-orbit"));

}  // namespace
}  // namespace adacheck::sim

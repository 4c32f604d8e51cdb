// The prepared graph executive runs a graph without touching the heap:
// every run() after the first allocates nothing, on each shipped DAG
// scenario's graphs under a steady and a bursty fault environment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "harness/graph_experiment.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "sched/graph_executive.hpp"

// Counts every heap allocation in this test binary.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The array forms too: sanitizer runtimes define their own, which would
// otherwise bypass the count.
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adacheck {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
long allocations_in(Body body) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(GraphExecutiveAllocations, NonePerRunAfterTheFirst) {
  auto& registry = obs::Registry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);
  ASSERT_FALSE(obs::Tracer::instance().enabled());

  int executives = 0;
  for (const char* file : {"dag_policy_sweep.json", "dag_diamond.json",
                           "dag_pipeline.json", "control_taskset.json"}) {
    const auto scenario = scenario::load_scenario_file(
        std::string(ADACHECK_SCENARIO_DIR) + "/" + file);
    for (auto spec : scenario::bind_graphs(scenario)) {
      for (const char* environment : {"poisson", "bursty-orbit"}) {
        spec.environment = environment;
        for (const double lambda : spec.lambdas) {
          for (const auto& scheduler : spec.schedulers) {
            SCOPED_TRACE(spec.id + " " + environment + " " + scheduler +
                         " lambda " + std::to_string(lambda));
            sched::GraphExecutive executive(
                spec.graph,
                harness::graph_executive_config(spec, lambda, scheduler));
            executive.run(1);
            long faults = 0;
            const long allocations = allocations_in([&] {
              for (std::uint64_t seed = 2; seed < 34; ++seed) {
                faults += executive.run(seed).total_faults;
              }
            });
            EXPECT_EQ(allocations, 0);
            // Guard against a vacuous pin: the runs did draw faults, and
            // the counter sees the one-shot form build its executive.
            if (lambda >= 1e-3) {
              EXPECT_GT(faults, 0);
            }
            EXPECT_GT(allocations_in([&] {
                        sched::run_graph_executive(
                            spec.graph, harness::graph_executive_config(
                                            spec, lambda, scheduler));
                      }),
                      0);
            ++executives;
          }
        }
      }
    }
  }
  registry.set_enabled(was_enabled);
  // 2 environments x (2 x 8 dag_policy_sweep cells, one set per
  // environment of its own axis, + 4 dag_diamond + 4 dag_pipeline + 3
  // control_taskset cells).
  EXPECT_EQ(executives, 54);
}

}  // namespace
}  // namespace adacheck

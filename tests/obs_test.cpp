// The obs telemetry layer: registry metrics, trace events, and the
// one invariant everything else leans on — telemetry never changes a
// result byte.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/stream_report.hpp"
#include "harness/sweep.hpp"
#include "obs/trace.hpp"
#include "util/canonical_json.hpp"
#include "util/json.hpp"

namespace adacheck::obs {
namespace {

// ---------------------------------------------------------------------
// Counter / Gauge / LatencyHisto units

TEST(ObsCounter, MergesConcurrentIncrements) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(ObsGauge, SetAndDeltaCompose) {
  Gauge gauge;
  gauge.set(7);
  gauge.add(3);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsHisto, CountsSumsAndBoundsQuantiles) {
  LatencyHisto histo;
  histo.record(1);
  histo.record(100);
  histo.record(1'000);
  histo.record(10'000);
  EXPECT_EQ(histo.count(), 4);
  EXPECT_EQ(histo.sum_micros(), 11'101);
  EXPECT_EQ(histo.max_micros(), 10'000);
  // Log2 bins: quantiles land on bin upper bounds, clamped to the
  // observed max — order must hold and nothing may exceed the max.
  const double p50 = histo.quantile_micros(0.5);
  const double p99 = histo.quantile_micros(0.99);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, 10'000.0);
}

TEST(ObsHisto, EmptyQuantileIsZero) {
  LatencyHisto histo;
  EXPECT_EQ(histo.count(), 0);
  EXPECT_EQ(histo.quantile_micros(0.5), 0.0);
}

// ---------------------------------------------------------------------
// Registry

TEST(ObsRegistry, DisabledByDefaultAndReferencesAreStable) {
  Registry registry;
  EXPECT_FALSE(registry.enabled());
  Counter& counter = registry.counter("pool.tasks_enqueued");
  counter.add(5);
  // Same name -> same object; reset zeroes in place.
  EXPECT_EQ(&registry.counter("pool.tasks_enqueued"), &counter);
  registry.reset();
  EXPECT_EQ(counter.value(), 0);
  counter.add(2);
  EXPECT_EQ(registry.counter("pool.tasks_enqueued").value(), 2);
}

TEST(ObsRegistry, SnapshotIsNameSorted) {
  Registry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.middle").set(3);
  registry.histogram("h.histo").record(10);
  const StatsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[0].value, 2);
  EXPECT_EQ(snapshot.counters[1].name, "z.last");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 3);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  EXPECT_EQ(snapshot.histograms[0].sum_micros, 10);
}

TEST(ObsRegistry, StatsJsonParsesAndCarriesTheSchema) {
  Registry registry;
  registry.counter("campaign.cache_hits").add(4);
  registry.gauge("serve.queue_depth").set(2);
  registry.histogram("serve.request_us.list").record(250);

  for (const bool pretty : {false, true}) {
    const std::string text = stats_json(registry.snapshot(), pretty);
    const auto root = util::json::parse(text);
    EXPECT_EQ(root.find("schema")->as_string(), kStatsSchema);
    EXPECT_EQ(root.find("counters")->find("campaign.cache_hits")->as_int(), 4);
    EXPECT_EQ(root.find("gauges")->find("serve.queue_depth")->as_int(), 2);
    const util::json::Value* histo =
        root.find("histograms")->find("serve.request_us.list");
    ASSERT_NE(histo, nullptr);
    EXPECT_EQ(histo->find("count")->as_int(), 1);
    EXPECT_EQ(histo->find("sum_micros")->as_int(), 250);
    EXPECT_EQ(histo->find("max_micros")->as_int(), 250);
  }
  // Numbers take the report writer's shortest round-trip spelling: an
  // integral quantile is "250", not "250.0".
  EXPECT_EQ(stats_json(registry.snapshot(), false),
            R"({"schema":"adacheck-stats-v1",)"
            R"("counters":{"campaign.cache_hits":4},)"
            R"("gauges":{"serve.queue_depth":2},)"
            R"("histograms":{"serve.request_us.list":{"count":1,)"
            R"("sum_micros":250,"max_micros":250,"p50_micros":250,)"
            R"("p90_micros":250,"p99_micros":250}}})");
  // Pretty is a formatting choice, not a content one.
  EXPECT_EQ(
      util::canonical_json(util::json::parse(
          stats_json(registry.snapshot(), true))),
      util::canonical_json(util::json::parse(
          stats_json(registry.snapshot(), false))));
}

// ---------------------------------------------------------------------
// Tracer

/// Guard: leaves the process-wide tracer disabled and empty, however
/// the test exits.
struct TracerSandbox {
  TracerSandbox() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  ~TracerSandbox() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST(ObsTracer, BuffersSpansAndInstants) {
  TracerSandbox sandbox;
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  tracer.complete("chunk", "sweep", 100, 50);
  tracer.instant("budget_stop", "sweep");
  EXPECT_EQ(tracer.event_count(), 2u);

  std::ostringstream out;
  tracer.write_json(out);
  const auto root = util::json::parse(out.str());
  EXPECT_EQ(root.find("displayTimeUnit")->as_string(), "ms");
  const util::json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  const auto& span = events->as_array()[0];
  EXPECT_EQ(span.find("name")->as_string(), "chunk");
  EXPECT_EQ(span.find("cat")->as_string(), "sweep");
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_EQ(span.find("ts")->as_int(), 100);
  EXPECT_EQ(span.find("dur")->as_int(), 50);
  const auto& instant = events->as_array()[1];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("s")->as_string(), "t");

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsTracer, SpanNamesRoundTripThroughEscaping) {
  TracerSandbox sandbox;
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const std::string name = "q\"b\\c\x01" "d";
  tracer.complete(name, "test", 1, 2, 3);

  std::ostringstream out;
  tracer.write_json(out);
  const auto root = util::json::parse(out.str());
  const auto& events = root.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("name")->as_string(), name);
  EXPECT_EQ(events[0].find("tid")->as_int(), 3);
}

TEST(ObsTracer, SpanGatesOnEnabledAtConstruction) {
  TracerSandbox sandbox;
  auto& tracer = Tracer::instance();
  {
    Span span("ignored", "test");  // tracing is off -> no event
    tracer.set_enabled(true);
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  {
    Span span("captured", "test");
  }
  EXPECT_EQ(tracer.event_count(), 1u);
}

// ---------------------------------------------------------------------
// The neutrality invariant: identical result bytes with telemetry on
// or off, serial or parallel.

harness::ExperimentSpec neutrality_spec() {
  harness::ExperimentSpec spec;
  spec.id = "obstest";
  spec.title = "telemetry neutrality grid";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D_S"};
  spec.rows = {{0.76, 1.4e-3, {}}, {0.80, 1.6e-3, {}}};
  return spec;
}

/// One sweep -> (report bytes, JSONL bytes), perf section excluded
/// (timing legitimately differs between runs).
std::pair<std::string, std::string> sweep_bytes(int threads) {
  const auto spec = neutrality_spec();
  sim::MonteCarloConfig config;
  config.runs = 300;
  config.seed = 0x0B5;
  config.threads = threads;
  std::ostringstream jsonl;
  harness::JsonlCellStream stream(jsonl, harness::sweep_cell_refs({spec}));
  harness::SweepOptions options;
  options.observer = &stream;
  const auto result = harness::run_sweep({spec}, config, options);
  harness::JsonReportOptions report;
  report.include_perf = false;
  return {harness::sweep_json(result, report), jsonl.str()};
}

TEST(ObsNeutrality, ResultBytesIdenticalWithTelemetryOnOrOff) {
  TracerSandbox sandbox;
  auto& registry = Registry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);

  for (const int threads : {1, 4}) {
    const auto off = sweep_bytes(threads);

    registry.set_enabled(true);
    Tracer::instance().set_enabled(true);
    const auto on = sweep_bytes(threads);
    registry.set_enabled(false);
    Tracer::instance().set_enabled(false);

    // Telemetry collected something...
    EXPECT_GT(registry.counter("sweep.runs").value(), 0);
    EXPECT_GT(Tracer::instance().event_count(), 0u);
    // ...and not one result byte moved, at any thread count.
    EXPECT_EQ(off.first, on.first) << "report bytes, threads=" << threads;
    EXPECT_EQ(off.second, on.second) << "JSONL bytes, threads=" << threads;
    EXPECT_FALSE(off.second.empty());
  }

  registry.set_enabled(was_enabled);
}

}  // namespace
}  // namespace adacheck::obs

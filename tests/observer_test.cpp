// Sweep observers: exactly-once cell callbacks at any thread count,
// monotonic progress, cooperative cancellation, clean drain of the
// chunk queue when an observer throws, and the JSONL cell stream's
// ordering + byte-identity guarantees.
#include "sim/observer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/stream_report.hpp"
#include "harness/sweep.hpp"
#include "sim/monte_carlo.hpp"
#include "tests/test_helpers.hpp"

namespace adacheck::sim {
namespace {

using testutil::basic_setup;

PolicyFactory scripted_factory(const SimSetup& setup, double interval) {
  const Decision plan = testutil::plain_plan(setup, interval);
  return [plan] { return std::make_unique<testutil::ScriptedPolicy>(plan); };
}

/// Three cells with enough runs for several chunks each.
std::vector<CellJob> three_jobs(int runs = 600) {
  const auto setup = basic_setup(2'000.0, 2'600.0, 5, 2e-3);
  const auto factory = scripted_factory(setup, 150.0);
  std::vector<CellJob> jobs;
  for (int j = 0; j < 3; ++j) {
    MonteCarloConfig config;
    config.runs = runs;
    config.seed = 0x100 + static_cast<std::uint64_t>(j);
    jobs.push_back({setup, factory, config});
  }
  return jobs;
}

/// Records every event; callbacks are serialized by the runner, so no
/// locking here — that guarantee is itself under test (a data race
/// would trip TSan/ASan and the exactly-once counts below).
class CountingObserver : public ISweepObserver {
 public:
  void on_cell_start(std::size_t cell) override { ++starts[cell]; }
  void on_cell_done(std::size_t cell, const CellResult& result) override {
    ++dones[cell];
    results[cell] = result;
  }
  void on_progress(const SweepProgress& progress) override {
    EXPECT_GE(progress.cells_done, last.cells_done);
    EXPECT_GE(progress.runs_done, last.runs_done);
    last = progress;
    ++progress_calls;
  }

  std::map<std::size_t, int> starts, dones;
  std::map<std::size_t, CellResult> results;
  SweepProgress last;
  int progress_calls = 0;
};

TEST(Observer, CallbacksFireExactlyOncePerCellAtAnyThreadCount) {
  const auto jobs = three_jobs();
  std::vector<CellResult> reference;
  for (const int threads : {1, 4}) {
    CountingObserver observer;
    RunCellsOptions options;
    options.threads = threads;
    options.observer = &observer;
    const auto results = run_cells_ex(jobs, options);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(observer.starts[j], 1) << "cell " << j << " @" << threads;
      EXPECT_EQ(observer.dones[j], 1) << "cell " << j << " @" << threads;
      // The observed result is the final merged cell.
      EXPECT_EQ(observer.results[j].stats.completion.successes(),
                results[j].stats.completion.successes());
    }
    EXPECT_EQ(observer.last.cells_done, jobs.size());
    EXPECT_EQ(observer.last.cells_total, jobs.size());
    EXPECT_EQ(observer.last.runs_done, observer.last.runs_total);
    EXPECT_EQ(observer.last.runs_total, 3 * 600);
    // One progress tick per chunk: 600 runs = 3 chunks per cell.
    EXPECT_EQ(observer.progress_calls, 9);

    if (threads == 1) {
      reference = results;
    } else {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(results[j].stats.completion.successes(),
                  reference[j].stats.completion.successes());
        EXPECT_DOUBLE_EQ(results[j].stats.energy_all.mean(),
                         reference[j].stats.energy_all.mean());
      }
    }
  }
}

TEST(Observer, ObserverPathMatchesNullPathBitForBit) {
  const auto jobs = three_jobs();
  const auto null_path = run_cells_ex(jobs, {});
  CountingObserver observer;
  RunCellsOptions options;
  options.threads = 4;
  options.observer = &observer;
  const auto observed = run_cells_ex(jobs, options);
  ASSERT_EQ(null_path.size(), observed.size());
  for (std::size_t j = 0; j < null_path.size(); ++j) {
    EXPECT_EQ(null_path[j].stats.completion.successes(),
              observed[j].stats.completion.successes());
    EXPECT_DOUBLE_EQ(null_path[j].stats.energy_all.mean(),
                     observed[j].stats.energy_all.mean());
    EXPECT_DOUBLE_EQ(null_path[j].stats.energy_all.variance(),
                     observed[j].stats.energy_all.variance());
  }
}

// --- cancellation --------------------------------------------------------

/// Requests stop as soon as the first cell completes.
class CancelAfterFirstCell : public ISweepObserver {
 public:
  explicit CancelAfterFirstCell(CancellationToken& token) : token_(token) {}
  void on_cell_done(std::size_t, const CellResult&) override {
    token_.request_stop();
  }

 private:
  CancellationToken& token_;
};

TEST(Observer, CancellationThrowsSweepCancelledWithoutDeadlock) {
  for (const int threads : {1, 4}) {
    const auto jobs = three_jobs();
    CancellationToken token;
    CancelAfterFirstCell observer(token);
    RunCellsOptions options;
    options.threads = threads;
    options.observer = &observer;
    options.cancel = &token;
    EXPECT_THROW(run_cells_ex(jobs, options), SweepCancelled) << threads;
  }
  // The pool drained cleanly: a fresh sweep on the same shared pool
  // still works and still produces complete results.
  const auto after = run_cells_ex(three_jobs(), {});
  EXPECT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].stats.completion.trials(), 600u);
}

/// Requests stop from the last on_cell_done, when every chunk has
/// already been claimed and no worker will look at the token again.
class CancelOnLastCell : public ISweepObserver {
 public:
  CancelOnLastCell(CancellationToken& token, std::size_t cells)
      : token_(token), cells_(cells) {}
  void on_cell_done(std::size_t, const CellResult&) override {
    if (++done_ == cells_) token_.request_stop();
  }

 private:
  CancellationToken& token_;
  std::size_t cells_;
  std::size_t done_ = 0;  // callbacks are serialized by the runner
};

TEST(Observer, StopFromLastCellDoneStillThrowsSweepCancelled) {
  for (const int threads : {1, 4}) {
    for (const bool budgeted : {false, true}) {
      auto jobs = three_jobs();
      // A loose target stops each budgeted cell after its first wave;
      // those cells report done after the round barrier.
      if (budgeted) {
        for (auto& job : jobs) job.config.budget.target_p_halfwidth = 0.5;
      }
      CancellationToken token;
      CancelOnLastCell observer(token, jobs.size());
      RunCellsOptions options;
      options.threads = threads;
      options.observer = &observer;
      options.cancel = &token;
      EXPECT_THROW(run_cells_ex(jobs, options), SweepCancelled)
          << "threads=" << threads << " budgeted=" << budgeted;
    }
  }
}

TEST(Observer, PreCancelledTokenRunsNothing) {
  CancellationToken token;
  token.request_stop();
  RunCellsOptions options;
  options.cancel = &token;  // cancel-only: no observer at all
  EXPECT_THROW(run_cells_ex(three_jobs(), options), SweepCancelled);
}

// --- exception paths (the drain bugfix regression) -----------------------

/// Throws from the Nth on_cell_done callback.
class ThrowingObserver : public ISweepObserver {
 public:
  void on_cell_done(std::size_t, const CellResult&) override {
    throw std::runtime_error("observer exploded");
  }
};

TEST(Observer, ThrowingObserverPropagatesWithoutDeadlockingTheQueue) {
  for (const int threads : {1, 4}) {
    ThrowingObserver observer;
    RunCellsOptions options;
    options.threads = threads;
    options.observer = &observer;
    try {
      run_cells_ex(three_jobs(), options);
      FAIL() << "expected the observer's exception (threads=" << threads
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "observer exploded");
    }
  }
  // No leaked queue state: the shared pool immediately serves a fresh,
  // complete sweep.
  const auto after = run_cells_ex(three_jobs(), {});
  EXPECT_EQ(after[2].stats.completion.trials(), 600u);
}

/// A recorder whose observe() throws mid-cell.
class ExplodingRecorder final : public IMetricRecorder {
 public:
  std::string_view name() const override { return "exploding"; }
  void observe(const RunView&) override {
    throw std::runtime_error("recorder exploded");
  }
  void merge(const IMetricRecorder&) override {}
  void emit(MetricValues::Group&) const override {}
};

TEST(Observer, ThrowingRecorderPropagatesThroughTheTaskGroup) {
  auto suite = std::make_shared<MetricSuite>();
  suite->add("exploding", [](const SimSetup&) {
    return std::make_unique<ExplodingRecorder>();
  });
  auto jobs = three_jobs();
  for (auto& job : jobs) job.config.metrics = suite;
  for (const int threads : {1, 4}) {
    RunCellsOptions options;
    options.threads = threads;
    try {
      run_cells_ex(jobs, options);
      FAIL() << "expected the recorder's exception (threads=" << threads
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "recorder exploded");
    }
  }
  const auto after = run_cells_ex(three_jobs(), {});
  EXPECT_EQ(after[1].stats.completion.trials(), 600u);
}

// --- the JSONL cell stream -----------------------------------------------

harness::ExperimentSpec jsonl_spec() {
  harness::ExperimentSpec spec;
  spec.id = "jsonltest";
  spec.title = "jsonl stream grid";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D_S"};
  spec.rows = {{0.76, 1.4e-3, {}}, {0.80, 1.6e-3, {}}};
  return spec;
}

std::string jsonl_stream(int threads) {
  const auto spec = jsonl_spec();
  sim::MonteCarloConfig config;
  config.runs = 300;
  config.seed = 0x15EA5;
  config.threads = threads;
  std::ostringstream out;
  harness::JsonlCellStream stream(out,
                                  harness::sweep_cell_refs({spec}));
  harness::SweepOptions options;
  options.observer = &stream;
  harness::run_sweep({spec}, config, options);
  EXPECT_EQ(stream.emitted(), 4u);
  return out.str();
}

TEST(JsonlStream, ByteIdenticalAcrossThreadCounts) {
  const std::string serial = jsonl_stream(1);
  const std::string parallel = jsonl_stream(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"schema\":\"adacheck-cell-v2\""),
            std::string::npos);
}

TEST(JsonlStream, OneOrderedLinePerCell) {
  const std::string text = jsonl_stream(4);
  std::istringstream lines(text);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find("{\"schema\":\"adacheck-cell-v2\",\"cell\":" +
                        std::to_string(expected) + ","),
              0u)
        << line;
    EXPECT_EQ(line.back(), '}');
    ++expected;
  }
  EXPECT_EQ(expected, 4u);
  // Cells stream in flat index order: row 0 scheme 0, row 0 scheme 1,
  // row 1 scheme 0, row 1 scheme 1.
  EXPECT_LT(text.find("\"scheme\":\"Poisson\""),
            text.find("\"scheme\":\"A_D_S\""));
}

}  // namespace
}  // namespace adacheck::sim

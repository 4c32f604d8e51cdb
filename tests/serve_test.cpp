// serve/{protocol,job_manager,server}.hpp: the adacheck-serve-v1 wire
// protocol, the bounded priority job queue, and the loopback TCP
// daemon.  The load-bearing properties: a served job's JSONL stream is
// byte-identical to `adacheck run --jsonl` for the same document at
// any thread count, scheduling is highest-priority-first with FIFO
// within a level, the queue applies backpressure instead of buffering
// without bound, cancellation lands promptly leaving a clean stream
// prefix, and the job history stays bounded without cutting off a
// streamer.
#include "serve/client.hpp"
#include "serve/job_manager.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/stream_report.hpp"
#include "scenario/binder.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace adacheck::serve {
namespace {

using scenario::ScenarioError;

const char* kMiniScenario = R"({
  "schema": "adacheck-scenario-v1",
  "name": "mini",
  "config": {"runs": 64, "seed": 5},
  "experiments": [{
    "id": "mini",
    "costs": {"store": 2, "compare": 20, "rollback": 0},
    "fault_tolerance": 5,
    "schemes": ["Poisson", "k-f-t"],
    "rows": [{"utilization": 0.6, "lambda": 1.0e-3},
             {"utilization": 0.8, "lambda": 1.4e-3}]
  }]
})";

// Enough cells x runs that a cancel lands mid-sweep, never a race to
// an already-finished job.
const char* kSlowScenario = R"({
  "schema": "adacheck-scenario-v1",
  "name": "slow",
  "config": {"runs": 6000, "seed": 11},
  "experiments": [{
    "id": "slow",
    "costs": {"store": 2, "compare": 20, "rollback": 0},
    "fault_tolerance": 5,
    "schemes": ["Poisson", "k-f-t", "A_D"],
    "rows": [{"utilization": 0.5, "lambda": 1.0e-3},
             {"utilization": 0.6, "lambda": 1.2e-3},
             {"utilization": 0.7, "lambda": 1.4e-3},
             {"utilization": 0.8, "lambda": 1.6e-3},
             {"utilization": 0.9, "lambda": 1.8e-3}]
  }]
})";

// One cell of one run: a job whose cost is all serve overhead.
const char* kTinyScenario = R"({
  "schema": "adacheck-scenario-v1",
  "name": "tiny",
  "config": {"runs": 1, "seed": 3},
  "experiments": [{
    "id": "tiny",
    "costs": {"store": 2, "compare": 20, "rollback": 0},
    "fault_tolerance": 5,
    "schemes": ["Poisson"],
    "rows": [{"utilization": 0.6, "lambda": 1.0e-3}]
  }]
})";

scenario::ScenarioSpec mini_spec() {
  return scenario::parse_scenario_text(kMiniScenario);
}

/// The reference bytes: what `adacheck run --jsonl` writes for the
/// same document.
std::string batch_jsonl(const scenario::ScenarioSpec& spec) {
  const auto specs = scenario::bind_experiments(spec);
  std::ostringstream bytes;
  harness::JsonlCellStream stream(bytes, harness::sweep_cell_refs(specs));
  harness::SweepOptions options;
  options.observer = &stream;
  scenario::run_scenario(spec, options);
  return bytes.str();
}

/// Drains a job's stream through the public wait API until terminal.
std::string stream_all(const JobManager& manager,
                       const JobManager::JobHandle& job) {
  std::string bytes;
  for (;;) {
    const auto chunk = manager.stream_wait(job, bytes.size());
    bytes += chunk.bytes;
    if (chunk.terminal) return bytes;
  }
}

/// Blocks every job for which `gated` is true in before_job until
/// open() is called.
class Gate {
 public:
  std::function<void(std::uint64_t)> hook(
      std::function<bool(std::uint64_t)> gated) {
    return [this, gated](std::uint64_t id) {
      if (!gated(id)) return;
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return open_; });
    };
  }
  void open() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

void wait_for_state(const JobManager& manager, std::uint64_t id,
                    JobState state) {
  for (int i = 0; i < 10000; ++i) {
    const auto info = manager.status(id);
    ASSERT_TRUE(info.has_value());
    if (info->state == state) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " never reached " << to_string(state);
}

// --- protocol ------------------------------------------------------------

TEST(ServeProtocol, ParsesEveryRequestType) {
  const auto submit = parse_request(
      R"({"req": "submit", "scenario": {"x": 1}, "priority": 7,
          "threads": 2, "source": "lab"})");
  EXPECT_EQ(submit.type, Request::Type::kSubmit);
  ASSERT_TRUE(submit.document.has_value());
  EXPECT_EQ(submit.priority, 7);
  EXPECT_EQ(submit.threads, 2);
  EXPECT_EQ(submit.source, "lab");

  const auto by_path =
      parse_request(R"({"req": "submit", "path": "s.json"})");
  EXPECT_EQ(by_path.path, "s.json");
  EXPECT_EQ(by_path.source, "s.json");  // defaults to the path

  const auto status = parse_request(R"({"req": "status", "job": 3})");
  EXPECT_EQ(status.type, Request::Type::kStatus);
  EXPECT_EQ(status.job, 3u);

  const auto stream =
      parse_request(R"({"req": "stream", "job": 2, "from": 100})");
  EXPECT_EQ(stream.type, Request::Type::kStream);
  EXPECT_EQ(stream.from, 100u);

  EXPECT_EQ(parse_request(R"({"req": "list"})").type, Request::Type::kList);
  EXPECT_EQ(parse_request(R"({"req": "cancel", "job": 1})").type,
            Request::Type::kCancel);
  EXPECT_EQ(parse_request(R"({"req": "stats"})").type, Request::Type::kStats);
  EXPECT_EQ(parse_request(R"({"req": "shutdown"})").type,
            Request::Type::kShutdown);
}

TEST(ServeProtocol, StatsIsAKeylessRequest) {
  // No payload keys: anything beyond "req" is a schema violation.
  EXPECT_THROW(parse_request(R"({"req": "stats", "job": 1})"),
               ScenarioError);
  // And the did-you-mean net catches the obvious typo.
  try {
    parse_request(R"({"req": "stat"})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"stats\"?"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, UnknownRequestTypeSuggestsTheClosest) {
  try {
    parse_request(R"({"req": "submitt"})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"submit\"?"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(parse_request(R"({"req": "submit", "scenario": {},
                                 "proirity": 1})"),
               ScenarioError);
  // Exactly one of scenario/path.
  EXPECT_THROW(parse_request(R"({"req": "submit"})"), ScenarioError);
  EXPECT_THROW(parse_request(
                   R"({"req": "submit", "scenario": {}, "path": "x"})"),
               ScenarioError);
  EXPECT_THROW(parse_request(R"({"req": "status"})"), ScenarioError);
  EXPECT_THROW(parse_request(R"({"req": "status", "job": 0})"),
               ScenarioError);
  EXPECT_THROW(parse_request(R"({"req": "stream", "job": 1, "from": -1})"),
               ScenarioError);
  EXPECT_THROW(parse_request("not json"), util::json::ParseError);
}

// --- job manager ---------------------------------------------------------

TEST(ServeJobManager, StreamIsByteIdenticalToBatchRunAtAnyThreads) {
  const auto spec = mini_spec();
  const std::string reference = batch_jsonl(spec);
  ASSERT_FALSE(reference.empty());

  JobManager manager;
  for (const int threads : {1, 4}) {
    JobRequest request;
    request.scenario = spec;
    request.threads = threads;
    const auto id = manager.submit(request);
    EXPECT_EQ(stream_all(manager, manager.find(id)), reference)
        << "threads=" << threads;
    const auto info = manager.status(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kDone);
    EXPECT_EQ(info->cells_done, info->cells_total);
    EXPECT_GT(info->runs_executed, 0);
    EXPECT_EQ(info->jsonl_bytes, reference.size());
  }
}

TEST(ServeJobManager, PriorityOrderWithFifoWithinALevel) {
  // One worker; job 1 blocks inside before_job until released, so jobs
  // 2-4 are all queued when the worker picks again.  The pick order
  // after release must be priority-descending, FIFO within a level.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::uint64_t> picked;

  JobManagerOptions options;
  options.workers = 1;
  options.before_job = [&](std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu);
    picked.push_back(id);
    if (id == 1) cv.wait(lock, [&] { return release; });
  };
  JobManager manager(options);

  JobRequest request;
  request.scenario = mini_spec();
  ASSERT_EQ(manager.submit(request), 1u);
  wait_for_state(manager, 1, JobState::kRunning);

  request.priority = 0;
  ASSERT_EQ(manager.submit(request), 2u);
  request.priority = 5;
  ASSERT_EQ(manager.submit(request), 3u);
  ASSERT_EQ(manager.submit(request), 4u);

  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  for (const std::uint64_t id : {1u, 2u, 3u, 4u}) {
    wait_for_state(manager, id, JobState::kDone);
  }
  EXPECT_EQ(picked, (std::vector<std::uint64_t>{1, 3, 4, 2}));
}

TEST(ServeJobManager, FullQueueRejectsWithBackpressure) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  JobManagerOptions options;
  options.workers = 1;
  options.max_queued = 1;
  options.before_job = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  JobManager manager(options);

  JobRequest request;
  request.scenario = mini_spec();
  const auto first = manager.submit(request);
  wait_for_state(manager, first, JobState::kRunning);  // queue is empty again
  manager.submit(request);                             // fills the one slot
  EXPECT_EQ(manager.queued(), 1u);
  try {
    manager.submit(request);
    FAIL() << "expected QueueFull";
  } catch (const QueueFull& e) {
    EXPECT_EQ(e.limit(), 1u);
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  wait_for_state(manager, 2, JobState::kDone);
  // Capacity freed: submitting works again.
  EXPECT_EQ(manager.submit(request), 3u);
  wait_for_state(manager, 3, JobState::kDone);
}

TEST(ServeJobManager, CancelQueuedJobNeverRuns) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::uint64_t> picked;

  JobManagerOptions options;
  options.workers = 1;
  options.before_job = [&](std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu);
    picked.push_back(id);
    if (id == 1) cv.wait(lock, [&] { return release; });
  };
  JobManager manager(options);

  JobRequest request;
  request.scenario = mini_spec();
  ASSERT_EQ(manager.submit(request), 1u);
  wait_for_state(manager, 1, JobState::kRunning);
  ASSERT_EQ(manager.submit(request), 2u);

  EXPECT_EQ(manager.cancel(2), JobState::kCancelled);
  EXPECT_FALSE(manager.cancel(99).has_value());
  const auto info = manager.status(2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_EQ(manager.queued(), 0u);
  // A cancelled queued job streams as an immediately terminal empty
  // stream.
  const auto chunk = manager.stream_wait(manager.find(2), 0);
  EXPECT_TRUE(chunk.terminal);
  EXPECT_TRUE(chunk.bytes.empty());

  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  wait_for_state(manager, 1, JobState::kDone);
  EXPECT_EQ(picked, (std::vector<std::uint64_t>{1}));
}

TEST(ServeJobManager, CancelRunningJobLeavesACleanPrefix) {
  const auto spec = scenario::parse_scenario_text(kSlowScenario);
  const std::string reference = batch_jsonl(spec);

  JobManager manager;
  JobRequest request;
  request.scenario = spec;
  const auto id = manager.submit(request);

  // Wait for the first completed cell, then cancel mid-sweep.
  const auto job = manager.find(id);
  const auto first = manager.stream_wait(job, 0);
  ASSERT_FALSE(first.bytes.empty());
  EXPECT_TRUE(manager.cancel(id).has_value());
  const std::string bytes = first.bytes + stream_all(manager, job).substr(
                                              first.bytes.size());

  const auto info = manager.status(id);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->state, JobState::kCancelled);
  // Cancelled short of the full sweep...
  EXPECT_LT(info->cells_done, info->cells_total);
  EXPECT_LT(bytes.size(), reference.size());
  // ...and what was streamed is a clean line-aligned prefix of the
  // batch stream (cells 0..k in index order, nothing torn).
  EXPECT_EQ(bytes, reference.substr(0, bytes.size()));
  EXPECT_TRUE(bytes.empty() || bytes.back() == '\n');
}

TEST(ServeJobManager, InvalidDocumentsFailBeforeQueueing) {
  JobManager manager;
  JobRequest request;
  request.scenario = mini_spec();
  request.scenario.experiments[0].table = "no-such-table";  // bind fails
  EXPECT_THROW(manager.submit(request), ScenarioError);

  const auto id = manager.record_invalid("lab-7", "no experiments");
  const auto info = manager.status(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_EQ(info->source, "lab-7");
  EXPECT_EQ(info->error, "no experiments");
  EXPECT_EQ(manager.queued(), 0u);
  // Terminal immediately: a streamer gets EOT, list() includes it.
  EXPECT_TRUE(manager.stream_wait(manager.find(id), 0).terminal);
  EXPECT_EQ(manager.list().size(), 1u);
  EXPECT_EQ(manager.find(id + 1), nullptr);
}

TEST(ServeJobManager, ShutdownCancelsEverythingAndUnblocksStreams) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  JobManagerOptions options;
  options.workers = 1;
  options.before_job = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  auto manager = std::make_unique<JobManager>(options);

  JobRequest request;
  request.scenario = mini_spec();
  manager->submit(request);
  manager->submit(request);
  wait_for_state(*manager, 1, JobState::kRunning);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  manager->shutdown();  // blocks on the worker; releaser unblocks it
  releaser.join();

  const auto jobs = manager->list();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_TRUE(is_terminal(jobs[0].state));
  EXPECT_EQ(jobs[1].state, JobState::kCancelled);  // was still queued
  EXPECT_TRUE(manager->stream_wait(manager->find(2), 0).terminal);
  EXPECT_THROW(manager->submit(request), std::runtime_error);
}

TEST(ServeJobManager, HistoryKeepsOnlyTheNewestFinishedJobs) {
  // One worker, FIFO: the tiny jobs finish in id order, then the gate
  // job blocks the worker so the job behind it stays queued.
  constexpr std::size_t kTiny = kMaxFinishedJobs + 8;
  const std::uint64_t gate_id = kTiny + 1;
  const std::uint64_t queued_id = kTiny + 2;
  Gate gate;
  JobManagerOptions options;
  options.workers = 1;
  options.max_queued = kTiny + 2;
  options.before_job =
      gate.hook([&](std::uint64_t id) { return id == gate_id; });
  JobManager manager(options);

  JobRequest request;
  request.scenario = scenario::parse_scenario_text(kTinyScenario);
  for (std::size_t i = 0; i < kTiny + 2; ++i) manager.submit(request);
  wait_for_state(manager, gate_id, JobState::kRunning);

  // The 8 oldest finished jobs are gone from every verb...
  for (std::uint64_t id = 1; id <= 8; ++id) {
    EXPECT_FALSE(manager.status(id).has_value()) << id;
    EXPECT_FALSE(manager.cancel(id).has_value()) << id;
    EXPECT_EQ(manager.find(id), nullptr) << id;
  }
  // ...and list() holds exactly the retained ones: the newest
  // kMaxFinishedJobs finished jobs plus the running and queued ones.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t id = 9; id <= queued_id; ++id) expected.push_back(id);
  std::vector<std::uint64_t> listed;
  for (const auto& info : manager.list()) listed.push_back(info.id);
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(manager.status(9).value().state, JobState::kDone);
  EXPECT_EQ(manager.status(queued_id).value().state, JobState::kQueued);

  // Finishing the last two evicts two more; neither of them goes.
  gate.open();
  wait_for_state(manager, queued_id, JobState::kDone);
  listed.clear();
  for (const auto& info : manager.list()) listed.push_back(info.id);
  expected.erase(expected.begin(), expected.begin() + 2);
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(listed.size(), kMaxFinishedJobs);
}

TEST(ServeJobManager, StreamerReadsToEotAfterItsJobIsEvicted) {
  const auto spec = mini_spec();
  const std::string reference = batch_jsonl(spec);
  Gate gate;
  JobManagerOptions options;
  options.workers = 1;
  options.before_job = gate.hook([](std::uint64_t id) { return id == 1; });
  JobManager manager(options);

  JobRequest request;
  request.scenario = spec;
  ASSERT_EQ(manager.submit(request), 1u);
  wait_for_state(manager, 1, JobState::kRunning);
  const auto job = manager.find(1);
  ASSERT_NE(job, nullptr);

  // A streamer blocks on the job while it runs, finishes, and is pushed
  // out of the history by kMaxFinishedJobs newer finished jobs.
  std::string streamed;
  std::thread streamer([&] { streamed = stream_all(manager, job); });
  gate.open();
  wait_for_state(manager, 1, JobState::kDone);
  for (std::size_t i = 0; i < kMaxFinishedJobs; ++i) {
    manager.record_invalid("filler", "evicts job 1");
  }
  EXPECT_FALSE(manager.status(1).has_value());
  streamer.join();
  EXPECT_EQ(streamed, reference);

  // The handle still reads the whole stream, ending terminal and done.
  const auto chunk = manager.stream_wait(job, 0);
  EXPECT_EQ(chunk.bytes, reference);
  EXPECT_TRUE(chunk.terminal);
  EXPECT_EQ(chunk.state, JobState::kDone);
}

// --- server (loopback socket round-trips) --------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.transcript = &transcript_;
    server_ = std::make_unique<Server>(std::move(options));
    runner_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->request_shutdown();
    runner_.join();
    server_.reset();
  }

  /// One request line in, one response line out, parsed.  The wire
  /// protocol is newline-delimited, so embedded newlines in the JSON
  /// (raw-string test documents) are flattened first.
  util::json::Value rpc(LineClient& client, std::string line) {
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    client.send_line(line);
    const auto response = client.recv_line();
    EXPECT_TRUE(response.has_value());
    return util::json::parse(response.value_or("null"));
  }

  std::string inline_submit(int priority = 0) {
    return R"({"req": "submit", "priority": )" + std::to_string(priority) +
           R"(, "scenario": )" + std::string(kMiniScenario) + "}";
  }

  std::ostringstream transcript_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

TEST_F(ServeServerTest, SubmitStatusStreamRoundTrip) {
  const std::string reference = batch_jsonl(mini_spec());
  LineClient client("127.0.0.1", server_->port());

  const auto submitted = rpc(client, inline_submit());
  EXPECT_TRUE(submitted.find("ok")->as_bool());
  ASSERT_NE(submitted.find("job"), nullptr);
  EXPECT_EQ(submitted.find("job")->as_int(), 1);

  // Stream the whole job: opening response, raw cell lines, EOT.
  client.send_line(R"({"req": "stream", "job": 1})");
  const auto opening = util::json::parse(client.recv_line().value());
  EXPECT_TRUE(opening.find("ok")->as_bool());
  EXPECT_EQ(opening.find("req")->as_string(), "stream");
  std::string bytes;
  for (;;) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    if (line->find(kEotSchema) != std::string::npos) {
      const auto eot = util::json::parse(*line);
      EXPECT_EQ(eot.find("state")->as_string(), "done");
      EXPECT_EQ(eot.find("bytes")->as_int(),
                static_cast<std::int64_t>(reference.size()));
      break;
    }
    bytes += *line + "\n";
  }
  EXPECT_EQ(bytes, reference);

  const auto status = rpc(client, R"({"req": "status", "job": 1})");
  const auto* job = status.find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->find("state")->as_string(), "done");
  EXPECT_EQ(job->find("name")->as_string(), "mini");

  // Transcript saw both directions.
  const std::string transcript = transcript_.str();
  EXPECT_NE(transcript.find(">> "), std::string::npos);
  EXPECT_NE(transcript.find("<< "), std::string::npos);
  EXPECT_NE(transcript.find("streamed"), std::string::npos);
}

TEST_F(ServeServerTest, ConcurrentClientsGetDistinctJobs) {
  LineClient a("127.0.0.1", server_->port());
  LineClient b("127.0.0.1", server_->port());
  const auto ja = rpc(a, inline_submit(1));
  const auto jb = rpc(b, inline_submit(2));
  ASSERT_TRUE(ja.find("ok")->as_bool());
  ASSERT_TRUE(jb.find("ok")->as_bool());
  EXPECT_NE(ja.find("job")->as_int(), jb.find("job")->as_int());

  // Both complete and both appear in one list.
  for (int i = 0; i < 10000; ++i) {
    const auto list = rpc(a, R"({"req": "list"})");
    const auto& jobs = list.find("jobs")->as_array();
    std::size_t done = 0;
    for (const auto& job : jobs) {
      if (job.find("state")->as_string() == "done") ++done;
    }
    if (done == 2) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "jobs never completed";
}

TEST_F(ServeServerTest, ErrorsNameTheSourceAndSuggest) {
  LineClient client("127.0.0.1", server_->port());

  // Unknown request type: did-you-mean, still a protocol-level error.
  const auto typo = rpc(client, R"({"req": "submitt"})");
  EXPECT_FALSE(typo.find("ok")->as_bool());
  EXPECT_NE(typo.find("error")->as_string().find("did you mean \"submit\"?"),
            std::string::npos);

  // Invalid document: the error names "job N (source)" and the job
  // stays addressable with that id.
  const auto invalid = rpc(
      client,
      R"({"req": "submit", "source": "lab-9", "scenario": {"schema":
          "adacheck-scenario-v1", "name": "x", "experiments": []}})");
  EXPECT_FALSE(invalid.find("ok")->as_bool());
  ASSERT_NE(invalid.find("job"), nullptr);
  const auto id = invalid.find("job")->as_int();
  const std::string message = invalid.find("error")->as_string();
  EXPECT_NE(message.find("job " + std::to_string(id)), std::string::npos)
      << message;
  EXPECT_NE(message.find("lab-9"), std::string::npos) << message;

  const auto status = rpc(
      client, R"({"req": "status", "job": )" + std::to_string(id) + "}");
  EXPECT_EQ(status.find("job")->find("state")->as_string(), "failed");

  // Unknown job ids are errors, not hangs.
  const auto missing = rpc(client, R"({"req": "status", "job": 999})");
  EXPECT_FALSE(missing.find("ok")->as_bool());
}

TEST_F(ServeServerTest, CancelAndShutdownOverTheWire) {
  LineClient client("127.0.0.1", server_->port());
  std::string slow(kSlowScenario);
  const auto submitted =
      rpc(client, R"({"req": "submit", "scenario": )" + slow + "}");
  ASSERT_TRUE(submitted.find("ok")->as_bool());

  const auto cancelled = rpc(client, R"({"req": "cancel", "job": 1})");
  EXPECT_TRUE(cancelled.find("ok")->as_bool());

  // The job lands terminal (cancelled mid-run, or done if it won the
  // race); either way shutdown is clean and run() returns.
  for (int i = 0; i < 10000; ++i) {
    const auto status = rpc(client, R"({"req": "status", "job": 1})");
    const auto state = status.find("job")->find("state")->as_string();
    if (state == "cancelled" || state == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto bye = rpc(client, R"({"req": "shutdown"})");
  EXPECT_TRUE(bye.find("ok")->as_bool());
  runner_.join();  // run() must return on its own after shutdown
  runner_ = std::thread([] {});
}

TEST_F(ServeServerTest, StatsReportsLiveCountersMonotonically) {
  LineClient client("127.0.0.1", server_->port());
  // Prime some traffic: one submitted job plus a list request.
  ASSERT_TRUE(rpc(client, inline_submit()).find("ok")->as_bool());
  ASSERT_TRUE(rpc(client, R"({"req": "list"})").find("ok")->as_bool());

  const auto first = rpc(client, R"({"req": "stats"})");
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_EQ(first.find("req")->as_string(), "stats");
  const auto* stats = first.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("schema")->as_string(), "adacheck-stats-v1");
  const auto* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->find("serve.jobs_submitted")->as_int(), 1);
  const auto lists = counters->find("serve.requests.list")->as_int();
  EXPECT_GE(lists, 1);
  // The queue-depth gauge and per-verb latency histograms exist too.
  ASSERT_NE(stats->find("gauges")->find("serve.queue_depth"), nullptr);
  const auto* latency =
      stats->find("histograms")->find("serve.request_us.list");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->find("count")->as_int(), lists);

  // More traffic -> strictly larger counts (counters never move down).
  ASSERT_TRUE(rpc(client, R"({"req": "list"})").find("ok")->as_bool());
  const auto second = rpc(client, R"({"req": "stats"})");
  EXPECT_GT(second.find("stats")
                ->find("counters")
                ->find("serve.requests.list")
                ->as_int(),
            lists);

  // Requests with unknown keys are rejected, not silently accepted.
  const auto extra = rpc(client, R"({"req": "stats", "verbose": true})");
  EXPECT_FALSE(extra.find("ok")->as_bool());
}

TEST_F(ServeServerTest, SmallJobsStreamWithoutTheDelayedAckStall) {
  // Submit-to-EOT of a one-run job is serve overhead alone.  Nagle
  // holding the cell bytes behind the client's delayed ACK of the
  // opening line floors it at 40 ms; without the stall it is far less.
  LineClient client("127.0.0.1", server_->port());
  std::string submit =
      R"({"req": "submit", "scenario": )" + std::string(kTinyScenario) + "}";
  std::vector<double> millis;
  for (int i = 0; i < 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto submitted = rpc(client, submit);
    ASSERT_TRUE(submitted.find("ok")->as_bool());
    client.send_line(R"({"req": "stream", "job": )" +
                     std::to_string(submitted.find("job")->as_int()) + "}");
    for (;;) {
      const auto line = client.recv_line();
      ASSERT_TRUE(line.has_value());
      if (line->find(kEotSchema) != std::string::npos) break;
    }
    millis.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::sort(millis.begin(), millis.end());
  EXPECT_LT(millis[2], 20.0) << "median submit-to-EOT in ms";
}

TEST_F(ServeServerTest, EvictedJobsAreUnknownOverTheWire) {
  auto& jobs = server_->jobs();
  const auto first = jobs.record_invalid("old", "oldest finished job");
  for (std::size_t i = 0; i < kMaxFinishedJobs; ++i) {
    jobs.record_invalid("new", "newer finished job");
  }
  LineClient client("127.0.0.1", server_->port());
  const std::string id = std::to_string(first);
  for (const std::string req : {"status", "cancel", "stream"}) {
    const auto reply =
        rpc(client, R"({"req": ")" + req + R"(", "job": )" + id + "}");
    ASSERT_FALSE(reply.find("ok")->as_bool()) << req;
    EXPECT_EQ(reply.find("error")->as_string(), "unknown job " + id) << req;
  }
  const auto list = rpc(client, R"({"req": "list"})");
  EXPECT_EQ(list.find("jobs")->as_array().size(), kMaxFinishedJobs);
}

TEST_F(ServeServerTest, OverlongRequestLineClosesOnlyThatConnection) {
  LineClient client("127.0.0.1", server_->port());
  // A line exactly at the cap is read (and rejected as bad JSON)...
  const auto at_cap = rpc(client, std::string(kMaxRequestLineBytes, 'x'));
  EXPECT_FALSE(at_cap.find("ok")->as_bool());
  // ...one byte more is answered with the limit, then disconnected.
  client.send_line(std::string(kMaxRequestLineBytes + 1, 'x'));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  const auto error = util::json::parse(*reply);
  EXPECT_FALSE(error.find("ok")->as_bool());
  EXPECT_NE(error.find("error")->as_string().find(
                std::to_string(kMaxRequestLineBytes)),
            std::string::npos)
      << *reply;
  EXPECT_FALSE(client.recv_line().has_value());

  // The daemon keeps serving everyone else.
  LineClient other("127.0.0.1", server_->port());
  EXPECT_TRUE(rpc(other, R"({"req": "list"})").find("ok")->as_bool());
}

TEST_F(ServeServerTest, MalformedLineIsAnErrorNotADisconnect) {
  LineClient client("127.0.0.1", server_->port());
  const auto garbage = rpc(client, "this is not json");
  EXPECT_FALSE(garbage.find("ok")->as_bool());
  // The connection survives for the next request.
  const auto list = rpc(client, R"({"req": "list"})");
  EXPECT_TRUE(list.find("ok")->as_bool());
}

}  // namespace
}  // namespace adacheck::serve

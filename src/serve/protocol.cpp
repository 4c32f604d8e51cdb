#include "serve/protocol.hpp"

#include <sstream>

#include "obs/json_writer.hpp"
#include "scenario/schema.hpp"

namespace adacheck::serve {

namespace {

using namespace scenario::schema;
using util::json::Value;

void write_job_fields(obs::JsonWriter& json, const JobInfo& info) {
  json.kv("job", info.id);
  if (!info.name.empty()) json.kv("name", info.name);
  if (!info.source.empty()) json.kv("source", info.source);
  json.kv("state", to_string(info.state));
  json.kv("priority", info.priority);
  json.kv("cells_total", info.cells_total);
  json.kv("cells_done", info.cells_done);
  json.kv("runs_done", info.runs_done);
  json.kv("runs_executed", info.runs_executed);
  json.kv("jsonl_bytes", info.jsonl_bytes);
  if (!info.error.empty()) json.kv("error", info.error);
  json.kv("wall_seconds", info.wall_seconds);
}

/// Every response line starts the same way; `ok` and the request echo
/// come first so a human reading a transcript can scan outcomes.
class ResponseLine {
 public:
  explicit ResponseLine(bool ok)
      : json_(out_, obs::JsonStyle::kCompact) {
    json_.begin_object();
    json_.kv("schema", kProtocolSchema);
    json_.kv("ok", ok);
  }
  obs::JsonWriter& json() { return json_; }
  std::string finish() {
    json_.end_object();
    out_ << "\n";
    return out_.str();
  }

 private:
  std::ostringstream out_;
  obs::JsonWriter json_;
};

std::uint64_t parse_job_id(const Value& v, const std::string& path) {
  const auto id = as_int(require(v, path, "job"), member_path(path, "job"));
  if (id < 1) fail(member_path(path, "job"), "must be >= 1");
  return static_cast<std::uint64_t>(id);
}

}  // namespace

const char* to_string(Request::Type type) {
  switch (type) {
    case Request::Type::kSubmit: return "submit";
    case Request::Type::kStatus: return "status";
    case Request::Type::kList: return "list";
    case Request::Type::kCancel: return "cancel";
    case Request::Type::kStream: return "stream";
    case Request::Type::kStats: return "stats";
    case Request::Type::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::vector<std::string> known_requests() {
  return {"submit", "status", "list", "cancel", "stream", "stats",
          "shutdown"};
}

Request parse_request(const std::string& line) {
  const Value root = util::json::parse(line);
  require_object(root, "request");
  const std::string& req =
      as_string(require(root, "request", "req"), "req");
  check_name(req, known_requests(), "req");

  Request request;
  if (req == "submit") {
    request.type = Request::Type::kSubmit;
    check_keys(root, "submit",
               {"req", "scenario", "path", "priority", "threads", "source"});
    const Value* scenario = root.find("scenario");
    const Value* path = root.find("path");
    if ((scenario != nullptr) == (path != nullptr)) {
      fail("submit",
           "exactly one of \"scenario\" (inline document) and \"path\" "
           "(server-side file) is required");
    }
    if (scenario != nullptr) {
      require_object(*scenario, "submit.scenario");
      request.document = *scenario;
    } else {
      request.path = as_string(*path, "submit.path");
      if (request.path.empty()) fail("submit.path", "must not be empty");
    }
    if (const Value* priority = root.find("priority")) {
      const auto value = as_int(*priority, "submit.priority");
      if (value < -1'000'000 || value > 1'000'000) {
        fail("submit.priority", "must be in [-1e6, 1e6]");
      }
      request.priority = static_cast<int>(value);
    }
    if (const Value* threads = root.find("threads")) {
      const auto value = as_int(*threads, "submit.threads");
      if (value < 0 || value > 4096) {
        fail("submit.threads", "must be in [0, 4096]");
      }
      request.threads = static_cast<int>(value);
    }
    if (const Value* source = root.find("source")) {
      request.source = as_string(*source, "submit.source");
    }
    if (request.source.empty()) {
      request.source = request.path.empty() ? "inline" : request.path;
    }
  } else if (req == "status" || req == "cancel" || req == "stream") {
    request.type = req == "status" ? Request::Type::kStatus
                   : req == "cancel" ? Request::Type::kCancel
                                     : Request::Type::kStream;
    if (req == "stream") {
      check_keys(root, req, {"req", "job", "from"});
      if (const Value* from = root.find("from")) {
        const auto value = as_int(*from, "stream.from");
        if (value < 0) fail("stream.from", "must be >= 0");
        request.from = static_cast<std::size_t>(value);
      }
    } else {
      check_keys(root, req, {"req", "job"});
    }
    request.job = parse_job_id(root, req);
  } else if (req == "list") {
    request.type = Request::Type::kList;
    check_keys(root, req, {"req"});
  } else if (req == "stats") {
    request.type = Request::Type::kStats;
    check_keys(root, req, {"req"});
  } else {
    request.type = Request::Type::kShutdown;
    check_keys(root, req, {"req"});
  }
  return request;
}

std::string error_response(const std::string& message, std::uint64_t job,
                           bool queue_full) {
  ResponseLine line(false);
  if (job > 0) line.json().kv("job", job);
  if (queue_full) line.json().kv("queue_full", true);
  line.json().kv("error", message);
  return line.finish();
}

std::string submit_response(std::uint64_t job, JobState state) {
  ResponseLine line(true);
  line.json().kv("req", "submit");
  line.json().kv("job", job);
  line.json().kv("state", to_string(state));
  return line.finish();
}

std::string status_response(const JobInfo& info) {
  ResponseLine line(true);
  line.json().kv("req", "status");
  line.json().key("job");
  line.json().begin_object();
  write_job_fields(line.json(), info);
  line.json().end_object();
  return line.finish();
}

std::string list_response(const std::vector<JobInfo>& jobs) {
  ResponseLine line(true);
  line.json().kv("req", "list");
  line.json().key("jobs");
  line.json().begin_array();
  for (const auto& info : jobs) {
    line.json().begin_object();
    write_job_fields(line.json(), info);
    line.json().end_object();
  }
  line.json().end_array();
  return line.finish();
}

std::string cancel_response(std::uint64_t job, JobState state) {
  ResponseLine line(true);
  line.json().kv("req", "cancel");
  line.json().kv("job", job);
  line.json().kv("state", to_string(state));
  return line.finish();
}

std::string stream_response(std::uint64_t job, std::size_t from) {
  ResponseLine line(true);
  line.json().kv("req", "stream");
  line.json().kv("job", job);
  line.json().kv("from", from);
  return line.finish();
}

std::string stats_response(const std::string& stats_json) {
  ResponseLine line(true);
  line.json().kv("req", "stats");
  line.json().key("stats");
  line.json().raw_value(stats_json);
  return line.finish();
}

std::string stream_eot(std::uint64_t job, JobState state,
                       std::size_t bytes) {
  std::ostringstream out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  json.begin_object();
  json.kv("schema", kEotSchema);
  json.kv("job", job);
  json.kv("state", to_string(state));
  json.kv("bytes", bytes);
  json.end_object();
  out << "\n";
  return out.str();
}

std::string shutdown_response() {
  ResponseLine line(true);
  line.json().kv("req", "shutdown");
  return line.finish();
}

}  // namespace adacheck::serve

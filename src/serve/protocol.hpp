// The adacheck-serve-v1 wire protocol.
//
// Newline-delimited JSON in both directions: a client sends one
// request object per line, the server answers with one response object
// per line (the `stream` request additionally interleaves the job's
// raw adacheck-cell-v2 lines, byte-for-byte, between its opening
// response and a closing adacheck-serve-eot-v1 line).
//
// Requests ("req" selects the type; unknown types get a "did you
// mean" suggestion, unknown keys are rejected — same validation
// vocabulary as the scenario schema):
//
//   {"req": "submit", "scenario": {...adacheck-scenario-v1...},
//    "priority": 5, "threads": 2, "source": "label"}   // inline, or
//   {"req": "submit", "path": "scenarios/smoke.json", ...}
//   {"req": "status", "job": 3}
//   {"req": "list"}
//   {"req": "cancel", "job": 3}
//   {"req": "stream", "job": 3, "from": 0}   // byte offset, default 0
//   {"req": "stats"}      // adacheck-stats-v1 telemetry snapshot
//   {"req": "shutdown"}
//
// Responses always carry "schema": "adacheck-serve-v1" and "ok".
// Errors are {"ok": false, "error": MESSAGE [, "job": ID]
// [, "queue_full": true]}; whenever a document was involved the
// message names its source — the submitted path or "job <id>" — so
// multi-job sessions stay debuggable.
//
// A request line longer than kMaxRequestLineBytes (terminator
// excluded) is answered with an error naming the limit, and the server
// then closes the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/job_manager.hpp"
#include "util/json.hpp"

namespace adacheck::serve {

inline constexpr const char* kProtocolSchema = "adacheck-serve-v1";
inline constexpr const char* kEotSchema = "adacheck-serve-eot-v1";
/// Longest request line a server reads (1 MiB).
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct Request {
  enum class Type {
    kSubmit,
    kStatus,
    kList,
    kCancel,
    kStream,
    kStats,
    kShutdown
  };
  Type type = Type::kList;

  // submit — exactly one of `document` (inline scenario object) and
  // `path` (server-side file) is set.
  std::optional<util::json::Value> document;
  std::string path;
  int priority = 0;
  int threads = 0;
  std::string source;  ///< client label; defaults to path or "inline"

  // status / cancel / stream
  std::uint64_t job = 0;

  // stream
  std::size_t from = 0;
};

/// "submit" | "status" | ... (the wire names).
const char* to_string(Request::Type type);

/// The request types a serve endpoint understands, in wire spelling
/// (the did-you-mean candidate list).
std::vector<std::string> known_requests();

/// Parses and validates one request line.  Throws
/// scenario::ScenarioError with the offending member's path ("req",
/// "submit.priority", ...) — unknown request types and unknown keys
/// get "did you mean" suggestions — or util::json::ParseError for
/// malformed JSON.
Request parse_request(const std::string& line);

// --- response builders (each returns one '\n'-terminated line) ----------

/// {"schema":...,"ok":false,"error":MESSAGE,...}.  `job` > 0 is
/// included so clients can address the failed document as "job <id>".
std::string error_response(const std::string& message, std::uint64_t job = 0,
                           bool queue_full = false);

/// Submit acknowledgement: {"ok":true,"req":"submit","job":N,
/// "state":...}.
std::string submit_response(std::uint64_t job, JobState state);

/// {"ok":true,"req":"status","job":{...full snapshot...}}.
std::string status_response(const JobInfo& info);

/// {"ok":true,"req":"list","jobs":[{...}, ...]}.
std::string list_response(const std::vector<JobInfo>& jobs);

/// {"ok":true,"req":"cancel","job":N,"state":...}.
std::string cancel_response(std::uint64_t job, JobState state);

/// The opening line of a stream reply: {"ok":true,"req":"stream",
/// "job":N,"from":OFFSET}.
std::string stream_response(std::uint64_t job, std::size_t from);

/// {"ok":true,"req":"stats","stats":SNAPSHOT} — `stats_json` is a
/// pre-encoded compact adacheck-stats-v1 document (obs::stats_json),
/// spliced in verbatim.
std::string stats_response(const std::string& stats_json);

/// The closing line of a stream reply: {"schema":"adacheck-serve-
/// eot-v1","job":N,"state":...,"bytes":TOTAL} — `bytes` is the job's
/// total stream size, so clients can verify they missed nothing.
std::string stream_eot(std::uint64_t job, JobState state,
                       std::size_t bytes);

/// {"ok":true,"req":"shutdown"}.
std::string shutdown_response();

}  // namespace adacheck::serve

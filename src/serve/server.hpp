// The `adacheck serve` daemon: a loopback TCP listener speaking
// adacheck-serve-v1 (serve/protocol.hpp) in front of a JobManager
// (serve/job_manager.hpp).
//
// One thread accepts connections; each connection gets its own handler
// thread reading newline-delimited requests and writing responses, so
// a client blocked on `stream` (live per-cell JSONL) never stalls
// submits from other clients.  The accept loop joins handlers whose
// connection has closed, so a daemon serving one connection per
// command holds threads only for its live connections.  Every socket
// runs with TCP_NODELAY: responses are complete lines written in one
// send, and Nagle would otherwise hold a stream's cell bytes behind the
// client's delayed ACK of the opening line.  A `shutdown` request — or
// request_shutdown() from a signal handler — cancels every queued and
// running job, unblocks all streams, closes every connection, and
// returns run() to the caller.
//
// The server binds 127.0.0.1 (or the configured host) only; this is a
// local job service, not an internet-facing endpoint.  Port 0 asks the
// kernel for an ephemeral port — read the choice back with port() (the
// driver's --port-file plumbing for scripts).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_manager.hpp"
#include "serve/protocol.hpp"

namespace adacheck::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 = ephemeral (read back via port()).
  int port = 0;
  JobManager::Options jobs;
  /// Status chatter (listening line, per-connection notes); null = quiet.
  std::ostream* status = nullptr;
  /// Session transcript: every request and protocol-response line
  /// (">> " / "<< " prefixed; streamed cell payloads are summarized,
  /// not copied).  The CI smoke step uploads this as an artifact.
  std::ostream* transcript = nullptr;
};

class Server {
 public:
  /// Binds and listens immediately; throws std::runtime_error when the
  /// socket cannot be created or bound.
  explicit Server(ServerOptions options);
  /// Implies request_shutdown() + join.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0 requests).
  int port() const noexcept { return port_; }
  /// The address clients dial, "127.0.0.1:PORT".
  std::string endpoint() const;

  JobManager& jobs() noexcept { return jobs_; }

  /// Accepts and serves connections until a shutdown is requested.
  /// Joins every connection handler before returning.
  void run();

  /// Thread-safe external stop (signal handlers, tests): cancels all
  /// jobs and unblocks run().  Idempotent.
  void request_shutdown();

 private:
  class Connection;
  /// One accepted connection's handler thread; `fd` turns -1 (under
  /// mu_) right before the handler closes the socket.
  struct Handler {
    int fd = -1;
    std::thread thread;
  };

  void handle_connection(std::list<Handler>::iterator handler);
  /// Joins the given handlers (outside mu_).
  static void join_all(std::list<Handler>& handlers);
  /// Dispatches one request line, writing the response(s) to the
  /// connection.  Returns false when the connection must close (a
  /// shutdown was requested).
  bool handle_line(Connection& conn, const std::string& line);
  void handle_submit(Connection& conn, const Request& request);
  void handle_stream(Connection& conn, const Request& request);
  void log(char direction, const std::string& line);

  ServerOptions options_;
  JobManager jobs_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mu_;  ///< guards handlers_, transcript writes, stopping_
  bool stopping_ = false;
  std::list<Handler> handlers_;
};

}  // namespace adacheck::serve

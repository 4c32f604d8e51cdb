#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/registry.hpp"
#include "scenario/spec.hpp"

namespace adacheck::serve {

namespace {

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Counts and times one request by its wire verb ("submit", "list",
/// ... or "invalid" for lines that never parsed).  Verb names are an
/// enum-sized set, so the per-request registry lookups stay cheap.
class RequestTimer {
 public:
  RequestTimer() : enabled_(obs::Registry::instance().enabled()) {
    if (enabled_) start_ = obs::now_micros();
  }
  ~RequestTimer() {
    if (!enabled_) return;
    auto& registry = obs::Registry::instance();
    registry.counter(std::string("serve.requests.") + verb_).add(1);
    registry.histogram(std::string("serve.request_us.") + verb_)
        .record(obs::now_micros() - start_);
  }
  void set_verb(const char* verb) noexcept { verb_ = verb; }

 private:
  bool enabled_;
  const char* verb_ = "invalid";
  std::uint64_t start_ = 0;
};

/// send() the whole buffer; false on any failure (client went away).
bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// Buffered line reader + writer for one accepted socket.
class Server::Connection {
 public:
  enum class Read { kLine, kClosed, kTooLong };

  explicit Connection(int fd) : fd_(fd) {}

  int fd() const noexcept { return fd_; }

  /// Next '\n'-terminated line (terminator stripped); kClosed on EOF or
  /// error, kTooLong once the line outgrows kMaxRequestLineBytes.  A
  /// final unterminated fragment at EOF is delivered as a line so
  /// `printf '...' | nc`-style clients still work.
  Read read_line(std::string& line) {
    std::size_t scanned = 0;
    for (;;) {
      const auto newline = buffer_.find('\n', scanned);
      if (newline != std::string::npos) {
        if (newline > kMaxRequestLineBytes) return Read::kTooLong;
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return Read::kLine;
      }
      scanned = buffer_.size();
      if (scanned > kMaxRequestLineBytes) return Read::kTooLong;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (buffer_.empty()) return Read::kClosed;
        line = std::exchange(buffer_, std::string());
        return Read::kLine;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool send(const std::string& bytes) { return send_all(fd_, bytes); }

 private:
  int fd_;
  std::string buffer_;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), jobs_(options_.jobs) {
  // A daemon always runs with metrics on: the stats verb must have
  // real queue depths and request latencies to report, and telemetry
  // is additive by construction (result bytes are pinned identical by
  // serve_test / obs_test either way).
  obs::Registry::instance().set_enabled(true);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(errno_message("serve: cannot create socket"));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: invalid host \"" + options_.host +
                             "\" (expected a dotted IPv4 address)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string message = errno_message(
        "serve: cannot bind " + options_.host + ":" +
        std::to_string(options_.port));
    ::close(listen_fd_);
    throw std::runtime_error(message);
  }
  if (::listen(listen_fd_, 16) != 0) {
    const std::string message = errno_message("serve: cannot listen");
    ::close(listen_fd_);
    throw std::runtime_error(message);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

Server::~Server() {
  request_shutdown();
  join_all(handlers_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::join_all(std::list<Handler>& handlers) {
  for (auto& handler : handlers) {
    if (handler.thread.joinable()) handler.thread.join();
  }
  handlers.clear();
}

std::string Server::endpoint() const {
  return options_.host + ":" + std::to_string(port_);
}

void Server::log(char direction, const std::string& line) {
  if (options_.transcript == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  // Monotonic-micros prefix: transcripts double as a poor man's
  // latency record, and monotonic time is immune to clock steps.
  *options_.transcript << '[' << obs::now_micros() << "us] "
                       << (direction == '>' ? ">> " : "<< ") << line;
  if (line.empty() || line.back() != '\n') *options_.transcript << "\n";
  options_.transcript->flush();
}

void Server::run() {
  if (options_.status != nullptr) {
    *options_.status << kProtocolSchema << " listening on " << endpoint()
                     << "\n";
    options_.status->flush();
  }
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or hard error): stop accepting
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::list<Handler> finished;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        break;
      }
      for (auto it = handlers_.begin(); it != handlers_.end();) {
        const auto handler = it++;
        if (handler->fd < 0) {
          finished.splice(finished.end(), handlers_, handler);
        }
      }
      const auto handler = handlers_.insert(handlers_.end(), Handler{fd, {}});
      handler->thread =
          std::thread([this, handler] { handle_connection(handler); });
    }
    join_all(finished);  // handlers that closed their connection
  }
  // A shutdown request (or listener failure) ends the accept loop;
  // everything else winds down here so run() returns fully stopped.
  request_shutdown();
  std::list<Handler> handlers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    handlers.swap(handlers_);  // list nodes (and handler iterators) survive
  }
  join_all(handlers);
}

void Server::request_shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock connection reads; fds are closed by their handlers.
    for (const auto& handler : handlers_) {
      if (handler.fd >= 0) ::shutdown(handler.fd, SHUT_RDWR);
    }
  }
  jobs_.shutdown();  // cancels all jobs, wakes every stream_wait
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);  // unblock accept
}

void Server::handle_connection(std::list<Handler>::iterator handler) {
  const int fd = handler->fd;  // only this thread ever writes it
  Connection conn(fd);
  std::string line;
  for (;;) {
    const auto result = conn.read_line(line);
    if (result == Connection::Read::kClosed) break;
    if (result == Connection::Read::kTooLong) {
      const std::string response = error_response(
          "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
          " bytes; closing the connection");
      log('<', response);
      conn.send(response);
      ::shutdown(fd, SHUT_WR);  // the error is the last thing sent
      break;
    }
    if (line.empty()) continue;
    log('>', line);
    if (!handle_line(conn, line)) break;
  }
  {
    // Out of request_shutdown()'s reach before the fd number can be
    // reused by another accept.
    std::unique_lock<std::mutex> lock(mu_);
    handler->fd = -1;
  }
  ::close(fd);
}

bool Server::handle_line(Connection& conn, const std::string& line) {
  RequestTimer timer;
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    const std::string response = error_response(e.what());
    log('<', response);
    return conn.send(response);
  }
  timer.set_verb(to_string(request.type));

  switch (request.type) {
    case Request::Type::kSubmit:
      handle_submit(conn, request);
      return true;
    case Request::Type::kStatus: {
      const auto info = jobs_.status(request.job);
      const std::string response =
          info ? status_response(*info)
               : error_response(
                     "unknown job " + std::to_string(request.job),
                     request.job);
      log('<', response);
      return conn.send(response);
    }
    case Request::Type::kList: {
      const std::string response = list_response(jobs_.list());
      log('<', response);
      return conn.send(response);
    }
    case Request::Type::kCancel: {
      const auto state = jobs_.cancel(request.job);
      const std::string response =
          state ? cancel_response(request.job, *state)
                : error_response(
                      "unknown job " + std::to_string(request.job),
                      request.job);
      log('<', response);
      return conn.send(response);
    }
    case Request::Type::kStream:
      handle_stream(conn, request);
      return true;
    case Request::Type::kStats: {
      const std::string response = stats_response(
          obs::stats_json(obs::Registry::instance().snapshot()));
      log('<', response);
      return conn.send(response);
    }
    case Request::Type::kShutdown: {
      const std::string response = shutdown_response();
      log('<', response);
      conn.send(response);
      request_shutdown();
      return false;
    }
  }
  return true;
}

void Server::handle_submit(Connection& conn, const Request& request) {
  scenario::ScenarioSpec spec;
  std::uint64_t id = 0;
  try {
    spec = request.document
               ? scenario::parse_scenario(*request.document)
               : scenario::load_scenario_file(request.path);
    JobRequest job;
    job.scenario = std::move(spec);
    job.priority = request.priority;
    job.threads = request.threads;
    job.source = request.source;
    id = jobs_.submit(std::move(job));
  } catch (const QueueFull& e) {
    const std::string response = error_response(e.what(), 0, true);
    log('<', response);
    conn.send(response);
    return;
  } catch (const std::exception& e) {
    // The document never became a runnable job; record it as a failed
    // one so the error stays addressable — and sourced — as "job <id>".
    id = jobs_.record_invalid(request.source, e.what());
    const std::string response = error_response(
        "job " + std::to_string(id) + " (" + request.source + "): " +
            e.what(),
        id);
    log('<', response);
    conn.send(response);
    return;
  }
  const std::string response = submit_response(id, JobState::kQueued);
  log('<', response);
  conn.send(response);
}

void Server::handle_stream(Connection& conn, const Request& request) {
  // The handle keeps the job readable to EOT even if it is evicted from
  // the finished-job history mid-stream.
  const auto job = jobs_.find(request.job);
  if (job == nullptr) {
    const std::string response = error_response(
        "unknown job " + std::to_string(request.job), request.job);
    log('<', response);
    conn.send(response);
    return;
  }
  const std::string opening = stream_response(request.job, request.from);
  log('<', opening);
  if (!conn.send(opening)) return;

  // One send per wakeup; the final slice carries the EOT line with it.
  std::size_t offset = request.from;
  std::size_t streamed = 0;
  for (;;) {
    auto chunk = jobs_.stream_wait(job, offset);
    offset += chunk.bytes.size();
    streamed += chunk.bytes.size();
    if (chunk.terminal) {
      if (options_.transcript != nullptr && streamed > 0) {
        log('<', "[streamed " + std::to_string(streamed) +
                     " bytes of cell lines for job " +
                     std::to_string(request.job) + "]");
      }
      const std::string eot =
          stream_eot(request.job, chunk.state, offset);
      log('<', eot);
      chunk.bytes += eot;
      conn.send(chunk.bytes);
      return;
    }
    if (!conn.send(chunk.bytes)) return;  // client went away
  }
}

}  // namespace adacheck::serve

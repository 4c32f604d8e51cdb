// Minimal blocking client for the adacheck-serve-v1 protocol: dial a
// serve endpoint, send request lines, read response lines.  Used by
// serve_test's socket round-trips; scripts typically speak the
// protocol directly (it is just newline-delimited JSON over TCP).
#pragma once

#include <optional>
#include <string>

namespace adacheck::serve {

class LineClient {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  LineClient(const std::string& host, int port);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line ('\n' appended when missing).  Throws
  /// std::runtime_error when the connection is gone.
  void send_line(const std::string& line);

  /// Next '\n'-terminated line, terminator stripped; nullopt on EOF.
  std::optional<std::string> recv_line();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace adacheck::serve

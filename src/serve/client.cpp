#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace adacheck::serve {

LineClient::LineClient(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("client: cannot create socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("client: invalid host \"" + host + "\"");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string message = std::string("client: cannot connect to ") +
                                host + ":" + std::to_string(port) + ": " +
                                std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error(message);
  }
  // Requests are whole lines sent at once; never hold one back waiting
  // for the ACK of the previous.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_line(const std::string& line) {
  std::string bytes = line;
  if (bytes.empty() || bytes.back() != '\n') bytes += '\n';
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("client: connection lost");
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> LineClient::recv_line() {
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (buffer_.empty()) return std::nullopt;
      return std::exchange(buffer_, std::string());
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace adacheck::serve

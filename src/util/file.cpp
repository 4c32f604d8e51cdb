#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace adacheck::util {

namespace {

/// Owns a descriptor and closes it on every exit path.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

/// Reads up to `n` bytes into `dst`, retrying on EINTR; -1 on error.
ssize_t read_some(int fd, char* dst, std::size_t n) {
  for (;;) {
    const ssize_t got = ::read(fd, dst, n);
    if (got >= 0 || errno != EINTR) return got;
  }
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0) return std::nullopt;
  struct stat info {};
  if (::fstat(file.get(), &info) != 0 || S_ISDIR(info.st_mode)) {
    return std::nullopt;
  }

  // The sized read: a regular file's bytes land in their final string.
  std::string bytes;
  std::size_t filled = 0;
  if (S_ISREG(info.st_mode) && info.st_size > 0) {
    bytes.resize(static_cast<std::size_t>(info.st_size));
    while (filled < bytes.size()) {
      const ssize_t got =
          read_some(file.get(), bytes.data() + filled, bytes.size() - filled);
      if (got < 0) return std::nullopt;
      if (got == 0) break;  // the file shrank since fstat
      filled += static_cast<std::size_t>(got);
    }
    bytes.resize(filled);
  }
  // Read on to EOF: the whole file when its size was unknown, and any
  // bytes appended since fstat (normally one read that returns 0).
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t got = read_some(file.get(), chunk, sizeof chunk);
    if (got < 0) return std::nullopt;
    if (got == 0) return bytes;
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
}

}  // namespace adacheck::util

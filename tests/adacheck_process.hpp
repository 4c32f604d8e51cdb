// Drives the adacheck binary (ADACHECK_BIN) from a test: one-shot runs
// with both streams captured, and `adacheck serve` daemons owned by an
// RAII guard.  golden_test and driver_test, the two suites that run
// the binary, share it.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace adacheck::testutil {

namespace fs = std::filesystem;

inline std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Single-quoted for the shell.  Appended piece by piece: GCC 12 at
/// -O3 flags `"literal" + std::string&&` (-Wrestrict).
inline std::string quoted(const fs::path& path) {
  std::string text = "'";
  text += path.string();
  text += '\'';
  return text;
}

/// The exit code of a wait status; a process killed by signal N
/// reads 128 + N, as in the shell.
inline int exit_code(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
}

/// Starts `<env> adacheck <args>` (shell text: quote paths with
/// quoted()) with `dir` as its working directory and its streams in
/// <dir>/<name>.stdout and <dir>/<name>.stderr.  The shell execs
/// adacheck, so the returned pid is adacheck's own.
inline pid_t spawn_adacheck(const fs::path& dir, const std::string& args,
                            const std::string& name,
                            const std::string& env = "") {
  std::string command = "cd ";
  command += quoted(dir) + " && " + env + " exec " + quoted(ADACHECK_BIN) +
             " " + args + " >" + name + ".stdout 2>" + name + ".stderr";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", command.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (pid < 0) throw std::runtime_error("cannot fork for: " + command);
  return pid;
}

/// How one adacheck process ended and what it printed.
struct ProcessResult {
  int code = -1;
  std::string out;
  std::string err;
};

/// Runs `<env> adacheck <args>` in `dir` to completion.
inline ProcessResult run_adacheck(const fs::path& dir, const std::string& args,
                                  const std::string& env = "") {
  int status = 0;
  ::waitpid(spawn_adacheck(dir, args, "adacheck", env), &status, 0);
  return {exit_code(status), read_file(dir / "adacheck.stdout"),
          read_file(dir / "adacheck.stderr")};
}

/// One `adacheck serve --port=0 --port-file=port.txt <flags>` in `dir`:
/// the kernel picks the port, so parallel suites never collide.  The
/// destructor sends SIGTERM, waits a bounded time, then SIGKILLs and
/// reaps, so a failed assertion leaves no daemon behind.
class ServeDaemon {
 public:
  ServeDaemon(const fs::path& dir, const std::string& flags)
      : port_file_(dir / "port.txt") {
    fs::remove(port_file_);
    pid_ = spawn_adacheck(dir, "serve --port=0 --port-file=port.txt " + flags,
                          "serve");
  }
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;
  ~ServeDaemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    if (wait(std::chrono::seconds(5)) < 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// The bound port, polled from the port file for up to 5 s; 0 when
  /// the daemon never wrote one.
  int port() const {
    for (int i = 0; i < 500; ++i) {
      std::ifstream in(port_file_);
      std::string line;
      if (std::getline(in, line) && !in.eof()) return std::stoi(line);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 0;
  }

  /// Waits up to `timeout` for the daemon to exit on its own; its exit
  /// code, or -1 while it still runs.
  int wait(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (pid_ > 0 && std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        code_ = exit_code(status);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    return pid_ > 0 ? -1 : code_;
  }

 private:
  fs::path port_file_;
  pid_t pid_ = -1;
  int code_ = -1;
};

}  // namespace adacheck::testutil

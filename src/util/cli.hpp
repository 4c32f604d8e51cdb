// Tiny command-line flag parser shared by the examples and the
// adacheck binary.
//
// Supports --name=value and --name value forms plus boolean switches
// (--fast).  Unknown flags are an error so typos in experiment sweeps
// fail loudly instead of silently running the default configuration;
// the error lists the allowed flags (with a "did you mean" suggestion
// when one is close).
//
// Subcommands: multi-verb tools (adacheck run/validate/list) peek the
// verb with CliArgs::subcommand(argc, argv) first, then construct a
// CliArgs with that verb's allowed-flag set; the verb stays in
// positional()[0].
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adacheck::util {

class CliArgs {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input or,
  /// when `allowed` is non-empty, on flags outside the allowed set.
  /// An allowed entry ending in '!' (e.g. "dry-run!") declares a
  /// boolean switch: --dry-run never consumes the following token, so
  /// `run --dry-run file.json` keeps file.json positional.  Use it for
  /// switches in tools that take positionals (explicit
  /// --dry-run=false still works).
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> allowed = {});

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric getters: the whole value must parse ("10k" and "0.01x"
  /// throw std::invalid_argument).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The subcommand: argv[1] when it exists and is not a flag, ""
  /// otherwise.  A peek — it does not consume anything; when parsed,
  /// the verb is positional()[0].
  static std::string subcommand(int argc, const char* const* argv);

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace adacheck::util

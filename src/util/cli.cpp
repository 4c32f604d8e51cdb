#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/text.hpp"

namespace adacheck::util {

namespace {
bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg.rfind("--", 0) == 0;
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> allowed) {
  // Split the "name!" boolean-switch markers out of the allowed list.
  std::vector<std::string> boolean_switches;
  for (auto& entry : allowed) {
    if (!entry.empty() && entry.back() == '!') {
      entry.pop_back();
      boolean_switches.push_back(entry);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // --name value form: consume the next token unless it is a flag
      // or the name is a declared boolean switch.
      const bool declared_switch =
          std::find(boolean_switches.begin(), boolean_switches.end(), name) !=
          boolean_switches.end();
      if (!declared_switch && i + 1 < argc && !is_flag(argv[i + 1])) {
        value = argv[++i];
      } else {
        value = "true";  // boolean switch
      }
    }
    if (!allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      std::string message = "unknown flag --" + name;
      const std::string suggestion = closest_match(name, allowed);
      if (!suggestion.empty()) {
        message += " (did you mean --" + suggestion + "?)";
      }
      message += "; allowed flags: --" + join(allowed, ", --");
      throw std::invalid_argument(message);
    }
    flags_[name] = std::move(value);
  }
}

std::string CliArgs::subcommand(int argc, const char* const* argv) {
  if (argc < 2) return "";
  const std::string first = argv[1];
  return is_flag(first) ? "" : first;
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(*v, &used);
    // The whole value must parse: "10k" is not 10.
    if (used != v->size()) throw std::invalid_argument(*v);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                *v + "'");
  }
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *v + "'");
  }
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *v + "'");
}

}  // namespace adacheck::util

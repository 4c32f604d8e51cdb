#include "cli/command.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/text.hpp"

namespace adacheck::cli {

CommandRegistry::CommandRegistry(std::string tool, std::string intro,
                                 std::string version)
    : tool_(std::move(tool)),
      intro_(std::move(intro)),
      version_(std::move(version)) {}

CommandRegistry& CommandRegistry::add(Command command) {
  commands_.push_back(std::move(command));
  return *this;
}

const Command* CommandRegistry::find(const std::string& name) const {
  for (const auto& command : commands_) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

std::vector<std::string> CommandRegistry::allowed_flags(
    const Command& command) {
  std::vector<std::string> allowed;
  allowed.reserve(command.flags.size() + 1);
  for (const auto& flag : command.flags) {
    allowed.push_back(flag.value_name.empty() ? flag.name + "!" : flag.name);
  }
  allowed.push_back("help!");
  return allowed;
}

void CommandRegistry::print_overview(std::ostream& os) const {
  os << intro_ << "\n\nusage:\n";
  for (const auto& command : commands_) {
    os << "  " << tool_ << " " << command.usage << "\n";
  }
  os << "\ncommands:\n";
  for (const auto& command : commands_) {
    os << "  " << command.name;
    for (std::size_t i = command.name.size(); i < 12; ++i) os << ' ';
    os << command.summary << "\n";
  }
  os << "\n`" << tool_ << " help <command>` (or `" << tool_
     << " <command> --help`) shows a command's flags;\n`" << tool_
     << " --version` prints the code version every report and cache\n"
        "fingerprint carries.\n";
}

void CommandRegistry::print_command_help(const Command& command,
                                         std::ostream& os) const {
  os << "usage: " << tool_ << " " << command.usage << "\n\n"
     << command.summary << "\n";
  if (command.flags.empty()) return;
  os << "\nflags:\n";
  std::size_t width = 0;
  std::vector<std::string> labels;
  labels.reserve(command.flags.size());
  for (const auto& flag : command.flags) {
    std::string label = "--" + flag.name;
    if (!flag.value_name.empty()) label += "=" + flag.value_name;
    width = std::max(width, label.size());
    labels.push_back(std::move(label));
  }
  for (std::size_t i = 0; i < command.flags.size(); ++i) {
    os << "  " << labels[i];
    for (std::size_t pad = labels[i].size(); pad < width + 2; ++pad) os << ' ';
    os << command.flags[i].help << "\n";
  }
}

int CommandRegistry::dispatch(int argc, const char* const* argv,
                              std::ostream& out, std::ostream& err) const {
  const std::string verb = util::CliArgs::subcommand(argc, argv);

  if (verb.empty()) {
    // No verb: only --help / --version are meaningful; anything else
    // is a usage error (reported with the overview for orientation).
    try {
      const util::CliArgs args(argc, argv, {"help!", "version!"});
      if (args.get_bool("version", false)) {
        out << tool_ << " " << version_ << "\n";
        return 0;
      }
      if (args.get_bool("help", false)) {
        print_overview(out);
        return 0;
      }
    } catch (const std::invalid_argument& e) {
      err << e.what() << "\n";
      return 2;
    }
    err << "missing subcommand\n\n";
    print_overview(err);
    return 2;
  }

  if (verb == "version") {
    out << tool_ << " " << version_ << "\n";
    return 0;
  }

  if (verb == "help") {
    const util::CliArgs args(argc, argv, {});
    if (args.positional().size() < 2) {
      print_overview(out);
      return 0;
    }
    const std::string& topic = args.positional()[1];
    if (const Command* command = find(topic)) {
      print_command_help(*command, out);
      return 0;
    }
    err << "unknown command \"" << topic << "\"";
    suggest(topic, err);
    err << "\n";
    return 2;
  }

  const Command* command = find(verb);
  if (command == nullptr) {
    err << "unknown subcommand \"" << verb << "\"";
    suggest(verb, err);
    err << "\n\n";
    print_overview(err);
    return 2;
  }

  try {
    const util::CliArgs args(argc, argv, allowed_flags(*command));
    if (args.get_bool("help", false)) {
      print_command_help(*command, out);
      return 0;
    }
    return command->run(args);
  } catch (const std::invalid_argument& e) {
    // Flag-table violations (unknown flag with its own "did you mean",
    // malformed values) — usage errors, not tool failures.
    err << verb << ": " << e.what() << "\n";
    return 2;
  }
}

void CommandRegistry::suggest(const std::string& name,
                              std::ostream& err) const {
  std::vector<std::string> names;
  names.reserve(commands_.size());
  for (const auto& command : commands_) names.push_back(command.name);
  const std::string match = util::closest_match(name, names);
  if (!match.empty()) {
    err << ", did you mean \"" << match << "\"?";
  } else {
    err << " (commands: " << util::join(names, ", ") << ")";
  }
}

std::string resolve_output(const util::CliArgs& args, const std::string& flag,
                           const std::string& document_value,
                           const std::string& fallback) {
  if (const auto value = args.get(flag)) return *value;
  if (!document_value.empty()) return document_value;
  return fallback;
}

}  // namespace adacheck::cli

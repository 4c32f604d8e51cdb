#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace adacheck::util {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::vector<std::string> allowed = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(),
                 std::move(allowed));
}

TEST(CliArgs, EqualsForm) {
  const auto args = parse({"--runs=500", "--seed=42"});
  EXPECT_EQ(args.get_int("runs", 0), 500);
  EXPECT_EQ(args.get_int("seed", 0), 42);
}

TEST(CliArgs, SpaceForm) {
  const auto args = parse({"--runs", "500"});
  EXPECT_EQ(args.get_int("runs", 0), 500);
}

TEST(CliArgs, BooleanSwitch) {
  const auto args = parse({"--fast", "--verbose=false"});
  EXPECT_TRUE(args.get_bool("fast", false));
  EXPECT_FALSE(args.get_bool("verbose", true));
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(CliArgs, DoublesAndStrings) {
  const auto args = parse({"--lambda=1.4e-3", "--csv=out.csv"});
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 1.4e-3);
  EXPECT_EQ(args.get_string("csv", ""), "out.csv");
}

TEST(CliArgs, PositionalArgsCollected) {
  const auto args = parse({"input.txt", "--runs=3", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(CliArgs, AllowedListRejectsUnknown) {
  EXPECT_THROW(parse({"--oops=1"}, {"runs"}), std::invalid_argument);
  EXPECT_NO_THROW(parse({"--runs=1"}, {"runs"}));
}

TEST(CliArgs, UnknownFlagErrorListsAllowedFlagsAndSuggests) {
  try {
    parse({"--thread=4"}, {"runs", "seed", "threads"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag --thread"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --threads?"), std::string::npos)
        << what;
    EXPECT_NE(what.find("allowed flags: --runs, --seed, --threads"),
              std::string::npos)
        << what;
  }
  try {
    parse({"--zzz"}, {"runs"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Nothing close: no suggestion, but the allowed list still prints.
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    EXPECT_NE(what.find("allowed flags: --runs"), std::string::npos) << what;
  }
}

TEST(CliArgs, DeclaredBooleanSwitchNeverConsumesThePositional) {
  // "dry-run!" declares a switch: the following token stays positional.
  const auto args =
      parse({"run", "--dry-run", "file.json"}, {"dry-run!", "runs"});
  EXPECT_TRUE(args.get_bool("dry-run", false));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[1], "file.json");
  // Explicit =value still works, and undeclared flags keep consuming.
  EXPECT_FALSE(parse({"--dry-run=false"}, {"dry-run!"})
                   .get_bool("dry-run", true));
  EXPECT_EQ(parse({"--runs", "5"}, {"dry-run!", "runs"}).get_int("runs", 0),
            5);
}

TEST(CliArgs, SubcommandPeeksTheFirstPositional) {
  const char* run[] = {"adacheck", "run", "scenario.json", "--runs=5"};
  EXPECT_EQ(CliArgs::subcommand(4, run), "run");
  const char* flag_first[] = {"adacheck", "--help"};
  EXPECT_EQ(CliArgs::subcommand(2, flag_first), "");
  const char* bare[] = {"adacheck"};
  EXPECT_EQ(CliArgs::subcommand(1, bare), "");
  // The verb is not consumed: it stays positional()[0].
  const CliArgs args(4, run, {"runs"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "scenario.json");
}

TEST(CliArgs, MalformedNumbersThrow) {
  const auto args = parse({"--runs=abc", "--x=1.2.3"});
  EXPECT_THROW(args.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("runs", false), std::invalid_argument);
}

TEST(CliArgs, NumbersMustParseWhole) {
  // std::stoll/std::stod stop at the first bad character; the getters
  // must not: "10k" is not 10 and "1.5" is not an integer.
  const auto args =
      parse({"--runs=10k", "--seed=1.5", "--budget=0.01x", "--lambda=1e-3"});
  EXPECT_THROW(args.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("budget", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 1e-3);
  // The error text is the one malformed numbers always had.
  try {
    args.get_int("runs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --runs expects an integer, got '10k'");
  }
  try {
    args.get_double("budget", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --budget expects a number, got '0.01x'");
  }
}

TEST(CliArgs, HasAndGet) {
  const auto args = parse({"--a=1"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
  EXPECT_EQ(args.get("a").value(), "1");
  EXPECT_FALSE(args.get("b").has_value());
}

}  // namespace
}  // namespace adacheck::util

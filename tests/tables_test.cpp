#include "util/tables.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace adacheck::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "x"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  // Every rendered line has the same width.
  std::istringstream in(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RulesRender) {
  TextTable t({"h"});
  t.add_row({"x"});
  t.add_rule();
  t.add_row({"y"});
  const std::string s = t.to_string();
  // header rule + explicit rule
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("|-", pos)) != std::string::npos) {
    ++rules;
    pos += 2;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(Formatters, FixedAndSci) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-1.0, 0), "-1");
  EXPECT_EQ(fmt_sci(0.0014, 1), "1.4e-03");
}

TEST(Formatters, ProbMatchesPaperStyle) {
  EXPECT_EQ(fmt_prob(0.9991), "0.9991");
  EXPECT_EQ(fmt_prob(1.0), "1.0000");
  EXPECT_EQ(fmt_prob(std::nan("")), "NaN");
}

TEST(Formatters, EnergyMatchesPaperStyle) {
  EXPECT_EQ(fmt_energy(57563.7), "57564");
  EXPECT_EQ(fmt_energy(std::nan("")), "NaN");
}

}  // namespace
}  // namespace adacheck::util

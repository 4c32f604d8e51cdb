#include "util/tables.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace adacheck::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

void TextTable::add_rule() { rows_.emplace_back(); }

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
    }
    out << "-|\n";
  };
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      emit_rule();
    } else {
      emit_row(row);
    }
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.to_string();
}

std::string fmt_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_prob(double v) {
  if (std::isnan(v)) return "NaN";
  return fmt_fixed(v, 4);
}

std::string fmt_energy(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

std::string fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

}  // namespace adacheck::util

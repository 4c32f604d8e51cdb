// The one JSON encoder every adacheck document goes through: sweep
// reports, JSONL cell streams, cache meta, serve protocol lines, the
// canonical fingerprint text, adacheck-stats-v1 snapshots and Chrome
// traces.  Members are written in the order the caller emits them;
// numbers use the shortest round-trip spelling (std::to_chars), so an
// integral double prints "12", never "12.0"; non-finite doubles are
// written as null; strings are escaped minimally (\" \\ \n \t \r, other
// control bytes, NUL included, as \u00XX; every other byte verbatim).
// Two layouts: kPretty (two-space indent) and kCompact (no whitespace
// at all, e.g. one JSONL line).
//
// Header-only and standard-library-only, so it sits in the bottom layer
// (obs) and every layer above can use it without a link dependency.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace adacheck::obs {

enum class JsonStyle { kPretty, kCompact };

/// Writes into a private buffer and hands it to the stream in one write
/// when the root value is complete (or the buffer passes kFlushBytes),
/// so the per-token cost is a string append, not a stream insertion.
/// Callers therefore write to the same stream only between documents.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, JsonStyle style = JsonStyle::kPretty)
      : os_(os), compact_(style == JsonStyle::kCompact) {}

  void key(std::string_view name) {
    element_prefix();
    write_string(name);
    out_ += compact_ ? ":" : ": ";
    pending_key_ = true;
  }

  void begin_object() {
    element_start();
    out_ += '{';
    first_.push_back(true);
  }
  void end_object() { close('}'); }

  void begin_array() {
    element_start();
    out_ += '[';
    first_.push_back(true);
  }
  void end_array() { close(']'); }

  void value(std::string_view s) {
    element_start();
    write_string(s);
    value_done();
  }
  // A literal would otherwise convert to bool before string_view.
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v) {
    element_start();
    if (std::isfinite(v)) {
      write_number(v);
    } else {
      out_ += "null";
    }
    value_done();
  }
  void value(bool b) {
    element_start();
    out_ += b ? "true" : "false";
    value_done();
  }
  // One template for all integer widths: distinct exact overloads
  // would be ambiguous for std::size_t on platforms where it matches
  // neither uint64_t nor long long exactly.  bool prefers the
  // non-template overload above.
  void value(std::integral auto v) {
    element_start();
    write_number(v);
    value_done();
  }

  /// Splices pre-encoded JSON verbatim as one value — for embedding a
  /// document produced elsewhere (e.g. an obs stats snapshot inside a
  /// protocol response line).  The caller owns its validity.
  void raw_value(std::string_view json) {
    element_start();
    out_ += json;
    value_done();
  }

  template <class T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  void element_start() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    element_prefix();
  }
  void element_prefix() {
    if (first_.empty()) return;  // document root
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    newline_indent();
  }
  void newline_indent() {
    if (compact_) return;
    out_ += '\n';
    out_.append(2 * first_.size(), ' ');
  }
  void close(char bracket) {
    const bool was_empty = first_.back();
    first_.pop_back();
    if (!was_empty) newline_indent();
    out_ += bracket;
    value_done();
  }
  void value_done() {
    if (!first_.empty() && out_.size() < kFlushBytes) return;
    os_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
  }
  void write_number(auto v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
  }
  void write_string(std::string_view s) {
    out_ += '"';
    std::size_t run = 0;  // start of the pending unescaped bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out_.append(s, run, i - run);
      run = i + 1;
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                  kHex[c & 0xF]};
          out_.append(escaped, sizeof escaped);
        }
      }
    }
    out_.append(s, run);
    out_ += '"';
  }

  std::ostream& os_;
  std::string out_;  ///< encoded bytes not yet handed to os_
  std::vector<bool> first_;
  bool pending_key_ = false;
  bool compact_ = false;
};

}  // namespace adacheck::obs

#include "util/canonical_json.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json_writer.hpp"

namespace adacheck::util {

namespace {

void write_canonical(obs::JsonWriter& json, const json::Value& value) {
  switch (value.kind()) {
    case json::Kind::kNull:
      json.raw_value("null");
      return;
    case json::Kind::kBool:
      json.value(value.as_bool());
      return;
    case json::Kind::kNumber:
      // The parser rejects NaN/Infinity literals, so every parsed
      // number is finite and gets the shortest round-trip spelling.
      json.value(value.as_number());
      return;
    case json::Kind::kString:
      json.value(value.as_string());
      return;
    case json::Kind::kArray:
      json.begin_array();
      for (const auto& element : value.as_array()) {
        write_canonical(json, element);
      }
      json.end_array();
      return;
    case json::Kind::kObject: {
      // Sort members bytewise by key; the parser already rejected
      // duplicates, so the order is total.
      const auto& object = value.as_object();
      std::vector<const json::Member*> members;
      members.reserve(object.size());
      for (const auto& member : object) members.push_back(&member);
      std::sort(members.begin(), members.end(),
                [](const json::Member* a, const json::Member* b) {
                  return a->first < b->first;
                });
      json.begin_object();
      for (const auto* member : members) {
        json.key(member->first);
        write_canonical(json, member->second);
      }
      json.end_object();
      return;
    }
  }
}

/// splitmix64 finalizer: full-avalanche bit mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string canonical_json(const json::Value& value) {
  std::ostringstream out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  write_canonical(json, value);
  return std::move(out).str();
}

std::string Hash128::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

Hash128 content_hash128(std::string_view bytes) {
  // Two FNV-1a-64 lanes decorrelated by basis and per-byte tweak; the
  // splitmix64 finalizer fixes FNV's weak high-bit diffusion.  Pinned
  // by known-answer tests — do not change without bumping the cache
  // code-version story (src/campaign).
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h1 = 0xCBF29CE484222325ULL;  // FNV offset basis
  std::uint64_t h2 = 0x6C62272E07BB0142ULL;  // FNV-1a-128 basis high word
  for (const char c : bytes) {
    const auto b = static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h1 = (h1 ^ b) * kPrime;
    h2 = (h2 ^ (b + 0x9EULL)) * kPrime;
  }
  // Fold the length in so lane collisions cannot align across sizes.
  h1 = mix64(h1 ^ static_cast<std::uint64_t>(bytes.size()));
  h2 = mix64(h2 + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(bytes.size()));
  return {h1, h2};
}

}  // namespace adacheck::util

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

// XXH64's primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

/// Little-endian words assembled byte by byte: the value never depends
/// on the host's byte order or on the alignment of `p` (compilers turn
/// this into one load on little-endian targets).
std::uint64_t load32(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) |
         static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 |
         static_cast<std::uint64_t>(p[3]) << 24;
}
std::uint64_t load64(const unsigned char* p) noexcept {
  return load32(p) | load32(p + 4) << 32;
}

/// XXH64's lane round: bijective in both the lane and the input word.
constexpr std::uint64_t lane_round(std::uint64_t acc,
                                   std::uint64_t input) noexcept {
  return rotl(acc + input * kPrime2, 31) * kPrime1;
}

/// XXH64's lane merge: bijective in the accumulator and in the lane.
constexpr std::uint64_t lane_merge(std::uint64_t acc,
                                   std::uint64_t lane) noexcept {
  return (acc ^ lane_round(0, lane)) * kPrime1 + kPrime4;
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
  // Pinned by known-answer tests: changing a constant or a step moves
  // every fingerprint and result_hash (see the header comment).
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t n = bytes.size();
  const unsigned char* const end = p + n;

  std::uint64_t hi = kPrime4;
  std::uint64_t lo = kPrime5;
  if (n >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (const unsigned char* const last = end - 32; p <= last; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    // Each word takes every lane through its own chain of merges, so a
    // change to any one lane reaches both words.
    hi = lane_merge(lane_merge(lane_merge(lane_merge(hi, v1), v2), v3), v4);
    lo = lane_merge(lane_merge(lane_merge(lane_merge(lo, v4), v3), v2), v1);
  }
  // The tail (< 32 bytes): words, then a half word, then single bytes,
  // each folded into both words by distinct bijective steps.
  for (; end - p >= 8; p += 8) {
    const std::uint64_t k = load64(p);
    hi = rotl(hi ^ lane_round(0, k), 27) * kPrime1 + kPrime4;
    lo = rotl(lo ^ (rotl(k * kPrime3, 29) * kPrime4), 31) * kPrime2 + kPrime3;
  }
  if (end - p >= 4) {
    const std::uint64_t k = load32(p);
    hi = rotl(hi ^ (k * kPrime1), 23) * kPrime2 + kPrime3;
    lo = rotl(lo ^ (k * kPrime2), 29) * kPrime1 + kPrime5;
    p += 4;
  }
  for (; p < end; ++p) {
    hi = rotl(hi ^ (*p * kPrime5), 11) * kPrime1;
    lo = rotl(lo ^ (*p * kPrime3), 13) * kPrime2;
  }
  // Fold the length in so equal lane states cannot align across sizes.
  const auto length = static_cast<std::uint64_t>(n);
  return {mix64(hi ^ length), mix64(lo + 0x9E3779B97F4A7C15ULL * length)};
}

}  // namespace adacheck::util

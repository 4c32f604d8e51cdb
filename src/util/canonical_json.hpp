// Canonical JSON and stable content hashing — the identity layer of
// the campaign result cache.
//
// canonical_json re-serializes a parsed util::json::Value into one
// normal form: object keys sorted bytewise, no whitespace, shortest
// round-trip doubles, minimal string escaping.  Two documents that
// differ only in key order, inter-token whitespace, or number spelling
// ("1e2" vs "100.0") canonicalize to identical bytes — which is what
// makes a content fingerprint stable under cosmetic edits to a
// scenario or campaign file.  Array order is semantic in every
// adacheck schema (grids, scheme lists, seeds) and is preserved.
//
// content_hash128 is the companion digest: a stable, non-cryptographic
// 128-bit hash whose value depends only on the input bytes — never on
// platform, byte order, alignment, thread count, or process.  The
// algorithm, word-wise after XXH64:
//   - four 64-bit lanes, each taking one little-endian word of every
//     32-byte stripe through XXH64's multiply-rotate round (its primes);
//     words are assembled byte by byte, never read past the end;
//   - the two output words each merge all four lanes, in opposite
//     orders from different starting constants;
//   - the tail (< 32 bytes) folds into both words as 8-byte words, one
//     4-byte half word, then single bytes, by distinct bijective steps;
//   - the length is folded in, and each word ends in the splitmix64
//     finalizer.
// Every step is bijective in its input, so a change to any single
// stripe word or tail piece changes both words.  It hashes about 0.09
// ns/byte (11 GB/s) on a 113 KiB cell payload, 16x the two byte-serial
// FNV-1a lanes it replaced (4 vCPU x86-64, GCC 12.2, -O3).  Cache keys
// and result digests must stay comparable across runs and machines, so
// tests/canonical_json_test.cpp pins known answers for "", "abc",
// "adacheck" and a 111-byte input that reaches every step; changing the
// algorithm moves every fingerprint and result_hash, so every existing
// campaign cache entry misses once (src/campaign bumps the cache meta
// schema with it).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace adacheck::util {

/// The canonical serialization of a parsed JSON document (see file
/// comment).  Total: every Value kind has exactly one encoding.
std::string canonical_json(const json::Value& value);

/// A 128-bit digest, comparable and hex-printable.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex characters, hi lane first.
  std::string hex() const;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Stable content hash of a byte string (see file comment).  Not
/// cryptographic: fine for cache keys and corruption checks, not for
/// adversarial inputs.
Hash128 content_hash128(std::string_view bytes);

}  // namespace adacheck::util

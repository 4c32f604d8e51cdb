// util/canonical_json.hpp: the canonical serializer and the stable
// content hash behind campaign cache fingerprints.  The hash values
// pinned here are load-bearing: they guard every existing on-disk
// campaign cache, so a mismatch means the algorithm changed and every
// cache entry misses once.
#include "util/canonical_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "util/json.hpp"

namespace adacheck::util {
namespace {

std::string canon(const std::string& text) {
  return canonical_json(json::parse(text));
}

// --- canonical form ------------------------------------------------------

TEST(CanonicalJson, SortsObjectKeysAndDropsWhitespace) {
  EXPECT_EQ(canon("{\"b\": 1, \"a\": 2}"), "{\"a\":2,\"b\":1}");
  EXPECT_EQ(canon("{ \"b\" : { \"d\" : 1 , \"c\" : 2 } , \"a\" : [ 1 , 2 ] }"),
            "{\"a\":[1,2],\"b\":{\"c\":2,\"d\":1}}");
}

TEST(CanonicalJson, KeyOrderNeverMatters) {
  EXPECT_EQ(canon("{\"seed\": 7, \"runs\": 100, \"validate\": false}"),
            canon("{\"validate\": false, \"runs\": 100, \"seed\": 7}"));
}

TEST(CanonicalJson, ArrayOrderIsSemanticAndPreserved) {
  EXPECT_NE(canon("[1, 2, 3]"), canon("[3, 2, 1]"));
  EXPECT_EQ(canon("[1, 2, 3]"), "[1,2,3]");
}

TEST(CanonicalJson, NumberSpellingNormalizes) {
  // 1e2, 100.0, and 100 are the same double -> one canonical spelling.
  EXPECT_EQ(canon("[1e2, 100.0, 100]"), "[100,100,100]");
  EXPECT_EQ(canon("0.0014"), canon("1.4e-3"));
}

TEST(CanonicalJson, ScalarsAndEscapes) {
  EXPECT_EQ(canon("null"), "null");
  EXPECT_EQ(canon("true"), "true");
  EXPECT_EQ(canon("false"), "false");
  EXPECT_EQ(canon("\"a\\n\\t\\\"b\\\\\""), "\"a\\n\\t\\\"b\\\\\"");
  EXPECT_EQ(canon("\"\\u0001\""), "\"\\u0001\"");
  EXPECT_EQ(canon("{}"), "{}");
  EXPECT_EQ(canon("[]"), "[]");
}

TEST(CanonicalJson, MixedDocument) {
  EXPECT_EQ(
      canon("{\"b\": 1e2, \"a\": [1.5, \"x\\n\"], "
            "\"c\": {\"z\": null, \"y\": true}}"),
      "{\"a\":[1.5,\"x\\n\"],\"b\":100,\"c\":{\"y\":true,\"z\":null}}");
}

TEST(CanonicalJson, RoundTripsThroughItself) {
  const std::string once = canon(
      "{\"experiments\": [{\"id\": \"t\", \"rows\": [{\"utilization\": "
      "0.76, \"lambda\": 1.4e-3}]}], \"seed\": 1592614637}");
  EXPECT_EQ(canon(once), once);
}

// --- content hash --------------------------------------------------------

/// `n` bytes of a fixed printable pattern.
std::string pattern(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>('!' + (i * 37 + i / 7) % 94);
  }
  return bytes;
}

TEST(ContentHash128, KnownAnswers) {
  // Pinned values: see file comment.  Do not update these without
  // understanding that every existing campaign cache becomes stale.
  EXPECT_EQ(content_hash128("").hex(), "2b0628475d7838f8444c2ac6264108d7");
  EXPECT_EQ(content_hash128("abc").hex(),
            "2114141f05a80337cccf372b85353aed");
  EXPECT_EQ(content_hash128("adacheck").hex(),
            "692dcd0e4fba53c77a2e935103d5cc3b");
  // 111 bytes: three 32-byte stripes, then a word, a half word and
  // three single bytes, so every step of the algorithm is pinned.
  EXPECT_EQ(content_hash128(pattern(111)).hex(),
            "992d7d970f2de7003148bd5c02dabc4f");
}

TEST(ContentHash128, EveryLengthUpTo64HashesDistinctly) {
  // Zero bytes, so only the length tells the inputs apart; 0..64
  // covers the tail-only sizes and one and two full stripes.
  const std::string zeros(64, '\0');
  std::set<std::string> seen;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    EXPECT_TRUE(seen.insert(content_hash128({zeros.data(), n}).hex()).second)
        << n;
  }
}

TEST(ContentHash128, AnySingleBitFlipChangesBothWords) {
  // Just over 1 KiB: 32 stripes plus a 13-byte tail (a word, a half
  // word and a byte), so a flip is tried in every step's input.
  std::string bytes = pattern(1024 + 13);
  const Hash128 base = content_hash128(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      const Hash128 flipped = content_hash128(bytes);
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      ASSERT_NE(flipped.hi, base.hi) << "byte " << i << " bit " << bit;
      ASSERT_NE(flipped.lo, base.lo) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(ContentHash128, SameBytesAtAnUnalignedOffsetHashEqual) {
  const std::string bytes = pattern(200);
  for (const std::size_t n : {0, 3, 4, 8, 13, 31, 32, 33, 64, 111, 200}) {
    const Hash128 aligned = content_hash128({bytes.data(), n});
    for (std::size_t offset = 1; offset < 8; ++offset) {
      std::string shifted(offset, 'x');
      shifted.append(bytes, 0, n);
      EXPECT_EQ(content_hash128({shifted.data() + offset, n}), aligned)
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(ContentHash128, HexIs32LowercaseChars) {
  const std::string hex = content_hash128("anything").hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(ContentHash128, SensitiveToEveryByte) {
  const Hash128 base = content_hash128("campaign cell");
  EXPECT_NE(base, content_hash128("campaign celL"));
  EXPECT_NE(base, content_hash128("campaign cell "));
  EXPECT_NE(base, content_hash128("Campaign cell"));
  // Length extension of a zero byte still changes the digest.
  EXPECT_NE(content_hash128(std::string("\0", 1)),
            content_hash128(std::string("\0\0", 2)));
}

TEST(ContentHash128, LanesAreDecorrelated) {
  // If both lanes ever collapsed to the same function, hi == lo for
  // every input and the digest would only be 64 bits strong.
  EXPECT_NE(content_hash128("abc").hi, content_hash128("abc").lo);
  EXPECT_NE(content_hash128("").hi, content_hash128("").lo);
}

TEST(ContentHash128, EqualityOperator) {
  EXPECT_EQ(content_hash128("same"), content_hash128("same"));
  EXPECT_FALSE(content_hash128("same") == content_hash128("diff"));
}

}  // namespace
}  // namespace adacheck::util

#include "common/coding.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"

namespace ivdb {
namespace {

TEST(Fixed, RoundTrip32) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    std::string buf;
    PutFixed32(&buf, v);
    ASSERT_EQ(buf.size(), 4u);
    Slice input(buf);
    uint32_t out = 0;
    ASSERT_TRUE(GetFixed32(&input, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(input.empty());
  }
}

TEST(Fixed, RoundTrip64) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 32,
                     std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutFixed64(&buf, v);
    ASSERT_EQ(buf.size(), 8u);
    Slice input(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetFixed64(&input, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(Fixed, Truncated) {
  std::string buf = "abc";
  Slice input(buf);
  uint32_t out32;
  EXPECT_FALSE(GetFixed32(&input, &out32));
  uint64_t out64;
  EXPECT_FALSE(GetFixed64(&input, &out64));
}

TEST(Varint, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&input, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(input.empty());
  }
}

TEST(Varint, RandomRoundTrip) {
  Random rng(42);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    std::string buf;
    PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&input, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, TruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice input(buf);
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&input, &out));
}

TEST(LengthPrefixed, RoundTrip) {
  for (const std::string& s :
       {std::string(), std::string("x"), std::string("hello world"),
        std::string(1000, 'z'), std::string("\0\0with nulls\0", 13)}) {
    std::string buf;
    PutLengthPrefixed(&buf, s);
    Slice input(buf);
    std::string out;
    ASSERT_TRUE(GetLengthPrefixed(&input, &out));
    EXPECT_EQ(out, s);
  }
}

TEST(LengthPrefixed, TruncatedPayloadFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  Slice input(buf);
  std::string out;
  EXPECT_FALSE(GetLengthPrefixed(&input, &out));
}

TEST(OrderedInt64, RoundTrip) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, int64_t{1},
                    std::numeric_limits<int64_t>::max()}) {
    std::string buf;
    EncodeOrderedInt64(&buf, v);
    Slice input(buf);
    int64_t out = 0;
    ASSERT_TRUE(DecodeOrderedInt64(&input, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(OrderedInt64, PreservesOrder) {
  Random rng(7);
  for (int i = 0; i < 2000; i++) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    std::string ea, eb;
    EncodeOrderedInt64(&ea, a);
    EncodeOrderedInt64(&eb, b);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

TEST(OrderedDouble, RoundTrip) {
  for (double v : {-1e300, -1.5, -0.0, 0.0, 1.5, 3.14159, 1e300}) {
    std::string buf;
    EncodeOrderedDouble(&buf, v);
    Slice input(buf);
    double out = 0;
    ASSERT_TRUE(DecodeOrderedDouble(&input, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(OrderedDouble, PreservesOrder) {
  std::vector<double> values = {-1e308, -5.0, -1.0, -0.001, 0.0,
                                0.001,  1.0,  42.,  1e308};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    std::string a, b;
    EncodeOrderedDouble(&a, values[i]);
    EncodeOrderedDouble(&b, values[i + 1]);
    EXPECT_LT(a, b) << values[i] << " vs " << values[i + 1];
  }
}

TEST(OrderedDouble, RandomOrder) {
  Random rng(99);
  for (int i = 0; i < 2000; i++) {
    double a = (rng.NextDouble() - 0.5) * 1e9;
    double b = (rng.NextDouble() - 0.5) * 1e9;
    std::string ea, eb;
    EncodeOrderedDouble(&ea, a);
    EncodeOrderedDouble(&eb, b);
    EXPECT_EQ(a < b, ea < eb);
  }
}

TEST(OrderedString, RoundTrip) {
  for (const std::string& s :
       {std::string(), std::string("abc"), std::string("\0", 1),
        std::string("a\0b", 3), std::string("\0\xff", 2),
        std::string("\0\x01", 2)}) {
    std::string buf;
    EncodeOrderedString(&buf, s);
    Slice input(buf);
    std::string out;
    ASSERT_TRUE(DecodeOrderedString(&input, &out));
    EXPECT_EQ(out, s);
    EXPECT_TRUE(input.empty());
  }
}

TEST(OrderedString, PrefixSortsFirst) {
  std::string a, ab;
  EncodeOrderedString(&a, "a");
  EncodeOrderedString(&ab, "ab");
  EXPECT_LT(a, ab);
}

TEST(OrderedString, EmbeddedNulOrdering) {
  // "a\0" < "a\0\0" < "a\x01"
  std::string e1, e2, e3;
  EncodeOrderedString(&e1, std::string("a\0", 2));
  EncodeOrderedString(&e2, std::string("a\0\0", 3));
  EncodeOrderedString(&e3, std::string("a\x01", 2));
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
}

TEST(OrderedString, ConcatenationRemainsParseable) {
  // Composite keys: two encoded strings in sequence decode independently.
  std::string buf;
  EncodeOrderedString(&buf, "first\0key");
  EncodeOrderedString(&buf, "second");
  Slice input(buf);
  std::string a, b;
  ASSERT_TRUE(DecodeOrderedString(&input, &a));
  ASSERT_TRUE(DecodeOrderedString(&input, &b));
  EXPECT_EQ(a, "first");  // string literal stops at embedded NUL
  EXPECT_EQ(b, "second");
}

// Bytewise CRC-32 (IEEE, reflected) straight from the polynomial: the
// reference the table-sliced implementation must agree with bit for bit.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    c ^= p[i];
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Random rnd(301);
  std::vector<unsigned char> buf(300 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rnd.Next());
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len + offset <= buf.size() && len <= 300; len++) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace ivdb

// Crc32c's two implementations: the SSE4.2 crc32 loop must give the byte
// table's value on every length and start alignment, in one call or fed
// in pieces, and an x86-64 CPU that reports SSE4.2 must run it.

#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace dd {
namespace {

/// RFC 3720 (iSCSI) appendix B.4 vectors plus the standard check value.
struct KnownAnswer {
  std::string data;
  uint32_t crc;
};

std::vector<KnownAnswer> KnownAnswers() {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  return {{"", 0x00000000u},
          {"123456789", 0xe3069283u},
          {std::string(32, '\0'), 0x8a9136aau},
          {std::string(32, '\xff'), 0x62a8ab43u},
          {ascending, 0x46dd794eu},
          {descending, 0x113fdb5cu}};
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32cTest, KnownAnswerVectorsOnEveryPath) {
  for (const KnownAnswer& answer : KnownAnswers()) {
    EXPECT_EQ(Crc32c(answer.data), answer.crc) << answer.data.size();
    EXPECT_EQ(crc32c_internal::Table(0, answer.data), answer.crc);
#if defined(__x86_64__)
    if (crc32c_internal::UsesHardware()) {
      EXPECT_EQ(crc32c_internal::Sse42(0, answer.data), answer.crc);
    }
#endif
  }
}

TEST(Crc32cTest, PiecesComposeToOneCall) {
  const std::string bytes = RandomBytes(7, 4096 + 13);
  const uint32_t whole = crc32c_internal::Table(0, bytes);
  ASSERT_EQ(Crc32c(bytes), whole);
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t crc = 0;
    std::string_view rest = bytes;
    while (!rest.empty()) {
      // Pieces of 0-40 bytes: every tail length and every misalignment
      // of the 8-byte loop meets every other.
      const size_t take = std::min<size_t>(rng.NextBounded(41), rest.size());
      crc = Crc32c(crc, rest.substr(0, take));
      rest.remove_prefix(take);
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

#if defined(__x86_64__)

TEST(Crc32cTest, Sse42MatchesTableOnEveryLengthAndAlignment) {
  if (!crc32c_internal::UsesHardware()) {
    GTEST_SKIP() << "this CPU does not report SSE4.2";
  }
  // 8 leading bytes of slack so each buffer can start at any of the 8
  // alignments of the instruction's 8-byte loads. The table's values are
  // extended one byte at a time; a nonzero start value checks that a
  // continued checksum reaches the instruction loop too.
  constexpr uint32_t kStart = 0x9e3779b9u;
  const std::string bytes = RandomBytes(42, 4096 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    uint32_t fresh = 0;
    uint32_t continued = kStart;
    for (size_t len = 0; len <= 4096; ++len) {
      const std::string_view data(bytes.data() + offset, len);
      ASSERT_EQ(crc32c_internal::Sse42(0, data), fresh)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32c_internal::Sse42(kStart, data), continued)
          << "offset " << offset << " len " << len;
      const std::string_view next(bytes.data() + offset + len, 1);
      fresh = crc32c_internal::Table(fresh, next);
      continued = crc32c_internal::Table(continued, next);
    }
  }
}

TEST(Crc32cTest, Sse42CpuTakesTheHardwarePath) {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("sse4.2")) {
    GTEST_SKIP() << "this CPU does not report SSE4.2";
  }
  EXPECT_TRUE(crc32c_internal::UsesHardware());
}

#else

TEST(Crc32cTest, Sse42CpuTakesTheHardwarePath) {
  GTEST_SKIP() << "no hardware CRC-32C path on this architecture";
}

#endif

}  // namespace
}  // namespace dd

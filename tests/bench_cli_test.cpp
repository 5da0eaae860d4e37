// The bench harness's numeric flags (--seed, --checkpoint-every,
// --full-every, --shards) share one strict parse: the whole value must be
// an in-range unsigned integer, so a sign, a suffix or an overflow is an
// error instead of a silently wrapped or truncated number.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "bench_common.h"
#include "core/sharding.h"

namespace sgxpl::bench {
namespace {

constexpr std::uint64_t kAny = ~std::uint64_t{0};

TEST(ParseUnsigned, AcceptsDecimalAndHexWithinRange) {
  EXPECT_EQ(parse_unsigned("0", 0, kAny), 0u);
  EXPECT_EQ(parse_unsigned("4", 1, 8), 4u);
  EXPECT_EQ(parse_unsigned("0x5eed", 0, kAny), 0x5eedu);
  EXPECT_EQ(parse_unsigned("0X10", 0, kAny), 16u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", 0, kAny), kAny);
  EXPECT_EQ(parse_unsigned("256", 1, core::kMaxShardThreads), 256u);
}

TEST(ParseUnsigned, RejectsSignsSuffixesSpacesAndJunk) {
  for (const char* bad : {"", "-1", "+4", " 4", "4 ", "4x", "abc", "0x",
                          "0xg", "1e3", "4.0", "--3"}) {
    EXPECT_EQ(parse_unsigned(bad, 0, kAny), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ParseUnsigned, RejectsOverflowAndOutOfRange) {
  EXPECT_EQ(parse_unsigned("18446744073709551616", 0, kAny), std::nullopt);
  EXPECT_EQ(parse_unsigned("0x10000000000000000", 0, kAny), std::nullopt);
  EXPECT_EQ(parse_unsigned("0", 1, kAny), std::nullopt);
  EXPECT_EQ(parse_unsigned("257", 1, core::kMaxShardThreads), std::nullopt);
}

}  // namespace
}  // namespace sgxpl::bench

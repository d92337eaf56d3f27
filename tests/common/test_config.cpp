#include "common/config.hpp"

#include <gtest/gtest.h>

namespace bs {
namespace {

TEST(Config, ByteSuffixes) {
  EXPECT_EQ(parse_bytes("64KB").value(), 64'000ull);
  EXPECT_EQ(parse_bytes("4MiB").value(), 4ull * 1048576);
  EXPECT_EQ(parse_bytes("1GB").value(), 1'000'000'000ull);
  EXPECT_EQ(parse_bytes("123").value(), 123ull);
  EXPECT_EQ(parse_bytes(" 2 gib ").value(), 2ull * 1073741824);
  EXPECT_FALSE(parse_bytes("12 parsecs").ok());
  EXPECT_FALSE(parse_bytes("abc").ok());
  // Policy text is outside input: a size that does not fit is an error,
  // never an undefined cast.
  for (const char* text : {"2e10GB", "-1KB", "inf", "nan"}) {
    EXPECT_FALSE(parse_bytes(text).ok()) << text;
  }
  EXPECT_EQ(parse_bytes("18e18").value(), 18'000'000'000'000'000'000ull);
}

TEST(Config, DurationSuffixes) {
  EXPECT_EQ(parse_duration("250ms").value(), simtime::millis(250));
  EXPECT_EQ(parse_duration("10s").value(), simtime::seconds(10));
  EXPECT_EQ(parse_duration("2min").value(), simtime::minutes(2));
  EXPECT_EQ(parse_duration("5us").value(), simtime::micros(5));
  EXPECT_EQ(parse_duration("42").value(), 42);
  EXPECT_FALSE(parse_duration("10 fortnights").ok());
  // Negative, or beyond 2^63 ns (about 292 years): an error, never an
  // undefined cast.
  for (const char* text : {"1e12s", "3000000h", "-60s", "inf", "nan"}) {
    EXPECT_FALSE(parse_duration(text).ok()) << text;
  }
  EXPECT_EQ(parse_duration("9.2e18").value(), 9'200'000'000'000'000'000);
  EXPECT_EQ(parse_duration("2500000h").value(),
            simtime::minutes(2'500'000 * 60.0));
}

}  // namespace
}  // namespace bs

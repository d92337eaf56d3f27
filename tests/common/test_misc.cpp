// Tests for the remaining small common utilities: Result, strings, time
// formatting, TimeSeries, TokenBucket, RingBuffer, hashing.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/ring_buffer.hpp"
#include "common/strings.hpp"
#include "common/timeseries.hpp"
#include "common/token_bucket.hpp"
#include "common/types.hpp"

namespace bs {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.code(), Errc::ok);

  Result<int> err(Errc::not_found, "gone");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::not_found);
  EXPECT_EQ(err.error().message, "gone");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = ok_result();
  EXPECT_TRUE(ok.ok());
  Result<void> err{Errc::timeout};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::timeout);
}

// error() && hands the message over instead of copying it: a message too
// long for the small-string buffer keeps its heap buffer. An lvalue still
// copies and keeps its own.
TEST(Result, RvalueErrorMovesTheMessage) {
  const std::string text = "client is blocked by the security policy";
  Result<int> r(Errc::blocked, text);
  const char* buffer = r.error().message.data();
  Error moved = std::move(r).error();
  EXPECT_EQ(moved.code, Errc::blocked);
  EXPECT_EQ(moved.message, text);
  EXPECT_EQ(moved.message.data(), buffer);

  Result<void> v(Errc::timeout, text);
  const Error copied = v.error();
  EXPECT_NE(copied.message.data(), v.error().message.data());
  const char* vbuffer = v.error().message.data();
  Error taken = std::move(v).error();
  EXPECT_EQ(taken.code, Errc::timeout);
  EXPECT_EQ(taken.message, text);
  EXPECT_EQ(taken.message.data(), vbuffer);
  EXPECT_EQ(copied.message, text);
}

TEST(Result, ErrcNamesStable) {
  EXPECT_STREQ(errc_name(Errc::blocked), "blocked");
  EXPECT_STREQ(errc_name(Errc::out_of_space), "out_of_space");
  EXPECT_STREQ(errc_name(Errc::ok), "ok");
}

TEST(Strings, SplitTrimJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(simtime::to_string(simtime::seconds(1.5)), "1.500s");
  EXPECT_EQ(simtime::to_string(simtime::millis(2)), "2.000ms");
  EXPECT_EQ(units::format_bytes(1'500'000'000ull), "1.50 GB");
  EXPECT_EQ(units::format_rate(112'300'000.0), "112.3 MB/s");
}

TEST(Ids, ValidityAndHash) {
  NodeId a{3}, b{3}, c{4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(NodeId{}.valid());
  EXPECT_EQ(std::hash<NodeId>{}(a), std::hash<NodeId>{}(b));
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(fnv1a_u64(1), fnv1a_u64(2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(TimeSeries, RangeAndValueAt) {
  TimeSeries ts;
  ts.append(simtime::seconds(1), 10);
  ts.append(simtime::seconds(2), 20);
  ts.append(simtime::seconds(3), 30);
  EXPECT_EQ(ts.range(simtime::seconds(1), simtime::seconds(3)).size(), 2u);
  EXPECT_DOUBLE_EQ(ts.value_at(simtime::seconds(2.5)), 20);
  EXPECT_DOUBLE_EQ(ts.value_at(simtime::seconds(0.5), -1), -1);
  EXPECT_DOUBLE_EQ(ts.value_at(simtime::seconds(99)), 30);
}

TEST(TimeSeries, MeanAndResample) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.append(simtime::seconds(i), i);
  EXPECT_DOUBLE_EQ(ts.mean(simtime::seconds(0), simtime::seconds(10)), 4.5);
  auto r = ts.resample(simtime::seconds(0), simtime::seconds(10),
                       simtime::seconds(2));
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r[0], 0.5);
  EXPECT_DOUBLE_EQ(r[4], 8.5);
}

TEST(TimeSeries, ResampleFillsGaps) {
  TimeSeries ts;
  ts.append(simtime::seconds(0), 5);
  ts.append(simtime::seconds(9), 7);
  auto r = ts.resample(simtime::seconds(0), simtime::seconds(10),
                       simtime::seconds(1));
  ASSERT_EQ(r.size(), 10u);
  EXPECT_DOUBLE_EQ(r[3], 5);  // carried forward
  EXPECT_DOUBLE_EQ(r[9], 7);
}

TEST(TimeSeries, EmptySeriesEdges) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.value_at(simtime::seconds(5), -2.0), -2.0);
  EXPECT_DOUBLE_EQ(ts.mean(simtime::seconds(0), simtime::seconds(10), 3.0),
                   3.0);
  EXPECT_TRUE(ts.range(simtime::seconds(0), simtime::seconds(10)).empty());
  auto r = ts.resample(simtime::seconds(0), simtime::seconds(4),
                       simtime::seconds(1), /*initial=*/1.5);
  ASSERT_EQ(r.size(), 4u);
  for (double v : r) EXPECT_DOUBLE_EQ(v, 1.5);  // initial carried throughout
}

TEST(TimeSeries, HalfOpenRangeAndEmptyMeanWindow) {
  TimeSeries ts;
  ts.append(simtime::seconds(1), 10);
  ts.append(simtime::seconds(2), 20);
  // range() is [from, to): the sample exactly at `to` is excluded...
  EXPECT_EQ(ts.range(simtime::seconds(1), simtime::seconds(2)).size(), 1u);
  // ...and a window strictly between samples has no mass.
  EXPECT_DOUBLE_EQ(
      ts.mean(simtime::seconds(1.2), simtime::seconds(1.8), -1.0), -1.0);
}

TEST(TokenBucket, ConsumesAndRefills) {
  TokenBucket tb(10.0, 5.0);  // 10 tokens/s, burst 5
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
  t = simtime::millis(200);  // +2 tokens
  EXPECT_TRUE(tb.try_consume(t));
  EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
}

TEST(TokenBucket, NextAvailable) {
  TokenBucket tb(10.0, 1.0);
  EXPECT_TRUE(tb.try_consume(0));
  const SimTime next = tb.next_available(0);
  EXPECT_NEAR(simtime::to_seconds(next), 0.1, 1e-6);
  EXPECT_TRUE(tb.try_consume(next + 1));
}

TEST(TokenBucket, BurstCapped) {
  TokenBucket tb(100.0, 3.0);
  const SimTime later = simtime::seconds(100);
  EXPECT_NEAR(tb.available(later), 3.0, 1e-9);
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(4));
  EXPECT_EQ(rb.pop().value(), 1);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_EQ(rb.pop().value(), 4);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, PushEvict) {
  RingBuffer<int> rb(2);
  EXPECT_FALSE(rb.push_evict(1).has_value());
  EXPECT_FALSE(rb.push_evict(2).has_value());
  auto evicted = rb.push_evict(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1);
  EXPECT_EQ(rb.pop().value(), 2);
}

}  // namespace
}  // namespace bs

// Seeded chaos for the fault-injection plane (ctest label: chaos): the
// plain append scenario. Invariants: a seed replays bit-identically; every
// published version reads back whole after the dust settles, even when
// writers crashed mid-write or mid-publish; and the RPC retry layer is
// load-bearing: without it the same schedules lose strictly more writes.
#include <gtest/gtest.h>

#include "integration/chaos_runner.hpp"

namespace bs::test {
namespace {

class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeeds, ReplayIsBitIdenticalAndPublishedVersionsStayReadable) {
  const std::uint64_t seed = GetParam();
  const ChaosOutcome a = run_chaos(seed, {});
  const ChaosOutcome b = run_chaos(seed, {});

  // Determinism: the same seed replays bit-identically.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.succeeded, b.succeeded) << "seed " << seed;
  EXPECT_EQ(a.calls_retried, b.calls_retried) << "seed " << seed;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << "seed " << seed;

  // Liveness: the system keeps making progress under the schedule.
  EXPECT_GT(a.succeeded, 0u) << "seed " << seed;
  EXPECT_GT(a.faults_applied, 0u) << "seed " << seed;
  EXPECT_GE(a.published, a.succeeded) << "seed " << seed;

  // Safety: no published version is ever torn or unreadable.
  EXPECT_EQ(a.unreadable, 0u) << "seed " << seed;
  EXPECT_EQ(b.unreadable, 0u) << "seed " << seed;
}

// 50 seeded schedules in the tier-1/chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST(ChaosAggregate, RetryLayerIsLoadBearing) {
  // Replay a band of schedules with and without the RPC retry layer. The
  // no-retry runs must lose strictly more writes overall (drops and
  // timeouts become hard failures), while the safety invariant — published
  // versions stay readable — holds either way.
  std::size_t with_retries = 0;
  std::size_t without_retries = 0;
  std::size_t attempted = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ChaosOutcome on = run_chaos(seed, {});
    const ChaosOutcome off = run_chaos(seed, {.retries = false});
    with_retries += on.succeeded;
    without_retries += off.succeeded;
    attempted += on.attempted;
    EXPECT_EQ(on.unreadable, 0u) << "seed " << seed;
    EXPECT_EQ(off.unreadable, 0u) << "seed " << seed;
  }
  EXPECT_GT(with_retries, without_retries)
      << "retries recovered no writes across " << attempted << " appends";
  // And retries recover most of the workload.
  EXPECT_GE(with_retries * 10, attempted * 7);
}

}  // namespace
}  // namespace bs::test

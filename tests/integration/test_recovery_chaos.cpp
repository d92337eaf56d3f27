// Seeded chaos with the persistent-store model (ctest labels: recovery,
// chaos): the append scenario with every stateful service journaling,
// under torn-tail crashes, one store wipe and a site-wide power loss. A
// seed replays bit-identically, recovery counters included, and no acked
// write is lost or torn write resurrected.
#include <gtest/gtest.h>

#include "integration/chaos_runner.hpp"

namespace bs::test {
namespace {

class RecoveryChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryChaosSeeds, ReplayIsBitIdenticalAndRecoveryLosesNothing) {
  const std::uint64_t seed = GetParam();
  const ChaosOutcome a = run_chaos(seed, journaled_scenario());
  const ChaosOutcome b = run_chaos(seed, journaled_scenario());

  // Determinism, including the recovery counters.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.recoveries, b.recoveries) << "seed " << seed;
  EXPECT_EQ(a.replay_bytes, b.replay_bytes) << "seed " << seed;
  EXPECT_EQ(a.torn_tails, b.torn_tails) << "seed " << seed;

  // The journal path was actually exercised: the schedule always restarts
  // what it crashes, and every restart of a journaled service replays.
  EXPECT_GT(a.recoveries, 0u) << "seed " << seed;
  EXPECT_GT(a.faults_applied, 0u) << "seed " << seed;

  // Liveness + safety: progress under faults, no acked write lost and no
  // torn write resurrected.
  EXPECT_GT(a.succeeded, 0u) << "seed " << seed;
  EXPECT_GE(a.published, a.succeeded) << "seed " << seed;
  EXPECT_EQ(a.unreadable, 0u) << "seed " << seed;
  EXPECT_EQ(b.unreadable, 0u) << "seed " << seed;
}

// 50 seeded schedules in the recovery/chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace bs::test

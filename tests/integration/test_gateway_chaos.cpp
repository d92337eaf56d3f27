// Seeded chaos for the S3 gateway (ctest labels: gateway, recovery,
// chaos): provider and gateway crashes (some with torn journal tails) and
// link faults under the trace-replay workload (puts, multiparts, deltas,
// range gets, pagination, deletes). A seed replays bit-identically, trace
// and gateway state included, and every object the recovered gateway lists
// reads back whole with its etag: refcounted dedup never reclaims a chunk
// a live manifest needs.
#include <gtest/gtest.h>

#include "integration/chaos_runner.hpp"

namespace bs::test {
namespace {

class GatewayChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatewayChaosSeeds, ReplayIsBitIdenticalAndNoListedObjectIsLost) {
  const std::uint64_t seed = GetParam();
  const ChaosOutcome a = run_chaos(seed, gateway_scenario());
  const ChaosOutcome b = run_chaos(seed, gateway_scenario());

  // Determinism, including dedup/reclaim and recovery accounting.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.trace.digest, b.trace.digest) << "seed " << seed;
  EXPECT_EQ(a.recoveries, b.recoveries) << "seed " << seed;
  EXPECT_EQ(a.chunks_reclaimed, b.chunks_reclaimed) << "seed " << seed;

  // By the horizon the trace finished and the gateway was serving; the
  // schedule fired and the services replayed their journals.
  for (const ChaosOutcome* o : {&a, &b}) {
    EXPECT_TRUE(o->trace_done) << "seed " << seed;
    EXPECT_FALSE(o->gateway_recovering) << "seed " << seed;
  }
  EXPECT_GT(a.faults_applied, 0u) << "seed " << seed;
  EXPECT_GT(a.recoveries, 0u) << "seed " << seed;

  // Progress under faults, and the safety invariant: every object the
  // recovered gateway lists is fully readable with its recorded etag.
  EXPECT_GT(a.trace.puts + a.trace.multipart_puts + a.trace.delta_puts, 0u)
      << "seed " << seed;
  EXPECT_EQ(a.unreadable, 0u) << "seed " << seed;
  EXPECT_EQ(b.unreadable, 0u) << "seed " << seed;
}

// 50 seeded schedules in the gateway chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, GatewayChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace bs::test

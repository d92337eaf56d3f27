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

constexpr std::uint64_t kChunk = 1 * units::MB;

ChaosOutcome run_gateway_chaos(std::uint64_t seed) {
  ChaosScenario sc;
  sc.deployment.sites = 2;
  sc.deployment.data_providers = 6;
  sc.deployment.journal.enabled = true;
  sc.short_leases = false;
  // Two replicas: a crashed (never wiped) provider loses nothing.
  sc.gateway = cloud::GatewayOptions{.object_chunk_size = kChunk,
                                     .replication = 2,
                                     .journal = {.enabled = true}};
  // Provider and gateway crashes (torn tails, no wipes — the readability
  // invariant below is absolute), link faults and a disk slowdown, all
  // quiesced before the sweep.
  fault::ScheduleOptions& so = sc.schedule;
  so.crashes = 4;
  so.max_wipe_crashes = 0;
  so.torn_tail_prob = 0.3;
  so.degrades = 1;
  so.worst_case_recovery = simtime::seconds(10);
  sc.workload = workload::GatewayTraceConfig{
      .tenants = 3, .keys_per_tenant = 8, .ops_per_tenant = 15,
      .chunk_size = kChunk, .max_object_chunks = 4, .multipart_parts = 3,
      .think_time = simtime::seconds(3)};
  // Generous tail: crash-window ops ride out their RPC timeouts and the
  // last recovery replays before the sweep.
  sc.horizon = simtime::minutes(10);
  return run_chaos(seed, sc);
}

class GatewayChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatewayChaosSeeds, ReplayIsBitIdenticalAndNoListedObjectIsLost) {
  const std::uint64_t seed = GetParam();
  const ChaosOutcome a = run_gateway_chaos(seed);
  const ChaosOutcome b = run_gateway_chaos(seed);

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

// Seeded chaos for the geo-replication plane (ctest labels: repl, chaos):
// the journaled append scenario with the repl plane on, under a long WAN
// partition and egress crashes on top of the provider hazards. A seed
// replays bit-identically, custody and version maps included; after the
// tail every remote version map is coherent with the origin and every
// published version reads back. Also the 30-sim-minute partition
// acceptance test.
#include <gtest/gtest.h>

#include <vector>

#include "integration/chaos_runner.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

class ReplChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplChaosSeeds, ReplayIsBitIdenticalAndReconciliationConverges) {
  const std::uint64_t seed = GetParam();
  const test::ChaosOutcome a = test::run_chaos(seed, test::repl_scenario());
  const test::ChaosOutcome b = test::run_chaos(seed, test::repl_scenario());

  // Determinism, custody and version-map state included.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.custody.enqueued, b.custody.enqueued) << "seed " << seed;
  EXPECT_EQ(a.heals, b.heals) << "seed " << seed;

  // Disruption tolerance: the workload makes progress, every published
  // version survives readable, and after the heals + anti-entropy tail
  // every remote map is coherent against the origin.
  EXPECT_GT(a.succeeded, 0u) << "seed " << seed;
  EXPECT_EQ(a.unreadable, 0u) << "seed " << seed;
  EXPECT_TRUE(a.coherent) << "seed " << seed;

  // Custody was actually exercised: bundles were taken into custody and
  // partitions healed (coherence above proves they were handed off).
  EXPECT_GT(a.custody.enqueued, 0u) << "seed " << seed;
  EXPECT_GT(a.heals, 0u) << "seed " << seed;
}

// 50 seeded schedules in the repl/chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, ReplChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// ------------------------------------------------- 30-minute partition
// Acceptance scenario from the disruption-tolerance brief: a WAN cut
// between the two replica sites (the control plane stays reachable) held
// for 30 simulated minutes. Clients keep writing throughout; cross-site
// chunk replication is requested against the cut and must be absorbed by
// custody — zero failed replication RPCs surface to any caller. After the
// heal the plane must drain and reconcile within a bounded window.
TEST(ReplPartitionAcceptance, ThirtyMinuteCutIsInvisibleToClients) {
  sim::Simulation sim;
  blob::DeploymentConfig cfg = test::ChaosScenario{}.deployment;
  cfg.journal.enabled = true;
  test::ChaosStack st(sim, cfg, test::repl_scenario().repl);
  blob::Deployment& dep = st.dep;
  repl::ReplicationPlane& plane = *st.plane;

  blob::BlobClient* client = dep.add_client();
  // Deployment placement is round-robin, so the first client lands on the
  // origin site — the partition below never cuts its control plane.
  ASSERT_EQ(client->node().site(), plane.origin_site());
  auto blob = test::run_task(
      sim, client->create(4 * units::MB, /*replication=*/2));
  ASSERT_TRUE(blob.ok());

  fault::FaultPlane fp(dep.cluster());
  plane.attach_fault_plane(fp);

  // dp[0] lives on site 1, dp[1] on site 2 (round-robin from site 1).
  blob::DataProvider& src_dp = *dep.providers()[0];
  blob::DataProvider& dst_dp = *dep.providers()[1];
  ASSERT_EQ(src_dp.node().site(), net::SiteId{1});
  ASSERT_EQ(dst_dp.node().site(), net::SiteId{2});

  sim.run_until(simtime::seconds(10));
  fp.partition(1, 2);
  const SimTime cut_at = sim.now();

  // Appends throughout the outage — none may fail.
  struct Op {
    SimTime at{0};
    Result<blob::WriteReceipt> result{Errc::internal};
  };
  std::vector<Op> ops(60);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].at = cut_at + simtime::seconds(5 + 29 * static_cast<double>(i));
    sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                 Op& op) -> sim::Task<void> {
      co_await s.delay_until(op.at);
      op.result = co_await cl.append(
          b, blob::Payload::synthetic(
                 units::MB, static_cast<std::uint64_t>(op.at)));
    }(sim, *client, blob.value(), ops[i]));
  }

  // Cross-site replication requests against the cut: store a chunk on the
  // site-1 provider, then ask it to replicate to site 2. The router hands
  // the copy to custody, so the RPC succeeds instantly despite the cut.
  constexpr std::size_t kPulses = 6;
  std::vector<blob::ChunkKey> pulsed;
  for (std::size_t i = 0; i < kPulses; ++i) {
    sim.run_until(cut_at + simtime::minutes(1 + 4 * static_cast<double>(i)));
    blob::ChunkKey key{BlobId{9000 + i}, 1, i};
    blob::PutChunkReq put;
    put.key = key;
    put.payload = blob::Payload::synthetic(256 * units::KB, 0xAB00 + i);
    auto stored = test::run_task(
        sim, dep.cluster().call<blob::PutChunkReq, blob::PutChunkResp>(
                 client->node(), src_dp.id(), std::move(put)));
    ASSERT_TRUE(stored.ok()) << "pulse " << i;
    blob::ReplicateChunkReq rep;
    rep.key = key;
    rep.target = dst_dp.id();
    auto copied = test::run_task(
        sim,
        dep.cluster().call<blob::ReplicateChunkReq, blob::ReplicateChunkResp>(
            client->node(), src_dp.id(), rep));
    // The acceptance criterion: custody absorbs the cut, the caller never
    // sees a failure.
    EXPECT_TRUE(copied.ok()) << "pulse " << i;
    pulsed.push_back(key);
  }
  EXPECT_EQ(plane.chunks_routed(), kPulses);
  EXPECT_GE(plane.egress(1).queue_depth(2), kPulses);

  // Hold the cut for the full 30 minutes, then heal and time the window
  // back to coherence + empty custody queues.
  sim.run_until(cut_at + simtime::minutes(30));
  for (const Op& op : ops) {
    EXPECT_TRUE(op.result.ok()) << "append during the cut failed";
  }
  fp.heal(1, 2);
  const SimTime healed_at = sim.now();
  const SimDuration bound = simtime::seconds(120);
  while (sim.now() - healed_at < bound &&
         !(plane.coherent() && plane.egress(1).queue_depth() == 0 &&
           plane.egress(2).queue_depth() == 0)) {
    sim.run_until(sim.now() + simtime::seconds(1));
  }
  const SimDuration window = sim.now() - healed_at;

  EXPECT_TRUE(plane.coherent());
  EXPECT_EQ(plane.egress(1).queue_depth(), 0u);
  EXPECT_LT(window, bound);

  // The replicated chunks actually landed on the far side.
  for (const blob::ChunkKey& key : pulsed) {
    blob::GetChunkReq get;
    get.key = key;
    auto fetched = test::run_task(
        sim, dep.cluster().call<blob::GetChunkReq, blob::GetChunkResp>(
                 client->node(), dst_dp.id(), std::move(get)));
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().payload.size, 256 * units::KB);
  }

  // Custody accounting balances: everything taken was handed off.
  const repl::CustodyQueueStats cs = plane.total_custody_stats();
  EXPECT_EQ(cs.enqueued, cs.released);
}

}  // namespace
}  // namespace bs

// Property suite for the custody-transfer replication plane, on a hermetic
// three-site rig (bare cluster + egresses, no blob deployment): publishes
// are driven straight into the origin egress the way the version manager's
// geo hook would. The properties locked down here:
//   * custody is never lost below the queue bound — a partition parks the
//     drain without burning delivery attempts, and every parked bundle is
//     handed off exactly once after the heal;
//   * re-forwarded bundles (timeout without a known partition) apply
//     exactly once at the receiver — dedup by version id;
//   * `is_coherent()` holds at every post-reconciliation quiescent point,
//     across repeated partition/heal cycles;
//   * custody acked into the journal survives a crash+restart of the
//     egress node, and a wiped remote is rebuilt by reconciliation;
//   * custody beyond the queue bound spills and is still delivered, chunk
//     replicas from a data provider's replicate router included.
#include <gtest/gtest.h>

#include <memory>

#include "blob/data_provider.hpp"
#include "blob/messages.hpp"
#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "repl/plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

constexpr BlobId kBlob{1};
constexpr std::uint64_t kBytes = 32 * units::KB;

struct Rig {
  sim::Simulation sim;
  rpc::Cluster cluster;
  fault::FaultPlane fp;
  std::unique_ptr<repl::ReplicationPlane> plane;

  explicit Rig(repl::ReplOptions ro = {}, bool attach_fault = true)
      : cluster(sim, net::Topology::grid5000(3)), fp(cluster, 0xFA17ull) {
    plane = std::make_unique<repl::ReplicationPlane>(cluster, 0, ro);
    if (attach_fault) plane->attach_fault_plane(fp);
    plane->start();
  }

  /// What the version manager's geo hook does: origin bookkeeping plus a
  /// publish custody bundle towards every remote site.
  void publish(blob::Version v, std::uint64_t bytes = kBytes) {
    repl::SiteEgress& o = plane->egress(0);
    o.note_published(kBlob, v, bytes);
    for (net::SiteId s : plane->remote_sites()) {
      o.enqueue_publish(s, kBlob, v, bytes);
    }
  }

  void settle(SimDuration d) { sim.run_until(sim.now() + d); }
};

TEST(CustodyProperties, HealthyLinksDeliverEverythingExactlyOnce) {
  Rig rig;
  for (blob::Version v = 1; v <= 10; ++v) rig.publish(v);
  rig.settle(simtime::seconds(30));

  EXPECT_TRUE(rig.plane->coherent());
  for (net::SiteId s : {1, 2}) {
    EXPECT_EQ(rig.plane->egress(s).applies(), 10u) << "site " << s;
    EXPECT_EQ(rig.plane->egress(s).duplicates_dropped(), 0u);
  }
  const repl::CustodyQueueStats st = rig.plane->total_custody_stats();
  EXPECT_EQ(st.enqueued, 20u);  // 10 versions x 2 remote sites
  EXPECT_EQ(st.released, 20u);
  EXPECT_EQ(st.reforwards, 0u);
  EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u);
}

TEST(CustodyProperties, PartitionParksCustodyWithoutLossOrAttempts) {
  Rig rig;
  rig.fp.partition(0, 1);
  rig.settle(simtime::seconds(1));
  for (blob::Version v = 1; v <= 20; ++v) rig.publish(v);
  rig.settle(simtime::seconds(30));

  // Custody parked for the cut site, delivered to the healthy one. The
  // drain parked on notification: not a single timeout was burned.
  EXPECT_EQ(rig.plane->egress(0).queue_depth(1), 20u);
  EXPECT_EQ(rig.plane->egress(2).applies(), 20u);
  EXPECT_EQ(rig.plane->total_custody_stats().reforwards, 0u);
  EXPECT_FALSE(rig.plane->site_coherent(1));
  EXPECT_TRUE(rig.plane->site_coherent(2));

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(60));

  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u);
  EXPECT_EQ(rig.plane->egress(1).applies(), 20u);  // exactly once
  EXPECT_EQ(rig.plane->egress(1).duplicates_dropped(), 0u);
  EXPECT_EQ(rig.plane->heals_observed(), 1u);
  // A heal involving the origin arms the reconciliation-lag clock; the
  // catch-up above is that lag.
  EXPECT_GT(rig.plane->last_reconcile_lag(), SimDuration{0});
}

TEST(CustodyProperties, UndeclaredOutageReforwardsAndDedups) {
  // The fault plane drops the messages but is NOT attached to the
  // replication plane: no partition notification ever arrives, so the
  // drain keeps attempting, times out, and re-forwards. The receiver must
  // end up with each version applied exactly once regardless.
  repl::ReplOptions ro;
  ro.egress.custody_timeout = simtime::millis(500);
  ro.egress.retry_backoff = simtime::millis(500);
  Rig rig(ro, /*attach_fault=*/false);

  rig.fp.partition(0, 1);
  for (blob::Version v = 1; v <= 5; ++v) rig.publish(v);
  rig.settle(simtime::seconds(15));

  const repl::CustodyQueueStats mid = rig.plane->total_custody_stats();
  EXPECT_GT(mid.reforwards, 0u);          // attempts burned into the outage
  EXPECT_EQ(rig.plane->egress(1).applies(), 0u);
  EXPECT_EQ(rig.plane->egress(0).queue_depth(1), 5u);  // custody held

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(30));

  EXPECT_EQ(rig.plane->egress(1).applies(), 5u);
  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u);
}

TEST(CustodyProperties, CraftedDuplicateDeliverIsRecognised) {
  Rig rig;
  repl::ReplDeliverReq req;
  req.src_site = 0;
  req.bundle_id = 999;
  req.kind = static_cast<std::uint8_t>(repl::BundleKind::publish);
  req.blob = kBlob;
  req.version = 1;
  req.bytes = kBytes;

  rpc::Node& src = rig.plane->egress(0).node();
  const NodeId dst = rig.plane->egress(1).node().id();
  auto first = test::run_task(
      rig.sim,
      rig.cluster.call<repl::ReplDeliverReq, repl::ReplDeliverResp>(src, dst,
                                                                    req));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().duplicate);
  auto second = test::run_task(
      rig.sim,
      rig.cluster.call<repl::ReplDeliverReq, repl::ReplDeliverResp>(src, dst,
                                                                    req));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().duplicate);
  EXPECT_EQ(rig.plane->egress(1).applies(), 1u);
  EXPECT_EQ(rig.plane->egress(1).duplicates_dropped(), 1u);
}

TEST(CustodyProperties, ChunkDedupIsByReplicaIdentityNotBundleId) {
  // The receiver must dedup chunk bundles by what they carry, not by the
  // sender's bundle id: a sender that crashes and restarts its id sequence
  // may legitimately reuse an id for brand-new data, and a re-forward may
  // arrive under a fresh id after a custody timeout.
  Rig rig;
  int stores = 0;
  rpc::Node& target = rig.plane->egress(2).node();
  target.serve<blob::PutChunkReq, blob::PutChunkResp>(
      [&stores](const blob::PutChunkReq&,
                const rpc::Envelope&) -> sim::Task<Result<blob::PutChunkResp>> {
        ++stores;
        co_return blob::PutChunkResp{};
      });

  auto deliver = [&](std::uint64_t bundle_id, std::uint64_t chunk_index) {
    repl::ReplDeliverReq req;
    req.src_site = 0;
    req.bundle_id = bundle_id;
    req.kind = static_cast<std::uint8_t>(repl::BundleKind::chunk);
    req.blob = kBlob;
    req.version = 1;
    req.chunk = blob::ChunkKey{kBlob, 1, chunk_index};
    req.target = target.id();
    req.payload.size = kBytes;
    req.bytes = kBytes;
    rpc::Node& src = rig.plane->egress(0).node();
    const NodeId dst = rig.plane->egress(1).node().id();
    return test::run_task(
        rig.sim, rig.cluster.call<repl::ReplDeliverReq, repl::ReplDeliverResp>(
                     src, dst, std::move(req)));
  };

  // First delivery stores the replica and takes custody.
  auto first = deliver(/*bundle_id=*/1, /*chunk_index=*/0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().duplicate);
  EXPECT_EQ(stores, 1);

  // Re-forward of the same replica under a fresh id: duplicate, not stored.
  auto retry = deliver(/*bundle_id=*/999, /*chunk_index=*/0);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().duplicate);
  EXPECT_EQ(stores, 1);

  // New data under a reused id: must be stored, never silently absorbed.
  auto fresh = deliver(/*bundle_id=*/1, /*chunk_index=*/1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().duplicate);
  EXPECT_EQ(stores, 2);
}

TEST(CustodyProperties, BundleIdsNeverRegressAcrossCheckpointedRecovery) {
  // Released bundles are compacted out of the checkpoint; the image's
  // id high-water-mark record must keep recovery from re-issuing their
  // ids onto the wire.
  repl::ReplOptions ro;
  ro.egress.journal.enabled = true;
  ro.egress.journal.checkpoint_records = 8;  // force frequent checkpoints
  Rig rig(ro);

  for (blob::Version v = 1; v <= 10; ++v) rig.publish(v);
  rig.settle(simtime::seconds(30));
  ASSERT_TRUE(rig.plane->coherent());
  ASSERT_EQ(rig.plane->egress(0).queue_depth(), 0u);
  const std::uint64_t hwm = rig.plane->egress(0).bundle_id_hwm();
  ASSERT_EQ(hwm, 20u);  // 10 versions x 2 remote sites

  const NodeId origin_node = rig.plane->egress(0).node().id();
  rig.fp.crash(origin_node);
  rig.settle(simtime::seconds(2));
  rig.fp.restart(origin_node);
  rig.settle(simtime::seconds(10));
  EXPECT_EQ(rig.plane->egress(0).recovery_stats().recoveries, 1u);
  EXPECT_GE(rig.plane->egress(0).bundle_id_hwm(), hwm);

  // Post-recovery publishes get fresh ids and still apply exactly once.
  for (blob::Version v = 11; v <= 12; ++v) rig.publish(v);
  rig.settle(simtime::seconds(30));
  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(0).bundle_id_hwm(), hwm + 4);
  EXPECT_EQ(rig.plane->egress(1).applies(), 12u);
  EXPECT_EQ(rig.plane->egress(1).duplicates_dropped(), 0u);
}

TEST(CustodyProperties, AckedCustodySurvivesCrashAndRestart) {
  repl::ReplOptions ro;
  ro.egress.journal.enabled = true;
  Rig rig(ro);

  rig.fp.partition(0, 1);
  rig.settle(simtime::seconds(1));
  for (blob::Version v = 1; v <= 10; ++v) rig.publish(v);
  rig.settle(simtime::seconds(10));
  ASSERT_EQ(rig.plane->egress(0).queue_depth(1), 10u);

  // Fail-stop of the origin egress node: parked custody must come back
  // from the WAL.
  const NodeId origin_node = rig.plane->egress(0).node().id();
  rig.fp.crash(origin_node);
  rig.settle(simtime::seconds(2));
  rig.fp.restart(origin_node);
  rig.settle(simtime::seconds(10));

  EXPECT_EQ(rig.plane->egress(0).recovery_stats().recoveries, 1u);
  EXPECT_EQ(rig.plane->egress(0).queue_depth(1), 10u);
  EXPECT_EQ(rig.plane->egress(1).applies(), 0u);  // still partitioned

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(60));
  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(1).applies(), 10u);  // exactly once, post-replay
  EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u);
}

TEST(CustodyProperties, WipedRemoteIsRebuiltByReconciliation) {
  repl::ReplOptions ro;
  ro.egress.journal.enabled = true;
  ro.reconcile.interval = simtime::seconds(10);
  Rig rig(ro);

  for (blob::Version v = 1; v <= 6; ++v) rig.publish(v);
  rig.settle(simtime::seconds(20));
  ASSERT_TRUE(rig.plane->coherent());
  ASSERT_EQ(rig.plane->egress(1).map().applied_count(), 6u);

  // Storage loss at the remote: its map (and dedup state) are gone. The
  // next anti-entropy round sees the empty map and re-schedules everything.
  const NodeId remote_node = rig.plane->egress(1).node().id();
  rig.fp.crash(remote_node, /*lose_storage=*/true);
  rig.settle(simtime::seconds(2));
  rig.fp.restart(remote_node);
  rig.settle(simtime::seconds(1));
  EXPECT_EQ(rig.plane->egress(1).map().applied_count(), 0u);
  EXPECT_FALSE(rig.plane->site_coherent(1));

  rig.settle(simtime::seconds(40));
  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(1).map().applied_count(), 6u);
  EXPECT_GE(rig.plane->reconciler().catch_up_scheduled(), 6u);
}

TEST(CustodyProperties, SpillPolicyHoldsEverythingAboveTheBound) {
  repl::ReplOptions ro;
  ro.egress.queue_bound = 4;
  Rig rig(ro);

  rig.fp.partition(0, 1);
  rig.settle(simtime::seconds(1));
  for (blob::Version v = 1; v <= 12; ++v) rig.publish(v);
  rig.settle(simtime::seconds(5));

  EXPECT_EQ(rig.plane->egress(0).queue_depth(1), 12u);
  EXPECT_GE(rig.plane->total_custody_stats().spilled, 8u);

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(60));
  EXPECT_TRUE(rig.plane->coherent());
  EXPECT_EQ(rig.plane->egress(1).applies(), 12u);
}

TEST(CustodyProperties, ChunkReplicasBeyondTheBoundSpillAndLand) {
  // A replicate call is acked as soon as the router takes custody, and
  // reconciliation re-creates publish bundles only: a chunk replica past
  // the queue bound must spill and still reach its target provider.
  repl::ReplOptions ro;
  ro.egress.queue_bound = 4;
  Rig rig(ro);
  blob::DataProvider src(*rig.cluster.add_node(0));
  blob::DataProvider dst(*rig.cluster.add_node(1));
  rig.plane->attach_data_provider(src);
  rpc::Node& client = *rig.cluster.add_node(0);

  constexpr std::uint64_t kChunks = 12;
  auto key = [](std::uint64_t i) { return blob::ChunkKey{kBlob, 1, i}; };
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    blob::PutChunkReq put;
    put.key = key(i);
    put.payload = blob::Payload::synthetic(kBytes, i);
    ASSERT_TRUE(test::run_task(rig.sim,
                               rig.cluster.call<blob::PutChunkReq,
                                                blob::PutChunkResp>(
                                   client, src.id(), std::move(put)))
                    .ok());
  }

  rig.fp.partition(0, 1);
  rig.settle(simtime::seconds(1));
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    blob::ReplicateChunkReq rep;
    rep.key = key(i);
    rep.target = dst.id();
    ASSERT_TRUE(test::run_task(rig.sim,
                               rig.cluster.call<blob::ReplicateChunkReq,
                                                blob::ReplicateChunkResp>(
                                   client, src.id(), std::move(rep)))
                    .ok())
        << "chunk " << i;
  }
  rig.settle(simtime::seconds(5));
  EXPECT_EQ(rig.plane->chunks_routed(), kChunks);
  EXPECT_EQ(rig.plane->egress(0).queue_depth(1), kChunks);
  EXPECT_EQ(rig.plane->total_custody_stats().spilled, kChunks - 4);
  EXPECT_EQ(dst.chunk_count(), 0u);

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(60));
  EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u);
  const repl::CustodyQueueStats st = rig.plane->total_custody_stats();
  EXPECT_EQ(st.released, st.enqueued);
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(dst.has_chunk(key(i))) << "chunk " << i;
  }
}

TEST(CustodyProperties, CoherentAtEveryPostHealQuiescentPoint) {
  repl::ReplOptions ro;
  ro.reconcile.interval = simtime::seconds(10);
  Rig rig(ro);
  blob::Version next = 1;

  for (int cycle = 0; cycle < 5; ++cycle) {
    rig.fp.partition(0, 1);
    if (cycle % 2 == 1) rig.fp.partition(0, 2);
    rig.settle(simtime::seconds(1));
    for (int i = 0; i < 4; ++i) rig.publish(next++);
    rig.settle(simtime::seconds(5));
    rig.fp.clear();
    rig.settle(simtime::seconds(40));
    EXPECT_TRUE(rig.plane->coherent()) << "cycle " << cycle;
    EXPECT_EQ(rig.plane->egress(0).queue_depth(), 0u) << "cycle " << cycle;
  }
  EXPECT_EQ(rig.plane->egress(1).applies(), 20u);
  EXPECT_EQ(rig.plane->egress(2).applies(), 20u);
}

TEST(CustodyProperties, TrimDuringPartitionRetiresCleanly) {
  Rig rig;
  for (blob::Version v = 1; v <= 5; ++v) rig.publish(v);
  rig.settle(simtime::seconds(10));
  ASSERT_TRUE(rig.plane->coherent());

  rig.fp.partition(0, 1);
  rig.settle(simtime::seconds(1));
  for (blob::Version v = 6; v <= 8; ++v) rig.publish(v);
  // v6 is trimmed away while its custody bundle is still parked: nobody
  // owes it any more, whether or not the bundle later lands.
  rig.plane->egress(0).retire_version(kBlob, 6);
  rig.settle(simtime::seconds(2));

  rig.fp.heal(0, 1);
  rig.settle(simtime::seconds(60));
  EXPECT_TRUE(rig.plane->coherent());
  const auto& regions = rig.plane->egress(0).map().regions();
  ASSERT_EQ(regions.count(kBlob.value), 1u);
  EXPECT_EQ(regions.at(kBlob.value).retired.count(6), 1u);
}

TEST(CustodyProperties, ReplayIsBitIdentical) {
  auto run = [](bool crash) {
    repl::ReplOptions ro;
    ro.egress.journal.enabled = true;
    ro.reconcile.interval = simtime::seconds(10);
    Rig rig(ro);
    rig.fp.partition(0, 1);
    rig.settle(simtime::seconds(1));
    for (blob::Version v = 1; v <= 10; ++v) rig.publish(v);
    rig.settle(simtime::seconds(5));
    if (crash) {
      const NodeId n = rig.plane->egress(0).node().id();
      rig.fp.crash(n, false, /*torn_tail=*/true);
      rig.settle(simtime::seconds(2));
      rig.fp.restart(n);
    }
    rig.fp.heal(0, 1);
    rig.settle(simtime::seconds(60));
    Digest dg;
    dg.mix(rig.plane->digest());
    dg.mix(rig.plane->total_custody_stats().released);
    dg.mix(static_cast<std::uint64_t>(rig.sim.now()));
    return dg.value();
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(true), run(true));
  EXPECT_NE(run(false), run(true));  // the crash is visible in the digest
}

}  // namespace
}  // namespace bs

// Seeded chaos harness for the geo-replication plane (ctest labels: repl,
// chaos). Each seed derives a random fault schedule that now leans
// on the long-partition knob — a WAN cut held for tens of sim-seconds
// while the append workload keeps publishing — plus egress-node crashes
// (torn tails, at most one store wipe) layered on the usual provider
// hazards. Invariants:
//   * replaying a seed twice is bit-identical, custody and version-map
//     state included;
//   * after the dust settles every remote site's version map is coherent
//     against the origin — whatever custody lost, reconciliation found;
//   * every published version stays fully readable (the partitions never
//     cut a write that was acked);
//   * custody accounting balances: nothing is silently lost.
// The file also carries the 30-sim-minute partition acceptance test: a
// WAN cut between two replica sites held for half an hour must surface
// zero failed replication RPCs to clients, and the system must converge
// back to coherence within a bounded reconciliation window after the heal.
#include <gtest/gtest.h>

#include <vector>

#include "blob/deployment.hpp"
#include "common/rng.hpp"
#include "fault/fault_plane.hpp"
#include "repl/plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

struct ReplChaosOutcome {
  std::uint64_t digest{0};
  std::size_t succeeded{0};
  std::size_t published{0};
  std::size_t unreadable_versions{0};
  bool coherent{false};
  std::uint64_t custody_enqueued{0};
  std::uint64_t custody_released{0};
  std::uint64_t custody_dropped{0};
  std::uint64_t heals{0};
  std::uint64_t egress_recoveries{0};
  std::uint64_t faults_applied{0};
};

ReplChaosOutcome run_repl_chaos(std::uint64_t seed) {
  sim::Simulation sim;

  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 8;
  cfg.metadata_providers = 2;
  cfg.provider_capacity = 4ull * units::GB;
  cfg.fault_seed = seed ^ 0xF00Dull;
  cfg.journal.enabled = true;
  cfg.vm_options.write_lease = simtime::seconds(30);
  cfg.vm_options.sweep_interval = simtime::seconds(5);
  blob::Deployment dep(sim, cfg);

  // The plane goes up right after the deployment (before clients), so its
  // egress node ids are stable for the crash schedule below.
  repl::ReplOptions ro;
  ro.egress.journal = cfg.journal;
  ro.reconcile.interval = simtime::seconds(10);
  repl::ReplicationPlane plane(dep.cluster(),
                               dep.version_manager_node().site(), ro);
  plane.attach(dep);
  plane.start();

  const int n_clients = 4;
  std::vector<blob::BlobClient*> clients;
  for (int i = 0; i < n_clients; ++i) clients.push_back(dep.add_client());

  auto blob = test::run_task(
      sim, clients[0]->create(4 * units::MB, /*replication=*/2));
  EXPECT_TRUE(blob.ok());

  fault::FaultPlane fp(dep.cluster(), seed * 31 + 7);
  plane.attach_fault_plane(fp);
  fault::ScheduleOptions so;
  so.horizon = simtime::minutes(4);
  so.quiesce_fraction = 0.7;
  for (auto& p : dep.providers()) so.crashable.push_back(p->id());
  for (net::SiteId s = 0; s < cfg.sites; ++s) {
    so.crashable.push_back(plane.egress(s).node().id());
  }
  so.crashes = 3;
  so.max_wipe_crashes = 1;
  so.torn_tail_prob = 0.25;
  so.site_count = cfg.sites;
  so.partitions = 1;
  so.long_partitions = 1;
  so.min_long_partition = simtime::seconds(20);
  so.max_long_partition = simtime::seconds(60);
  so.degrades = 1;
  so.disk_slowdowns = 1;
  so.power_losses = 1;
  for (net::SiteId s = 0; s < cfg.sites; ++s) so.power_loss_sites.push_back(s);
  so.worst_case_recovery = simtime::seconds(10);
  fp.schedule_all(fault::random_schedule(seed * 13 + 5, so));

  struct Op {
    SimTime at{0};
    std::uint64_t bytes{0};
    std::uint64_t content{0};
    Result<blob::WriteReceipt> result{Errc::internal};
  };
  Rng wl(seed ^ 0xC0FFEEull);
  std::vector<Op> ops(static_cast<std::size_t>(n_clients) * 4);
  for (auto& op : ops) {
    op.at = simtime::millis(wl.uniform(0, 150000));
    op.bytes = (1 + wl.next_below(3)) * 4 * units::MB;
    op.content = wl.next_u64();
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                 Op& op) -> sim::Task<void> {
      co_await s.delay_until(op.at);
      op.result = co_await cl.append(
          b, blob::Payload::synthetic(op.bytes, op.content));
    }(sim, *clients[i % n_clients], blob.value(), ops[i]));
  }

  // Active window + fault quiescence, then a custody/reconciliation tail:
  // every partition heals by minute 4; two more minutes of anti-entropy
  // rounds drain whatever custody parked or lost.
  sim.run_until(simtime::minutes(6));
  sim.run_until(simtime::minutes(8));

  ReplChaosOutcome out;
  test::Digest dg;
  for (const auto& op : ops) {
    dg.mix(static_cast<std::uint64_t>(op.result.code()));
    if (op.result.ok()) {
      ++out.succeeded;
      dg.mix(op.result.value().version);
      dg.mix(op.result.value().size);
    }
  }

  auto versions = test::run_task(sim, clients[0]->versions(blob.value()));
  EXPECT_TRUE(versions.ok());
  if (versions.ok()) {
    for (const auto& v : versions.value()) {
      if (v.version == 0) continue;
      ++out.published;
      dg.mix(v.version);
      dg.mix(v.size);
      auto read = test::run_task(
          sim, clients[1]->read(blob.value(), 0, v.size, v.version));
      if (!read.ok()) {
        ++out.unreadable_versions;
        continue;
      }
      dg.mix(read.value().bytes);
    }
  }

  // Replication-plane accounting — all of it part of the replay contract.
  out.coherent = plane.coherent();
  const repl::CustodyQueueStats cs = plane.total_custody_stats();
  out.custody_enqueued = cs.enqueued;
  out.custody_released = cs.released;
  out.custody_dropped = cs.dropped;
  out.heals = plane.heals_observed();
  for (net::SiteId s = 0; s < cfg.sites; ++s) {
    out.egress_recoveries += plane.egress(s).recovery_stats().recoveries;
  }
  dg.mix(out.coherent ? 1 : 0);
  dg.mix(plane.digest());
  dg.mix(cs.enqueued);
  dg.mix(cs.released);
  dg.mix(cs.dropped);
  dg.mix(cs.spilled);
  dg.mix(cs.reforwards);
  dg.mix(out.heals);
  dg.mix(out.egress_recoveries);
  dg.mix(plane.reconciler().rounds());
  dg.mix(plane.reconciler().catch_up_scheduled());
  dg.mix(plane.chunks_routed());
  dg.mix(out.faults_applied = fp.faults_applied());
  dg.mix(dep.cluster().calls_retried());
  dg.mix(dep.cluster().messages_dropped());
  dg.mix(dep.cluster().calls_timed_out());
  dg.mix(static_cast<std::uint64_t>(sim.now()));
  out.digest = dg.value();
  return out;
}

class ReplChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplChaosSeeds, ReplayIsBitIdenticalAndReconciliationConverges) {
  const std::uint64_t seed = GetParam();
  const ReplChaosOutcome a = run_repl_chaos(seed);
  const ReplChaosOutcome b = run_repl_chaos(seed);

  // Determinism, custody and version-map state included.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.custody_enqueued, b.custody_enqueued) << "seed " << seed;
  EXPECT_EQ(a.heals, b.heals) << "seed " << seed;

  // Disruption tolerance: the workload makes progress, every published
  // version survives readable, and after the heals + anti-entropy tail
  // every remote map is coherent against the origin.
  EXPECT_GT(a.succeeded, 0u) << "seed " << seed;
  EXPECT_EQ(a.unreadable_versions, 0u) << "seed " << seed;
  EXPECT_TRUE(a.coherent) << "seed " << seed;

  // Custody was actually exercised and nothing leaked: every bundle taken
  // into custody was either handed off durably or declared dropped (and
  // drops were re-scheduled by the reconciler — coherence above proves it).
  EXPECT_GT(a.custody_enqueued, 0u) << "seed " << seed;
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
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 8;
  cfg.metadata_providers = 2;
  cfg.provider_capacity = 4ull * units::GB;
  cfg.journal.enabled = true;
  blob::Deployment dep(sim, cfg);

  repl::ReplOptions ro;
  ro.egress.journal = cfg.journal;
  ro.reconcile.interval = simtime::seconds(10);
  repl::ReplicationPlane plane(dep.cluster(),
                               dep.version_manager_node().site(), ro);
  plane.attach(dep);
  plane.start();

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
  EXPECT_EQ(cs.dropped, 0u);
  EXPECT_EQ(cs.enqueued, cs.released);
}

}  // namespace
}  // namespace bs

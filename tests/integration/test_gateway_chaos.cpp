// Seeded chaos for the S3 gateway (ctest labels: gateway, recovery,
// chaos). Each seed derives a fault schedule that crashes data providers
// and the gateway itself (some crashes with torn journal tails) plus link
// faults, while the trace-replay workload drives mixed tenant traffic —
// puts, multipart uploads, delta syncs, range gets, pagination, deletes —
// against the journal-backed dedup front. Invariants:
//   * the same seed replays bit-identically, including the trace digest,
//     the gateway's state digest, dedup/reclaim counters and recovery
//     accounting;
//   * once the dust settles every object the gateway lists is fully
//     readable with its recorded etag — refcounted dedup plus crash
//     recovery never reclaims or loses a chunk a live manifest needs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "fault/fault_plane.hpp"
#include "test_util.hpp"
#include "workload/gateway_trace.hpp"

namespace bs {
namespace {

constexpr std::uint64_t kChunk = 1 * units::MB;

struct GatewayChaosOutcome {
  std::uint64_t digest{0};
  std::uint64_t trace_digest{0};
  std::uint64_t puts{0};
  std::uint64_t failures{0};
  std::uint64_t objects_listed{0};
  std::uint64_t unreadable_objects{0};
  std::uint64_t dedup_hits{0};
  std::uint64_t chunks_reclaimed{0};
  std::uint64_t recoveries{0};
  std::uint64_t faults_applied{0};
  bool trace_done{false};
};

GatewayChaosOutcome run_gateway_chaos(std::uint64_t seed) {
  sim::Simulation sim;

  blob::DeploymentConfig cfg;
  cfg.sites = 2;
  cfg.data_providers = 6;
  cfg.metadata_providers = 2;
  cfg.provider_capacity = 4ull * units::GB;
  cfg.fault_seed = seed ^ 0x6A7Eull;
  cfg.journal.enabled = true;
  blob::Deployment dep(sim, cfg);

  rpc::Node* gw_node = dep.cluster().add_node(0);
  cloud::GatewayOptions gopts;
  gopts.object_chunk_size = kChunk;
  gopts.replication = 2;  // a crashed (never wiped) provider loses nothing
  gopts.journal.enabled = true;
  cloud::S3Gateway gateway(*gw_node, dep.endpoints(), gopts);
  rpc::Node* user_node = dep.cluster().add_node(1);

  // Fault schedule: provider + gateway crashes (torn tails, no wipes — the
  // readability invariant below is absolute), link faults and a disk
  // slowdown, all quiesced before the sweep.
  fault::FaultPlane plane(dep.cluster(), seed * 31 + 7);
  fault::ScheduleOptions so;
  so.horizon = simtime::minutes(4);
  so.quiesce_fraction = 0.7;
  for (auto& p : dep.providers()) so.crashable.push_back(p->id());
  so.crashable.push_back(gw_node->id());
  so.crashes = 4;
  so.max_wipe_crashes = 0;
  so.torn_tail_prob = 0.3;
  so.site_count = cfg.sites;
  so.partitions = 1;
  so.degrades = 1;
  so.disk_slowdowns = 1;
  so.worst_case_recovery = simtime::seconds(10);
  plane.schedule_all(fault::random_schedule(seed * 13 + 5, so));

  workload::GatewayTraceConfig tcfg;
  tcfg.tenants = 3;
  tcfg.keys_per_tenant = 8;
  tcfg.ops_per_tenant = 15;
  tcfg.chunk_size = kChunk;
  tcfg.max_object_chunks = 4;
  tcfg.multipart_parts = 3;
  tcfg.think_time = simtime::seconds(3);
  tcfg.rng_seed = seed ^ 0x7ACEull;
  workload::GatewayTraceStats tstats;
  GatewayChaosOutcome out;
  sim.spawn([](rpc::Node& n, NodeId gw, workload::GatewayTraceConfig c,
               workload::GatewayTraceStats* st,
               bool& done) -> sim::Task<void> {
    co_await workload::GatewayTrace::run(n, gw, c, st);
    done = true;
  }(*user_node, gw_node->id(), tcfg, &tstats, out.trace_done));

  // Generous tail: crash-window ops ride out their RPC timeouts and the
  // last recovery replays before the sweep.
  sim.run_until(simtime::minutes(10));
  EXPECT_TRUE(out.trace_done) << "seed " << seed;
  EXPECT_FALSE(gateway.recovering()) << "seed " << seed;

  test::Digest dg;
  out.trace_digest = tstats.digest;
  out.puts = tstats.puts + tstats.multipart_puts + tstats.delta_puts;
  out.failures = tstats.failures;
  dg.mix(tstats.digest);
  dg.mix(tstats.puts);
  dg.mix(tstats.multipart_puts);
  dg.mix(tstats.delta_puts);
  dg.mix(tstats.gets);
  dg.mix(tstats.lists);
  dg.mix(tstats.deletes);
  dg.mix(tstats.failures);
  dg.mix(tstats.logical_bytes);
  dg.mix(tstats.wire_bytes);

  // Post-dust readability sweep: everything the gateway still lists must
  // come back whole, under the owning tenant's identity.
  for (std::uint32_t t = 0; t < tcfg.tenants; ++t) {
    rpc::CallOptions copts;
    copts.client = ClientId{tcfg.first_tenant_id + t};
    cloud::S3ListObjectsReq ls;
    ls.bucket = "t" + std::to_string(t);
    auto listed = test::run_task(
        sim, dep.cluster()
                 .call<cloud::S3ListObjectsReq, cloud::S3ListObjectsResp>(
                     *user_node, gw_node->id(), ls, copts));
    dg.mix(static_cast<std::uint64_t>(listed.code()));
    if (!listed.ok()) continue;
    for (const auto& obj : listed.value().objects) {
      ++out.objects_listed;
      dg.mix(fnv1a(obj.key));
      dg.mix(obj.size);
      dg.mix(obj.etag);
      cloud::S3GetObjectReq get;
      get.bucket = ls.bucket;
      get.key = obj.key;
      auto read = test::run_task(
          sim, dep.cluster()
                   .call<cloud::S3GetObjectReq, cloud::S3GetObjectResp>(
                       *user_node, gw_node->id(), get, copts));
      if (!read.ok() || read.value().payload.size != obj.size ||
          read.value().etag != obj.etag) {
        ++out.unreadable_objects;
        continue;
      }
      dg.mix(read.value().payload.checksum);
    }
  }

  // Gateway + dedup accounting, itself part of the determinism contract.
  const cloud::GatewayStats& gs = gateway.stats();
  out.dedup_hits = gs.dedup_hits;
  out.chunks_reclaimed = gs.chunks_reclaimed;
  dg.mix(gateway.state_digest());
  dg.mix(gs.chunks_ingested);
  dg.mix(gs.dedup_hits);
  dg.mix(gs.dedup_misses);
  dg.mix(gs.bytes_to_providers);
  dg.mix(gs.bytes_saved);
  dg.mix(gs.chunks_reclaimed);
  dg.mix(gs.parts_resumed);
  dg.mix(gs.delta_bytes_shipped);
  dg.mix(gs.delta_bytes_shared);

  auto absorb = [&](const blob::RecoveryStats& rs) {
    out.recoveries += rs.recoveries;
    dg.mix(rs.recoveries);
    dg.mix(rs.replay_bytes);
    dg.mix(rs.torn_tails_truncated);
  };
  absorb(gateway.recovery_stats());
  absorb(dep.version_manager().recovery_stats());
  for (const auto& mp : dep.metadata_providers()) absorb(mp->recovery_stats());
  for (const auto& p : dep.providers()) absorb(p->recovery_stats());

  dg.mix(out.faults_applied = plane.faults_applied());
  dg.mix(dep.cluster().calls_retried());
  dg.mix(dep.cluster().messages_dropped());
  dg.mix(dep.cluster().calls_timed_out());
  dg.mix(static_cast<std::uint64_t>(sim.now()));
  out.digest = dg.value();
  return out;
}

class GatewayChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatewayChaosSeeds, ReplayIsBitIdenticalAndNoListedObjectIsLost) {
  const std::uint64_t seed = GetParam();
  const GatewayChaosOutcome a = run_gateway_chaos(seed);
  const GatewayChaosOutcome b = run_gateway_chaos(seed);

  // Determinism, including dedup/reclaim and recovery accounting.
  EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  EXPECT_EQ(a.trace_digest, b.trace_digest) << "seed " << seed;
  EXPECT_EQ(a.recoveries, b.recoveries) << "seed " << seed;
  EXPECT_EQ(a.chunks_reclaimed, b.chunks_reclaimed) << "seed " << seed;

  // The schedule fired and the services replayed their journals.
  EXPECT_GT(a.faults_applied, 0u) << "seed " << seed;
  EXPECT_GT(a.recoveries, 0u) << "seed " << seed;

  // Progress under faults, and the safety invariant: every object the
  // recovered gateway lists is fully readable with its recorded etag.
  EXPECT_GT(a.puts, 0u) << "seed " << seed;
  EXPECT_EQ(a.unreadable_objects, 0u) << "seed " << seed;
  EXPECT_EQ(b.unreadable_objects, 0u) << "seed " << seed;
}

// 50 seeded schedules in the gateway chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, GatewayChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace bs

// Recovery property suite for the journaled persistent-store model (ctest
// label: recovery). Core invariants, each checked against crashes injected
// at many different event boundaries:
//   * every write acked to a client stays readable after crash + replay;
//   * un-acked (uncommitted) writes never resurrect as published versions;
//   * checkpoint + journal-tail replay rebuilds state bit-identical to a
//     deployment that never crashed;
//   * torn journal tails (power loss mid-write) are truncated cleanly;
//   * time-to-readable scales with what recovery must read: wiped < warm
//     (checkpoint) < cold (full WAL) < cold on a slowed disk.
#include <gtest/gtest.h>

#include <vector>

#include "blob/deployment.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fault/fault_plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

blob::DeploymentConfig journaled_cfg() {
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 6;
  cfg.metadata_providers = 2;
  cfg.provider_capacity = 4ull * units::GB;
  cfg.journal.enabled = true;
  // Short leases: a crash-orphaned write must be swept promptly.
  cfg.vm_options.write_lease = simtime::seconds(20);
  cfg.vm_options.sweep_interval = simtime::seconds(5);
  return cfg;
}

struct Op {
  SimTime at{0};
  std::uint64_t bytes{0};
  std::uint64_t content{0};
  Result<blob::WriteReceipt> result{Errc::internal};
};

TEST(Recovery, AckedWritesReadableAfterCrashAtAnyEventBoundary) {
  // Sweep the crash instant across the whole write window: whatever event
  // boundary the version manager (and one provider) die on — mid-put,
  // mid-fsync, mid-publish — every append that reported success must be
  // readable after replay, and no version may stay stuck pending.
  std::uint64_t torn_total = 0;
  std::uint64_t replays_total = 0;
  for (int tick = 0; tick < 12; ++tick) {
    sim::Simulation sim;
    blob::Deployment dep(sim, journaled_cfg());
    fault::FaultPlane plane(dep.cluster(), 0xFA17ull);

    blob::BlobClient* writer = dep.add_client();
    blob::BlobClient* reader = dep.add_client();
    auto blob_id = test::run_task(
        sim, writer->create(4 * units::MB, /*replication=*/2));
    ASSERT_TRUE(blob_id.ok());

    std::vector<Op> ops(4);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i].at = simtime::millis(200 + 1200 * i);
      ops[i].bytes = 8 * units::MB;
      ops[i].content = 0xBEEF + i;
    }
    for (auto& op : ops) {
      sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                   Op& o) -> sim::Task<void> {
        co_await s.delay_until(o.at);
        o.result = co_await cl.append(
            b, blob::Payload::synthetic(o.bytes, o.content));
      }(sim, *writer, blob_id.value(), op));
    }

    // Power-loss flavoured crash (torn journal tails) of the version
    // manager and every data provider, at three boundaries per op: right
    // after the StartWrite reservation lands (+10 ms), and inside each of
    // the two chunk-put fsync flights (+90 ms / +170 ms, when a ~4 MB
    // journal record is volatile on some provider), so several crashes in
    // the sweep leave torn tails.
    static constexpr int kOffsetsMs[] = {10, 90, 170};
    const SimTime crash_at =
        ops[tick % ops.size()].at + simtime::millis(kOffsetsMs[tick / 4]);
    const NodeId vm_node = dep.version_manager_node().id();
    std::vector<NodeId> crashed{vm_node};
    for (const auto& p : dep.providers()) crashed.push_back(p->id());
    sim.schedule_at(crash_at, [&plane, &crashed] {
      for (const NodeId n : crashed) {
        plane.crash(n, /*lose_storage=*/false, /*torn_tail=*/true);
      }
    });
    sim.schedule_at(crash_at + simtime::seconds(3), [&plane, &crashed] {
      for (const NodeId n : crashed) plane.restart(n);
    });

    sim.run_until(simtime::minutes(3));

    for (const auto& op : ops) {
      if (!op.result.ok()) continue;
      const auto& r = op.result.value();
      auto read = test::run_task(
          sim, reader->read(blob_id.value(), r.offset, r.size, r.version));
      ASSERT_TRUE(read.ok())
          << "crash at " << crash_at << ": acked v" << r.version
          << " unreadable: " << read.error().to_string();
      EXPECT_EQ(read.value().bytes, r.size);
    }
    // Published inventory itself is readable (no resurrected torn state).
    auto versions = test::run_task(sim, reader->versions(blob_id.value()));
    ASSERT_TRUE(versions.ok());
    for (const auto& v : versions.value()) {
      if (v.version == 0) continue;
      auto read = test::run_task(
          sim, reader->read(blob_id.value(), 0, v.size, v.version));
      EXPECT_TRUE(read.ok()) << "crash at " << crash_at << ": published v"
                             << v.version << " unreadable";
    }
    EXPECT_EQ(dep.version_manager().pending_writes(), 0u)
        << "crash at " << crash_at;
    torn_total += dep.version_manager().recovery_stats().torn_tails_truncated;
    replays_total += dep.version_manager().recovery_stats().recoveries;
    for (const auto& p : dep.providers()) {
      torn_total += p->recovery_stats().torn_tails_truncated;
      replays_total += p->recovery_stats().recoveries;
    }
  }
  // The sweep crossed fsync windows: at least one torn tail was truncated
  // somewhere (deterministic — the sim replays bit-identically).
  EXPECT_GT(replays_total, 0u);
  EXPECT_GT(torn_total, 0u);
}

TEST(Recovery, UnackedWriteNeverResurrectsAfterReplay) {
  // A writer dies right after its StartWrite lands (version reserved and
  // durable) and the version manager crashes too. After both replay, the
  // reservation comes back as an *uncommitted* pending write, the lease
  // sweeper aborts it, and it must never appear as a published version.
  sim::Simulation sim;
  blob::Deployment dep(sim, journaled_cfg());
  fault::FaultPlane plane(dep.cluster(), 0xFA17ull);

  blob::BlobClient* doomed = dep.add_client();
  blob::BlobClient* survivor = dep.add_client();
  auto blob_id = test::run_task(sim, survivor->create(4 * units::MB, 2));
  ASSERT_TRUE(blob_id.ok());

  Result<blob::WriteReceipt> doomed_result{Errc::internal};
  sim.spawn([](blob::BlobClient& cl, BlobId b,
               Result<blob::WriteReceipt>& out) -> sim::Task<void> {
    out = co_await cl.append(b, blob::Payload::synthetic(64 * units::MB, 1));
  }(*doomed, blob_id.value(), doomed_result));
  // At 100 ms the StartWrite has been journaled but the chunk puts are
  // still in flight; kill writer and version manager together.
  sim.schedule_at(simtime::millis(100), [&] {
    plane.crash(doomed->node().id());
    plane.crash(dep.version_manager_node().id(), false, /*torn_tail=*/true);
  });
  sim.schedule_at(simtime::seconds(8),
                  [&] { plane.restart(dep.version_manager_node().id()); });

  Result<blob::WriteReceipt> later_result{Errc::internal};
  sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
               Result<blob::WriteReceipt>& out) -> sim::Task<void> {
    co_await s.delay_until(simtime::seconds(30));
    out = co_await cl.append(b, blob::Payload::synthetic(8 * units::MB, 2));
  }(sim, *survivor, blob_id.value(), later_result));

  sim.run_until(simtime::minutes(3));

  EXPECT_FALSE(doomed_result.ok());
  ASSERT_TRUE(later_result.ok()) << later_result.error().to_string();
  EXPECT_EQ(dep.version_manager().pending_writes(), 0u);
  EXPECT_GE(dep.version_manager().recovery_stats().recoveries, 1u);
  // The orphaned reservation replayed, was swept, and never published.
  auto versions = test::run_task(sim, survivor->versions(blob_id.value()));
  ASSERT_TRUE(versions.ok());
  for (const auto& v : versions.value()) {
    if (v.version == 0) continue;
    EXPECT_EQ(v.version, later_result.value().version)
        << "unexpected published version " << v.version;
    auto read = test::run_task(
        sim, survivor->read(blob_id.value(), 0, v.size, v.version));
    EXPECT_TRUE(read.ok());
  }
}

std::uint64_t settled_state_digest(sim::Simulation& sim,
                                   blob::Deployment& dep,
                                   blob::BlobClient* reader, BlobId blob_id) {
  Digest dg;
  auto versions = test::run_task(sim, reader->versions(blob_id));
  EXPECT_TRUE(versions.ok());
  if (versions.ok()) {
    for (const auto& v : versions.value()) {
      dg.mix(v.version);
      dg.mix(v.size);
      dg.mix(v.root_chunks);
      if (v.version == 0 || v.size == 0) continue;
      auto read = test::run_task(sim, reader->read(blob_id, 0, v.size,
                                                   v.version));
      EXPECT_TRUE(read.ok());
      if (!read.ok()) continue;
      dg.mix(read.value().bytes);
      for (const auto& ch : read.value().chunks) {
        dg.mix(ch.offset);
        dg.mix(static_cast<std::uint64_t>(ch.hole));
        dg.mix(ch.hole ? 0 : ch.checksum);
      }
    }
  }
  // Chunk stores: sorted key inventory + payload sizes per provider.
  for (const auto& p : dep.providers()) {
    dg.mix(p->used());
    for (const auto& key : p->chunk_keys()) {
      dg.mix(key.blob.value);
      dg.mix(key.version);
      dg.mix(key.index);
    }
  }
  return dg.value();
}

TEST(Recovery, CheckpointPlusReplayMatchesNeverCrashedStore) {
  // Twin deployments run the same deterministic workload (with checkpoint
  // thresholds low enough that checkpoints actually happen). One then
  // crash-restarts every journaled service at quiescence. After replay its
  // externally visible state must be identical to the twin that never
  // crashed.
  auto run = [](bool crash_everything) {
    sim::Simulation sim;
    auto cfg = journaled_cfg();
    cfg.journal.checkpoint_records = 24;  // force mid-workload checkpoints
    blob::Deployment dep(sim, cfg);
    fault::FaultPlane plane(dep.cluster(), 0xFA17ull);

    blob::BlobClient* writer = dep.add_client();
    blob::BlobClient* reader = dep.add_client();
    auto blob_id = test::run_task(
        sim, writer->create(4 * units::MB, /*replication=*/2));
    EXPECT_TRUE(blob_id.ok());

    std::vector<Op> ops(8);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i].at = simtime::millis(500 + 900 * i);
      ops[i].bytes = (1 + (i % 3)) * 4 * units::MB;
      ops[i].content = 0xABBA + i;
    }
    for (auto& op : ops) {
      sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                   Op& o) -> sim::Task<void> {
        co_await s.delay_until(o.at);
        o.result = co_await cl.append(
            b, blob::Payload::synthetic(o.bytes, o.content));
      }(sim, *writer, blob_id.value(), op));
    }

    if (crash_everything) {
      sim.schedule_at(simtime::seconds(60), [&] {
        plane.crash(dep.version_manager_node().id());
        for (const auto& mp : dep.metadata_providers()) {
          plane.crash(mp->id());
        }
        for (const auto& p : dep.providers()) plane.crash(p->id());
      });
      sim.schedule_at(simtime::seconds(62), [&] {
        plane.restart(dep.version_manager_node().id());
        for (const auto& mp : dep.metadata_providers()) {
          plane.restart(mp->id());
        }
        for (const auto& p : dep.providers()) plane.restart(p->id());
      });
    }
    sim.run_until(simtime::minutes(4));

    for (const auto& op : ops) {
      EXPECT_TRUE(op.result.ok())
          << "quiesced workload write failed: "
          << op.result.error().to_string();
    }
    if (crash_everything) {
      EXPECT_GE(dep.version_manager().recovery_stats().recoveries, 1u);
      // The checkpoint shortened the version manager's replay below the
      // full operation log.
      EXPECT_GT(dep.version_manager().recovery_stats().replay_records, 0u);
    }
    return settled_state_digest(sim, dep, reader, blob_id.value());
  };

  const std::uint64_t crashed = run(/*crash_everything=*/true);
  const std::uint64_t pristine = run(/*crash_everything=*/false);
  EXPECT_EQ(crashed, pristine)
      << "checkpoint+replay diverged from the never-crashed store";
}

TEST(Recovery, SiteWidePowerLossRecoversEveryNode) {
  // Correlated failure: every node at one site loses power mid-workload
  // (torn journal tails), then power returns. All acked writes must remain
  // readable and every node at the site must come back up.
  sim::Simulation sim;
  auto cfg = journaled_cfg();
  blob::Deployment dep(sim, cfg);
  fault::FaultPlane plane(dep.cluster(), 0xFA17ull);

  blob::BlobClient* writer = dep.add_client();
  auto blob_id = test::run_task(sim, writer->create(4 * units::MB, 2));
  ASSERT_TRUE(blob_id.ok());

  std::vector<Op> ops(6);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].at = simtime::millis(300 + 700 * i);
    ops[i].bytes = 8 * units::MB;
    ops[i].content = 0xD00D + i;
  }
  for (auto& op : ops) {
    sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                 Op& o) -> sim::Task<void> {
      co_await s.delay_until(o.at);
      o.result = co_await cl.append(
          b, blob::Payload::synthetic(o.bytes, o.content));
    }(sim, *writer, blob_id.value(), op));
  }

  // Site 2 holds a metadata provider and two data providers — but not the
  // version manager (site 0), the provider manager or the writer (site 1).
  plane.schedule(fault::FaultEvent{.at = simtime::seconds(2),
                                   .kind = fault::FaultEvent::Kind::power_loss,
                                   .a = 2});
  plane.schedule(
      fault::FaultEvent{.at = simtime::seconds(12),
                        .kind = fault::FaultEvent::Kind::power_restore,
                        .a = 2});

  sim.run_until(simtime::minutes(3));

  for (std::uint64_t i = 0; i < dep.cluster().node_count(); ++i) {
    rpc::Node* n = dep.cluster().node(NodeId{i});
    if (n != nullptr) {
      EXPECT_TRUE(n->up()) << "node " << i << " still down";
    }
  }
  for (const auto& op : ops) {
    if (!op.result.ok()) continue;
    const auto& r = op.result.value();
    auto read = test::run_task(
        sim, writer->read(blob_id.value(), r.offset, r.size, r.version));
    ASSERT_TRUE(read.ok()) << read.error().to_string();
  }
  EXPECT_EQ(dep.version_manager().pending_writes(), 0u);
}

TEST(Recovery, TimeToReadableScalesWithReplayWork) {
  // One provider, driven directly over RPC: measure time-to-readable for
  // (a) warm restart (checkpointed index + short tail), (b) cold restart
  // (full WAL including data pages), (c) wiped store (nothing to replay),
  // (d) cold restart on a 4x slowed disk. Expect wiped < warm < cold <
  // cold-on-slow-disk, and byte accounting to match.
  struct Scenario {
    std::uint64_t checkpoint_records{1ull << 40};
    bool wipe{false};
    double disk_factor{1.0};
    SimDuration ttr{0};
    std::uint64_t replay_bytes{0};
    std::uint64_t cold_starts{0};
    std::uint64_t chunks_after{0};
  };
  auto run = [](Scenario& sc) {
    sim::Simulation sim;
    rpc::Cluster cluster(sim, net::Topology::single_site());
    rpc::Node* dp_node = cluster.add_node(0);
    rpc::Node* client = cluster.add_node(0);
    blob::DataProvider::Options opts;
    opts.journal.enabled = true;
    opts.journal.checkpoint_records = sc.checkpoint_records;
    blob::DataProvider provider(*dp_node, opts);
    fault::FaultPlane plane(cluster, 0xFA17ull);

    constexpr int kPuts = 64;
    sim.spawn([](rpc::Cluster& cl, rpc::Node& src, NodeId dst)
                  -> sim::Task<void> {
      for (int i = 0; i < kPuts; ++i) {
        blob::PutChunkReq req;
        req.key = blob::ChunkKey{BlobId{1}, 1, static_cast<std::uint64_t>(i)};
        req.payload = blob::Payload::synthetic(256 * units::KB, i);
        auto r = co_await cl.call<blob::PutChunkReq, blob::PutChunkResp>(
            src, dst, std::move(req));
        EXPECT_TRUE(r.ok());
      }
    }(cluster, *client, dp_node->id()));
    sim.run_until(simtime::seconds(30));
    EXPECT_EQ(provider.chunk_count(), static_cast<std::size_t>(kPuts));

    sim.schedule_at(simtime::seconds(40), [&] {
      plane.crash(dp_node->id(), sc.wipe);
      if (sc.disk_factor < 1.0) {
        plane.slow_disk(dp_node->id(), sc.disk_factor);
      }
    });
    sim.schedule_at(simtime::seconds(41),
                    [&] { plane.restart(dp_node->id()); });
    sim.run_until(simtime::minutes(2));

    EXPECT_FALSE(provider.recovering());
    EXPECT_EQ(provider.recovery_stats().recoveries, 1u);
    sc.ttr = provider.recovery_stats().last_time_to_readable;
    sc.replay_bytes = provider.recovery_stats().replay_bytes;
    sc.cold_starts = provider.recovery_stats().cold_starts;
    sc.chunks_after = provider.chunk_count();
  };

  Scenario warm;
  warm.checkpoint_records = 16;
  Scenario cold;
  Scenario wiped;
  wiped.wipe = true;
  Scenario slow;
  slow.disk_factor = 0.25;
  run(warm);
  run(cold);
  run(wiped);
  run(slow);

  // Survivors keep their chunks; the wiped store restarts empty.
  EXPECT_EQ(warm.chunks_after, 64u);
  EXPECT_EQ(cold.chunks_after, 64u);
  EXPECT_EQ(slow.chunks_after, 64u);
  EXPECT_EQ(wiped.chunks_after, 0u);
  EXPECT_EQ(wiped.cold_starts, 1u);
  EXPECT_EQ(wiped.replay_bytes, 0u);

  // Cold replay reads the data pages; warm only the checkpointed index.
  EXPECT_GT(cold.replay_bytes, warm.replay_bytes);
  EXPECT_GT(warm.replay_bytes, 0u);

  // Time-to-readable ordering.
  EXPECT_LT(wiped.ttr, warm.ttr);
  EXPECT_LT(warm.ttr, cold.ttr);
  EXPECT_LT(cold.ttr, slow.ttr);
}

}  // namespace
}  // namespace bs

// Seeded chaos harness with the persistent-store model enabled (ctest
// labels: recovery, chaos). Each seed derives a random fault schedule that
// now includes journal-specific hazards — torn-tail crashes (power loss
// mid-fsync), one store-losing wipe, and a correlated site-wide power loss
// — and replays a concurrent append workload under it while every stateful
// service journals and replays on restart. Invariants:
//   * replaying the same seed twice is bit-identical, including the
//     recovery counters (replay bytes, torn tails truncated);
//   * every published version is fully readable after the dust settles —
//     crash-recovery never loses an acked write or resurrects a torn one.
#include <gtest/gtest.h>

#include <vector>

#include "blob/deployment.hpp"
#include "common/rng.hpp"
#include "fault/fault_plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

struct RecoveryChaosOutcome {
  std::uint64_t digest{0};
  std::size_t attempted{0};
  std::size_t succeeded{0};
  std::size_t published{0};
  std::size_t unreadable_versions{0};
  std::uint64_t recoveries{0};
  std::uint64_t replay_bytes{0};
  std::uint64_t torn_tails{0};
  std::uint64_t faults_applied{0};
};

RecoveryChaosOutcome run_recovery_chaos(std::uint64_t seed) {
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

  const int n_clients = 4;
  std::vector<blob::BlobClient*> clients;
  for (int i = 0; i < n_clients; ++i) clients.push_back(dep.add_client());

  auto blob = test::run_task(
      sim, clients[0]->create(4 * units::MB, /*replication=*/2));
  EXPECT_TRUE(blob.ok());

  // Fault schedule: provider crashes (some torn, at most one wiped — below
  // the replication factor), link faults, a disk slowdown, and one
  // site-wide power loss. worst_case_recovery pads the quiescent tail so
  // the last replay finishes before the readability sweep.
  fault::FaultPlane plane(dep.cluster(), seed * 31 + 7);
  fault::ScheduleOptions so;
  so.horizon = simtime::minutes(4);
  so.quiesce_fraction = 0.7;
  for (auto& p : dep.providers()) so.crashable.push_back(p->id());
  so.crashes = 3;
  so.max_wipe_crashes = 1;
  so.torn_tail_prob = 0.25;
  so.site_count = cfg.sites;
  so.partitions = 1;
  so.degrades = 2;
  so.disk_slowdowns = 1;
  so.power_losses = 1;
  for (net::SiteId s = 0; s < cfg.sites; ++s) so.power_loss_sites.push_back(s);
  so.worst_case_recovery = simtime::seconds(10);
  plane.schedule_all(fault::random_schedule(seed * 13 + 5, so));

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

  sim.run_until(simtime::minutes(6));

  RecoveryChaosOutcome out;
  out.attempted = ops.size();
  test::Digest dg;
  for (const auto& op : ops) {
    dg.mix(static_cast<std::uint64_t>(op.result.code()));
    if (op.result.ok()) {
      ++out.succeeded;
      dg.mix(op.result.value().version);
      dg.mix(op.result.value().offset);
      dg.mix(op.result.value().size);
      dg.mix_signed(op.result.value().duration);
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

  // Recovery accounting — itself part of the determinism contract.
  auto absorb = [&](const blob::RecoveryStats& rs) {
    out.recoveries += rs.recoveries;
    out.replay_bytes += rs.replay_bytes;
    out.torn_tails += rs.torn_tails_truncated;
  };
  absorb(dep.version_manager().recovery_stats());
  for (const auto& mp : dep.metadata_providers()) absorb(mp->recovery_stats());
  for (const auto& p : dep.providers()) absorb(p->recovery_stats());
  dg.mix(out.recoveries);
  dg.mix(out.replay_bytes);
  dg.mix(out.torn_tails);

  dg.mix(out.faults_applied = plane.faults_applied());
  dg.mix(dep.cluster().calls_retried());
  dg.mix(dep.cluster().messages_dropped());
  dg.mix(dep.cluster().calls_timed_out());
  dg.mix(dep.version_manager().leases_expired());
  dg.mix(static_cast<std::uint64_t>(sim.now()));
  out.digest = dg.value();
  return out;
}

class RecoveryChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryChaosSeeds, ReplayIsBitIdenticalAndRecoveryLosesNothing) {
  const std::uint64_t seed = GetParam();
  const RecoveryChaosOutcome a = run_recovery_chaos(seed);
  const RecoveryChaosOutcome b = run_recovery_chaos(seed);

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
  EXPECT_EQ(a.unreadable_versions, 0u) << "seed " << seed;
  EXPECT_EQ(b.unreadable_versions, 0u) << "seed " << seed;
}

// 50 seeded schedules in the recovery/chaos gate.
INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace bs

// Determinism: the whole point of replacing Grid'5000 with a DES is
// bit-identical replay. Run the same seeded full-stack scenario twice and
// require identical event counts, throughput series, and security actions.
// The monitored DoS stack (E-C1 in miniature) is also a whole-stack oracle
// (ctest labels: chaos, kernel): frame pooling off and the reference flow
// scheduler give the same outcome.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "integration/chaos_runner.hpp"
#include "mon/layer.hpp"
#include "sec/framework.hpp"
#include "test_util.hpp"
#include "workload/clients.hpp"

namespace bs {
namespace {

struct RunDigest {
  std::uint64_t events{0};
  std::vector<double> throughput;
  std::uint64_t attacker_rejected{0};
  SimTime first_block{0};
  std::uint64_t monitoring_records{0};
  double trust_of_attacker{0};
};

/// `b` has exactly `a`'s outcome; its event count too when `with_events`.
void expect_same(const RunDigest& a, const RunDigest& b, bool with_events) {
  if (with_events) {
    EXPECT_EQ(a.events, b.events);
  }
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.attacker_rejected, b.attacker_rejected);
  EXPECT_EQ(a.first_block, b.first_block);
  EXPECT_EQ(a.monitoring_records, b.monitoring_records);
  EXPECT_EQ(a.trust_of_attacker, b.trust_of_attacker);
}

RunDigest run_scenario(test::StackMode mode = test::StackMode::standard) {
  const test::ModeScope modes(mode);
  sim::Simulation sim;
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 8;
  cfg.metadata_providers = 2;
  cfg.node_spec.service_concurrency = 1;
  cfg.node_spec.service_overhead = simtime::millis(5);
  cfg.node_spec.service_queue_limit = 64;
  blob::Deployment dep(sim, cfg);
  modes.use_flow_path(dep.cluster());

  rpc::Node* intro_node = dep.cluster().add_node(0);
  intro::IntrospectionService intro(*intro_node);
  intro.start();
  mon::MonitoringConfig mcfg;
  mcfg.sinks = {intro_node->id()};
  mon::MonitoringLayer monitoring(dep, mcfg);
  monitoring.start();
  sec::SecurityFramework security(sim, intro.activity());
  security.attach_deployment(dep);
  security.start();

  blob::BlobClient* honest = dep.add_client();
  monitoring.attach_client(*honest);
  auto blob = test::run_task(sim, honest->create(8 * units::MB));
  workload::ClientRunStats stats;
  workload::ThroughputTracker tracker;
  workload::WriterOptions w;
  w.loop_forever = true;
  w.op_bytes = 16 * units::MB;
  w.deadline = simtime::seconds(90);
  sim.spawn(workload::Writer::run(*honest, *blob, w, &stats, &tracker));

  rpc::Node* attacker_node = dep.cluster().add_node(1);
  std::vector<NodeId> targets;
  for (auto& p : dep.providers()) targets.push_back(p->id());
  workload::AttackerOptions a;
  a.request_rate = 900;
  a.start = simtime::seconds(20);
  a.deadline = simtime::seconds(90);
  workload::AttackerStats astats;
  sim.spawn(workload::DosAttacker::run(*attacker_node, ClientId{666},
                                       targets, a, &astats));

  sim.run_until(simtime::seconds(90));

  RunDigest d;
  d.events = sim.events_processed();
  d.throughput = tracker.mbps_series(0, simtime::seconds(90));
  d.attacker_rejected = astats.rejected;
  d.first_block = astats.first_rejected;
  d.monitoring_records = monitoring.total_records();
  d.trust_of_attacker = security.trust().trust(ClientId{666});
  return d;
}

TEST(Determinism, IdenticalRunsProduceIdenticalDigests) {
  const RunDigest a = run_scenario();
  expect_same(a, run_scenario(), /*with_events=*/true);
  // And the scenario did something nontrivial.
  EXPECT_GT(a.events, 100000u);
  EXPECT_GT(a.attacker_rejected, 0u);
}

TEST(Determinism, OracleModesGiveTheSameOutcome) {
  const RunDigest a = run_scenario();
  {
    SCOPED_TRACE("frame pool off");
    expect_same(a, run_scenario(test::StackMode::pool_off),
                /*with_events=*/true);
  }
  // The reference scheduler schedules other completion wakeups, so only
  // its event count may differ.
  SCOPED_TRACE("reference flow scheduler");
  expect_same(a, run_scenario(test::StackMode::reference_flows),
              /*with_events=*/false);
}

std::uint64_t run_faulted_scenario() {
  // Writers racing a nontrivial fault schedule: provider crashes (one
  // losing its store), a partition, degraded links with probabilistic
  // drops, a disk slowdown — plus jittered RPC retries. Everything draws
  // from seeded RNGs, so the digest must replay bit-identically.
  sim::Simulation sim;
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 8;
  cfg.metadata_providers = 2;
  cfg.fault_seed = 0xDE7E12ull;
  cfg.vm_options.write_lease = simtime::seconds(30);
  cfg.vm_options.sweep_interval = simtime::seconds(5);
  blob::Deployment dep(sim, cfg);

  std::vector<blob::BlobClient*> clients;
  for (int i = 0; i < 3; ++i) clients.push_back(dep.add_client());
  auto blob = test::run_task(sim, clients[0]->create(4 * units::MB, 2));

  fault::FaultPlane plane(dep.cluster(), /*seed=*/5151);
  fault::ScheduleOptions so;
  so.horizon = simtime::minutes(3);
  for (auto& p : dep.providers()) so.crashable.push_back(p->id());
  so.crashes = 3;
  so.max_wipe_crashes = 1;
  so.site_count = cfg.sites;
  so.partitions = 1;
  so.degrades = 2;
  so.disk_slowdowns = 1;
  plane.schedule_all(fault::random_schedule(/*seed=*/777, so));

  Rng wl(0xABCDull);
  struct Op {
    Result<blob::WriteReceipt> result{Errc::internal};
  };
  std::vector<Op> ops(12);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const SimTime at = simtime::millis(wl.uniform(0, 100000));
    const std::uint64_t bytes = (1 + wl.next_below(3)) * 4 * units::MB;
    sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                 SimTime when, std::uint64_t n, std::uint64_t content,
                 Op& op) -> sim::Task<void> {
      co_await s.delay_until(when);
      op.result = co_await cl.append(b, blob::Payload::synthetic(n, content));
    }(sim, *clients[i % clients.size()], blob.value(), at, bytes, i + 1,
      ops[i]));
  }

  sim.run_until(simtime::minutes(5));

  Digest dg;
  for (const auto& op : ops) {
    dg.mix(static_cast<std::uint64_t>(op.result.code()));
    if (op.result.ok()) {
      dg.mix(op.result.value().version);
      dg.mix_signed(op.result.value().duration);
    }
  }
  dg.mix(sim.events_processed());
  dg.mix(dep.cluster().calls_retried());
  dg.mix(dep.cluster().calls_timed_out());
  dg.mix(dep.cluster().messages_dropped());
  dg.mix(plane.faults_applied());
  dg.mix(dep.version_manager().leases_expired());
  return dg.value();
}

TEST(Determinism, FaultScheduleReplaysBitIdentically) {
  const std::uint64_t a = run_faulted_scenario();
  const std::uint64_t b = run_faulted_scenario();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bs

// Autonomic core: MAPE-K controller, elasticity decisions, replication
// repair, and removal strategies against live deployments.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/elasticity.hpp"
#include "core/protection.hpp"
#include "core/removal.hpp"
#include "core/replication.hpp"
#include "mon/layer.hpp"
#include "sec/framework.hpp"
#include "test_util.hpp"
#include "workload/clients.hpp"

namespace bs::core {
namespace {

/// A full self-adaptive stack on a small deployment.
struct Stack {
  explicit Stack(sim::Simulation& sim, std::size_t providers = 4,
                 std::uint64_t capacity = 1 * units::GB)
      : sim_(sim) {
    blob::DeploymentConfig cfg;
    cfg.sites = 2;
    cfg.data_providers = providers;
    cfg.metadata_providers = 2;
    cfg.provider_capacity = capacity;
    dep = std::make_unique<blob::Deployment>(sim, cfg);

    rpc::Node* intro_node = dep->cluster().add_node(0);
    intro = std::make_unique<intro::IntrospectionService>(*intro_node);
    intro->start();

    mon::MonitoringConfig mcfg;
    mcfg.services = 1;
    mcfg.storage_servers = 1;
    mcfg.sinks = {intro_node->id()};
    mon = std::make_unique<mon::MonitoringLayer>(*dep, mcfg);
    mon->start();

    controller = std::make_unique<AutonomicController>(*dep, *intro);
  }

  sim::Simulation& sim_;
  std::unique_ptr<blob::Deployment> dep;
  std::unique_ptr<intro::IntrospectionService> intro;
  std::unique_ptr<mon::MonitoringLayer> mon;
  std::unique_ptr<AutonomicController> controller;
};

TEST(Elasticity, DesiredProvidersFollowsSpaceAndLoad) {
  ElasticityOptions opts;
  opts.min_providers = 2;
  opts.max_providers = 50;
  ElasticityModule mod(opts);

  intro::SystemSnapshot snap;
  for (int i = 0; i < 4; ++i) {
    intro::SystemSnapshot::ProviderInfo p;
    p.capacity = 1e9;
    p.used = 0.9e9;  // 90% full
    snap.providers.push_back(p);
    snap.total_capacity += p.capacity;
    snap.total_used += p.used;
  }
  // Space-driven: 3.6 GB used at 47.5% target over 1 GB providers -> ~8.
  EXPECT_GE(mod.desired_providers(snap), 7u);
  EXPECT_LE(mod.desired_providers(snap), 9u);

  // Load-driven: 600 MB/s over 60 MB/s budget -> 10 providers.
  snap.total_used = 0;
  for (auto& p : snap.providers) p.used = 0;
  snap.aggregate_write_rate = 600e6;
  EXPECT_EQ(mod.desired_providers(snap), 10u);
}

TEST(Elasticity, GrowsPoolUnderStoragePressure) {
  sim::Simulation sim;
  Stack stack(sim, /*providers=*/3, /*capacity=*/200 * units::MB);
  ElasticityOptions eopts;
  eopts.min_providers = 3;
  eopts.signals_required = 2;
  eopts.cooldown = simtime::seconds(5);
  stack.controller->add_module(std::make_unique<ElasticityModule>(eopts));
  stack.controller->start();

  // Fill ~80% of the initial 600 MB pool.
  blob::BlobClient* client = stack.dep->add_client();
  auto blob = test::run_task(sim, client->create(16 * units::MB));
  ASSERT_TRUE(blob.ok());
  (void)test::run_task(
      sim, client->write(*blob, 0,
                         blob::Payload::synthetic(480 * units::MB, 1)));

  const std::size_t before = stack.dep->providers().size();
  sim.run_until(sim.now() + simtime::seconds(60));
  EXPECT_GT(stack.dep->providers().size(), before);
  // New providers registered with the provider manager via heartbeats.
  EXPECT_EQ(stack.dep->provider_manager().provider_count(),
            stack.dep->providers().size());
}

TEST(Replication, DesiredReplicationScalesWithReadRate) {
  ReplicationOptions opts;
  opts.hot_read_rate = 40e6;
  opts.max_replication = 4;
  ReplicationModule mod(opts);
  EXPECT_EQ(mod.desired_replication(1, 0), 1u);
  EXPECT_EQ(mod.desired_replication(1, 45e6), 2u);
  EXPECT_EQ(mod.desired_replication(1, 90e6), 3u);
  EXPECT_EQ(mod.desired_replication(1, 1e9), 4u);  // capped
  EXPECT_EQ(mod.desired_replication(3, 45e6), 4u);
}

TEST(Replication, RepairsChunksAfterProviderLoss) {
  sim::Simulation sim;
  Stack stack(sim, /*providers=*/6);
  stack.controller->add_module(std::make_unique<ReplicationModule>());
  stack.controller->start();

  blob::BlobClient* client = stack.dep->add_client();
  auto blob = test::run_task(
      sim, client->create(4 * units::MB, /*replication=*/2));
  ASSERT_TRUE(blob.ok());
  auto w = test::run_task(
      sim, client->write(*blob, 0,
                         blob::Payload::synthetic(32 * units::MB, 1)));
  ASSERT_TRUE(w.ok());

  // Kill one provider; every chunk replica on it is lost.
  const NodeId victim = stack.dep->providers()[0]->id();
  stack.dep->cluster().retire_node(victim);

  sim.run_until(sim.now() + simtime::seconds(90));

  // All chunks must be back at full replication on live providers.
  blob::RemoteMetadataStore store(
      *stack.controller->context().node,
      stack.dep->endpoints().metadata_providers, ClientId{0},
      simtime::seconds(30));
  auto d = test::run_task(sim, client->stat(*blob));
  ASSERT_TRUE(d.ok());
  auto leaves = test::run_task(
      sim, blob::meta_ops::collect(sim, store, *blob,
                                   d.value().latest.version,
                                   d.value().latest.root_chunks, 0,
                                   d.value().latest.root_chunks));
  ASSERT_TRUE(leaves.ok());
  for (const auto& leaf : leaves.value()) {
    if (leaf.hole()) continue;
    std::size_t alive = 0;
    for (NodeId r : leaf.chunk->replicas) {
      EXPECT_NE(r, victim);
      rpc::Node* n = stack.dep->cluster().node(r);
      if (n != nullptr && n->up()) ++alive;
    }
    EXPECT_GE(alive, 2u);
  }
  // And the data is readable.
  auto read = test::run_task(sim, client->read(*blob, 0, 32 * units::MB));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value().bytes, 32 * units::MB);
}

TEST(Replication, ShrinksWhenDemandFades) {
  sim::Simulation sim;
  Stack stack(sim, /*providers=*/8);
  core::ReplicationOptions ropts;
  ropts.hot_read_rate = 10e6;
  ropts.max_replication = 3;
  stack.controller->add_module(
      std::make_unique<core::ReplicationModule>(ropts));
  stack.controller->start();

  blob::BlobClient* client = stack.dep->add_client();
  stack.mon->attach_client(*client);
  auto blob = test::run_task(sim, client->create(4 * units::MB, 1));
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(test::run_task(
                  sim, client->write(*blob, 0,
                                     blob::Payload::synthetic(
                                         16 * units::MB, 1)))
                  .ok());

  auto replica_counts = [&](std::size_t& min_r, std::size_t& max_r) {
    blob::RemoteMetadataStore store(
        *stack.controller->context().node,
        stack.dep->endpoints().metadata_providers, ClientId{0},
        simtime::seconds(30));
    auto d = test::run_task(sim, client->stat(*blob));
    ASSERT_TRUE(d.ok());
    auto leaves = test::run_task(
        sim, blob::meta_ops::collect(sim, store, *blob,
                                     d.value().latest.version,
                                     d.value().latest.root_chunks, 0,
                                     d.value().latest.root_chunks));
    ASSERT_TRUE(leaves.ok());
    min_r = 99;
    max_r = 0;
    for (const auto& leaf : leaves.value()) {
      if (leaf.hole()) continue;
      min_r = std::min(min_r, leaf.chunk->replicas.size());
      max_r = std::max(max_r, leaf.chunk->replicas.size());
    }
  };

  // Phase 1: heavy reads -> the module raises replication to the cap.
  blob::BlobClient* reader = stack.dep->add_client();
  workload::ClientRunStats rstats;
  workload::ReaderOptions r;
  r.loop_forever = true;
  r.op_bytes = 16 * units::MB;
  r.deadline = simtime::seconds(120);
  sim.spawn(workload::Reader::run(*reader, *blob, r, &rstats));
  // Sample while the heat is still on.
  sim.run_until(simtime::seconds(60));

  std::size_t min_r = 0, max_r = 0;
  replica_counts(min_r, max_r);
  EXPECT_EQ(min_r, 3u) << "hot blob should be fully replicated";

  // Phase 2: demand gone; the degree falls back to the creation floor.
  sim.run_until(simtime::seconds(260));
  replica_counts(min_r, max_r);
  EXPECT_EQ(max_r, 1u) << "cold blob should shrink back to base";
  // Data still intact.
  auto read = test::run_task(sim, client->read(*blob, 0, 16 * units::MB));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().bytes, 16 * units::MB);
  // Storage reclaimed: 4 chunks x 1 replica.
  std::uint64_t used = 0;
  for (auto& p : stack.dep->providers()) used += p->used();
  EXPECT_EQ(used, 16 * units::MB);
}

TEST(Removal, TtlExpiryDeletesTemporaryBlobs) {
  sim::Simulation sim;
  Stack stack(sim);
  stack.controller->add_module(std::make_unique<RemovalModule>());
  stack.controller->start();

  blob::BlobClient* client = stack.dep->add_client();
  auto temp = test::run_task(
      sim, client->create(1 * units::MB, 1, /*ttl=*/simtime::seconds(30)));
  auto durable = test::run_task(sim, client->create(1 * units::MB));
  ASSERT_TRUE(temp.ok() && durable.ok());
  (void)test::run_task(
      sim,
      client->write(*temp, 0, blob::Payload::synthetic(8 * units::MB, 1)));
  (void)test::run_task(
      sim, client->write(*durable, 0,
                         blob::Payload::synthetic(8 * units::MB, 2)));

  std::uint64_t used_before = 0;
  for (auto& p : stack.dep->providers()) used_before += p->used();
  ASSERT_GE(used_before, 16 * units::MB);

  sim.run_until(sim.now() + simtime::seconds(60));

  // Temporary blob is gone, durable one still there.
  auto gone = test::run_task(sim, client->stat(*temp));
  EXPECT_EQ(gone.code(), Errc::not_found);
  auto still = test::run_task(sim, client->stat(*durable));
  EXPECT_TRUE(still.ok());
  // Chunks reclaimed from providers.
  std::uint64_t used_after = 0;
  for (auto& p : stack.dep->providers()) used_after += p->used();
  EXPECT_LT(used_after, used_before);
  EXPECT_GE(used_after, 8 * units::MB);
}

TEST(Removal, VersionTrimmingFreesOverwrittenChunks) {
  sim::Simulation sim;
  Stack stack(sim);
  RemovalOptions ropts;
  ropts.keep_versions = 2;
  stack.controller->add_module(std::make_unique<RemovalModule>(ropts));
  stack.controller->start();

  blob::BlobClient* client = stack.dep->add_client();
  auto blob = test::run_task(sim, client->create(1 * units::MB));
  ASSERT_TRUE(blob.ok());
  // Overwrite the same 4 MB range six times: only the last two versions'
  // chunks should survive trimming.
  for (int i = 0; i < 6; ++i) {
    (void)test::run_task(
        sim, client->write(*blob, 0,
                           blob::Payload::synthetic(4 * units::MB, i)));
  }
  std::uint64_t used_before = 0;
  for (auto& p : stack.dep->providers()) used_before += p->used();
  ASSERT_GE(used_before, 24 * units::MB);

  sim.run_until(sim.now() + simtime::seconds(30));

  std::uint64_t used_after = 0;
  for (auto& p : stack.dep->providers()) used_after += p->used();
  EXPECT_LE(used_after, 8 * units::MB + units::MB);

  // Latest version still fully readable; trimmed version is not.
  auto vs = test::run_task(sim, client->versions(*blob));
  ASSERT_TRUE(vs.ok());
  EXPECT_EQ(vs.value().size(), 2u);
  auto latest = test::run_task(sim, client->read(*blob, 0, 4 * units::MB));
  EXPECT_TRUE(latest.ok());
  auto old = test::run_task(
      sim, client->read(*blob, 0, 4 * units::MB, /*version=*/1));
  EXPECT_EQ(old.code(), Errc::not_found);
}

TEST(Controller, ExecutorDrainMigratesChunks) {
  sim::Simulation sim;
  Stack stack(sim, /*providers=*/5);
  blob::BlobClient* client = stack.dep->add_client();
  auto blob = test::run_task(sim, client->create(2 * units::MB));
  ASSERT_TRUE(blob.ok());
  (void)test::run_task(
      sim, client->write(*blob, 0,
                         blob::Payload::synthetic(20 * units::MB, 1)));

  // Find a provider holding chunks and drain it.
  blob::DataProvider* victim = nullptr;
  for (auto& p : stack.dep->providers()) {
    if (p->chunk_count() > 0) {
      victim = p.get();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  AdaptAction drain;
  drain.type = AdaptAction::Type::drain_provider;
  drain.provider = victim->id();
  auto r = test::run_task(sim, stack.controller->executor().execute(drain));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(victim->chunk_count(), 0u);
  EXPECT_FALSE(victim->node().up());

  // Data remains fully readable afterwards.
  auto read = test::run_task(sim, client->read(*blob, 0, 20 * units::MB));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value().bytes, 20 * units::MB);
}

TEST(Protection, RelaxesToTheScanIntervalItHardenedFrom) {
  sim::Simulation sim;
  intro::UserActivityHistory activity;
  sec::SecurityConfig scfg;
  scfg.detection.scan_interval = simtime::seconds(3);
  sec::SecurityFramework security(sim, activity, scfg);
  AgentContext ctx;
  ctx.security = &security;
  ProtectionModule mod;
  KnowledgeBase kb;
  // Runs one analysis at `rejected` rejections/s and applies what it plans.
  auto step = [&](double rejected) {
    intro::SystemSnapshot snap;
    snap.rejected_rate = rejected;
    kb.update(snap);
    auto actions = test::run_task(sim, mod.analyze(kb, ctx));
    for (const auto& a : actions) {
      EXPECT_EQ(a.type, AdaptAction::Type::set_scan_interval);
      security.engine().set_scan_interval(a.duration);
    }
    return actions.size();
  };
  EXPECT_EQ(step(50), 1u);  // under attack: harden
  EXPECT_EQ(security.engine().scan_interval(), simtime::seconds(2));
  EXPECT_EQ(step(50), 0u);  // already hardened
  EXPECT_EQ(step(0), 1u);   // quiet: relax to the configured 3 s, not 5 s
  EXPECT_EQ(security.engine().scan_interval(), simtime::seconds(3));
  EXPECT_EQ(step(0), 0u);
}

TEST(Controller, KnowledgeHistoryBounded) {
  KnowledgeBase kb(4);
  for (int i = 0; i < 10; ++i) {
    intro::SystemSnapshot s;
    s.time = simtime::seconds(i);
    s.total_used = i;
    kb.update(s);
  }
  EXPECT_EQ(kb.history().size(), 4u);
  EXPECT_DOUBLE_EQ(kb.current().total_used, 9);
  EXPECT_DOUBLE_EQ(
      kb.trend(2, [](const intro::SystemSnapshot& s) {
        return s.total_used;
      }),
      8.5);
}

}  // namespace
}  // namespace bs::core

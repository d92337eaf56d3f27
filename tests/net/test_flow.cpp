#include "net/flow.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace bs::net {
namespace {

TEST(Topology, Grid5000Shape) {
  auto t = Topology::grid5000();
  EXPECT_EQ(t.site_count(), 9u);
  EXPECT_EQ(t.site_name(0), "rennes");
  // LAN latency is sub-millisecond; WAN in the 4-12 ms band.
  EXPECT_EQ(t.latency(0, 0), simtime::micros(100));
  for (std::size_t a = 0; a < 9; ++a) {
    for (std::size_t b = 0; b < 9; ++b) {
      if (a == b) continue;
      EXPECT_GE(t.latency(a, b), simtime::millis(4));
      EXPECT_LE(t.latency(a, b), simtime::millis(12));
      EXPECT_EQ(t.latency(a, b), t.latency(b, a));
    }
  }
}

TEST(Flow, SingleFlowTakesBytesOverCapacity) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  test::run_task_void(sim, flows.transfer(200e6, {r}));
  EXPECT_NEAR(simtime::to_seconds(sim.now()), 2.0, 1e-3);
  EXPECT_EQ(flows.completed_flows(), 1u);
}

TEST(Flow, TwoFlowsShareFairly) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  SimTime t1 = 0, t2 = 0;
  sim::WaitGroup wg(sim);
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(100e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t1));
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(100e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t2));
  sim.run();
  // Both share 100 MB/s -> each gets 50 MB/s -> both finish at ~2 s.
  EXPECT_NEAR(simtime::to_seconds(t1), 2.0, 1e-3);
  EXPECT_NEAR(simtime::to_seconds(t2), 2.0, 1e-3);
}

TEST(Flow, ShortFlowFinishesAndLongSpeedsUp) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  SimTime t_short = 0, t_long = 0;
  sim::WaitGroup wg(sim);
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(50e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t_short));
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(150e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t_long));
  sim.run();
  // Shared until 50 MB each has moved (t=1 s); short flow done, long flow
  // then runs at full rate for its remaining 100 MB (1 more second).
  EXPECT_NEAR(simtime::to_seconds(t_short), 1.0, 1e-3);
  EXPECT_NEAR(simtime::to_seconds(t_long), 2.0, 1e-3);
}

TEST(Flow, BottleneckIsMinimumAcrossResources) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* fast = flows.create_resource("fast", mb_per_sec(1000));
  auto* slow = flows.create_resource("slow", mb_per_sec(10));
  test::run_task_void(sim, flows.transfer(20e6, {fast, slow}));
  EXPECT_NEAR(simtime::to_seconds(sim.now()), 2.0, 1e-3);
}

TEST(Flow, MaxMinFairnessWithAsymmetricDemand) {
  // Two flows on link A (cap 100); one of them also crosses link B
  // (cap 30). Max-min: constrained flow gets 30, the other gets 70.
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* a = flows.create_resource("A", mb_per_sec(100));
  auto* b = flows.create_resource("B", mb_per_sec(30));
  SimTime t_constrained = 0, t_free = 0;
  sim::WaitGroup wg(sim);
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* ra,
               Resource* rb, SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{ra, rb};
    co_await f.transfer(30e6, std::move(rs));
    out = s.now();
  }(sim, flows, a, b, t_constrained));
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* ra,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{ra};
    co_await f.transfer(70e6, std::move(rs));
    out = s.now();
  }(sim, flows, a, t_free));
  sim.run();
  EXPECT_NEAR(simtime::to_seconds(t_constrained), 1.0, 1e-2);
  EXPECT_NEAR(simtime::to_seconds(t_free), 1.0, 1e-2);
}

TEST(Flow, ManyFlowsAggregateThroughputEqualsCapacity) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  sim::WaitGroup wg(sim);
  for (int i = 0; i < 20; ++i) {
    wg.launch(flows.transfer(10e6, {r}));
  }
  sim.run();
  // 200 MB total over a 100 MB/s link -> 2 s.
  EXPECT_NEAR(simtime::to_seconds(sim.now()), 2.0, 1e-2);
  EXPECT_NEAR(r->bytes_served(), 200e6, 1e6);
}

TEST(Flow, ZeroByteTransferCompletesInstantly) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  test::run_task_void(sim, flows.transfer(0, {r}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(Flow, DuplicateResourceEntriesCountOnce) {
  // A repeated Resource* in the transfer path must not inflate the per-flow
  // share accounting: {r, r, r} behaves exactly like {r}.
  for (const bool incremental : {true, false}) {
    sim::Simulation sim;
    FlowScheduler flows(sim);
    flows.set_incremental(incremental);
    auto* r = flows.create_resource("link", mb_per_sec(100));
    test::run_task_void(sim, flows.transfer(200e6, {r, r, r}));
    EXPECT_NEAR(simtime::to_seconds(sim.now()), 2.0, 1e-3)
        << "incremental=" << incremental;
    EXPECT_EQ(r->active_flows(), 0u);
    EXPECT_NEAR(r->bytes_served(), 200e6, 1.0);
  }
}

TEST(Flow, DuplicateResourceCompetesFairlyWithPlainFlow) {
  // Before dedup, a duplicated entry double-counted the flow in unfrozen_,
  // halving its share. Both flows must finish together at 2 s.
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  SimTime t_dup = 0, t_plain = 0;
  sim::WaitGroup wg(sim);
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res, res};
    co_await f.transfer(100e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t_dup));
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(100e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t_plain));
  sim.run();
  EXPECT_NEAR(simtime::to_seconds(t_dup), 2.0, 1e-3);
  EXPECT_NEAR(simtime::to_seconds(t_plain), 2.0, 1e-3);
}

TEST(Flow, BytesServedPinnedToAnalyticTotals) {
  // Max-min shares: A={r1} gets 80, B={r1,r2} gets 20, C={r2} gets 20 MB/s.
  // After completion each resource has served exactly the bytes of the
  // flows crossing it (residue crediting makes the totals exact).
  for (const bool incremental : {true, false}) {
    sim::Simulation sim;
    FlowScheduler flows(sim);
    flows.set_incremental(incremental);
    auto* r1 = flows.create_resource("r1", 100e6);
    auto* r2 = flows.create_resource("r2", 40e6);
    sim::WaitGroup wg(sim);
    wg.launch(flows.transfer(80e6, {r1}));
    wg.launch(flows.transfer(20e6, {r1, r2}));
    wg.launch(flows.transfer(20e6, {r2}));
    sim.run();
    EXPECT_NEAR(r1->bytes_served(), 100e6, 1.0)
        << "incremental=" << incremental;
    EXPECT_NEAR(r2->bytes_served(), 40e6, 1.0)
        << "incremental=" << incremental;
  }
}

TEST(Flow, BytesServedSettlesOnDemandMidTransfer) {
  // bytes_served() must reflect progress up to now even between flow
  // events (the lazy path settles the resource's flows on read).
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  sim::WaitGroup wg(sim);
  wg.launch(flows.transfer(200e6, {r}));
  sim.run_until(simtime::seconds(0.5));
  EXPECT_NEAR(r->bytes_served(), 50e6, 1e3);
  EXPECT_EQ(r->active_flows(), 1u);
  sim.run();
  EXPECT_NEAR(r->bytes_served(), 200e6, 1.0);
}

TEST(Flow, StaggeredArrivalSlowsExistingFlow) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r = flows.create_resource("link", mb_per_sec(100));
  SimTime t_first = 0;
  sim::WaitGroup wg(sim);
  wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
               SimTime& out) -> sim::Task<void> {
    std::vector<Resource*> rs{res};
    co_await f.transfer(100e6, std::move(rs));
    out = s.now();
  }(sim, flows, r, t_first));
  wg.launch([](sim::Simulation& s, FlowScheduler& f,
               Resource* res) -> sim::Task<void> {
    co_await s.delay(simtime::seconds(0.5));
    std::vector<Resource*> rs{res};
    co_await f.transfer(100e6, std::move(rs));
  }(sim, flows, r));
  sim.run();
  // First flow: 50 MB alone (0.5 s), then 50 MB at half rate (1 s) -> 1.5 s.
  EXPECT_NEAR(simtime::to_seconds(t_first), 1.5, 1e-2);
}

}  // namespace
}  // namespace bs::net

// Property suite for the flow-level bandwidth model. Seeded
// arrival/departure traces are replayed through the incremental
// (component-scoped) scheduler and the reference (global-recompute) oracle,
// asserting:
//  (a) completion times agree to 1 ns,
//  (b) no resource's allocated rate ever exceeds its capacity,
//  (c) every flow crosses at least one saturated resource (max-min:
//      every unfrozen bottleneck is filled),
// plus analytic work-conservation / fairness pins and mid-flight capacity
// changes (the fault plane's disk-slowdown actuator).
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/flow.hpp"
#include "sim/sync.hpp"

namespace bs::net {
namespace {

struct Trace {
  std::vector<double> caps;
  struct Op {
    double bytes;
    std::vector<std::size_t> path;  // resource indices
    SimDuration at;
  };
  std::vector<Op> ops;
};

Trace make_trace(std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  const std::size_t n_resources = 2 + rng.next_below(8);
  for (std::size_t i = 0; i < n_resources; ++i) {
    t.caps.push_back(rng.uniform(1e6, 2e8));
  }
  const std::size_t n_flows = 10 + rng.next_below(60);
  for (std::size_t f = 0; f < n_flows; ++f) {
    Trace::Op op;
    op.bytes = rng.uniform(1e4, 8e7);
    for (std::size_t i = 0; i < n_resources; ++i) {
      if (rng.chance(0.35)) op.path.push_back(i);
    }
    if (op.path.empty()) op.path.push_back(rng.next_below(n_resources));
    op.at = simtime::millis(rng.uniform(0, 3000));
    t.ops.push_back(std::move(op));
  }
  return t;
}

struct RunResult {
  std::vector<SimTime> completion;  // indexed by trace op
  std::vector<double> served;       // per resource
  SimTime end{0};
  std::uint64_t completed{0};
};

void check_maxmin_invariants(const FlowScheduler& flows) {
  const auto snap = flows.active_flows_snapshot();
  if (snap.empty()) return;
  std::unordered_map<const Resource*, double> load;
  for (const auto& f : snap) {
    for (const auto* r : f.resources) load[r] += f.rate;
  }
  // (b) capacity is never exceeded.
  for (const auto& [r, sum] : load) {
    EXPECT_LE(sum, r->capacity() * (1.0 + 1e-9))
        << "over-allocated resource " << r->name();
  }
  // (c) max-min: every flow is held back by some saturated resource.
  for (const auto& f : snap) {
    EXPECT_GT(f.rate, 0.0) << "starved flow " << f.id;
    bool has_bottleneck = false;
    for (const auto* r : f.resources) {
      if (load[r] >= r->capacity() * (1.0 - 1e-9)) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck)
        << "flow " << f.id << " bottleneck not saturated";
  }
}

RunResult run_trace(const Trace& t, bool incremental, bool check_invariants) {
  sim::Simulation sim;
  FlowScheduler flows(sim);
  flows.set_incremental(incremental);
  std::vector<Resource*> resources;
  for (std::size_t i = 0; i < t.caps.size(); ++i) {
    resources.push_back(
        flows.create_resource("r" + std::to_string(i), t.caps[i]));
  }
  RunResult rr;
  rr.completion.assign(t.ops.size(), -1);
  sim::WaitGroup wg(sim);
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const auto& op = t.ops[i];
    std::vector<Resource*> path;
    for (auto idx : op.path) path.push_back(resources[idx]);
    wg.launch([](sim::Simulation& s, FlowScheduler& fl, double bytes,
                 std::vector<Resource*> p, SimDuration at,
                 SimTime& out) -> sim::Task<void> {
      co_await s.delay(at);
      co_await fl.transfer(bytes, std::move(p));
      out = s.now();
    }(sim, flows, op.bytes, std::move(path), op.at, rr.completion[i]));
  }
  if (check_invariants) {
    for (SimTime probe = simtime::millis(100); probe <= simtime::seconds(8);
         probe += simtime::millis(250)) {
      sim.schedule_at(probe, [&flows] { check_maxmin_invariants(flows); });
    }
  }
  sim.run();
  rr.end = sim.now();
  rr.completed = flows.completed_flows();
  for (auto* r : resources) rr.served.push_back(r->bytes_served());
  EXPECT_EQ(flows.active_flow_count(), 0u);
  return rr;
}

class FlowEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowEquivalenceTest, IncrementalMatchesReferenceOracle) {
  const Trace t = make_trace(GetParam());
  const RunResult inc = run_trace(t, /*incremental=*/true,
                                  /*check_invariants=*/true);
  const RunResult ref = run_trace(t, /*incremental=*/false,
                                  /*check_invariants=*/true);
  ASSERT_EQ(inc.completed, ref.completed);
  ASSERT_EQ(inc.completion.size(), ref.completion.size());
  // Both modes share the settle discipline, completion grouping and stored
  // per-flow ETAs, so completion times are bit-identical, not just close.
  for (std::size_t i = 0; i < inc.completion.size(); ++i) {
    EXPECT_EQ(inc.completion[i], ref.completion[i])
        << "flow " << i << " completed at " << inc.completion[i]
        << " (incremental) vs " << ref.completion[i] << " (reference)";
  }
  // Identical settle chains make per-resource byte totals bit-identical.
  for (std::size_t i = 0; i < inc.served.size(); ++i) {
    EXPECT_EQ(inc.served[i], ref.served[i]) << "resource " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowEquivalenceTest,
                         ::testing::Values(1, 5, 9, 13, 21, 33, 47, 101, 257,
                                           1031));

TEST(FlowWorkConservation, SharedBottleneckFinishesAtAnalyticTime) {
  // K flows of equal size all crossing one bottleneck: total time must be
  // (sum of bytes) / capacity regardless of arrival micro-ordering.
  for (int k : {2, 5, 17}) {
    sim::Simulation sim;
    FlowScheduler flows(sim);
    auto* r = flows.create_resource("link", 1e8);
    sim::WaitGroup wg(sim);
    const double each = 3e7;
    for (int i = 0; i < k; ++i) {
      wg.launch([](FlowScheduler& f, Resource* res,
                   double b) -> sim::Task<void> {
        std::vector<Resource*> p{res};
        co_await f.transfer(b, std::move(p));
      }(flows, r, each));
    }
    sim.run();
    EXPECT_NEAR(simtime::to_seconds(sim.now()), each * k / 1e8,
                0.01 * k)
        << "k=" << k;
  }
}

TEST(FlowFairness, UnequalPathsGetMaxMinShares) {
  // Three flows: A crosses r1 only; B crosses r1+r2; C crosses r2 only.
  // r1 = 100, r2 = 40 MB/s. Max-min: B gets 20, C gets 20, A gets 80.
  sim::Simulation sim;
  FlowScheduler flows(sim);
  auto* r1 = flows.create_resource("r1", 100e6);
  auto* r2 = flows.create_resource("r2", 40e6);

  // Sizes proportional to the max-min shares: all three flows should then
  // complete at ~1 s simultaneously.
  SimTime ta = 0, tb = 0, tc = 0;
  auto one = [](sim::Simulation& s, FlowScheduler& f,
                std::vector<Resource*> p, double bytes,
                SimTime& out) -> sim::Task<void> {
    co_await f.transfer(bytes, std::move(p));
    out = s.now();
  };
  sim::WaitGroup wg(sim);
  wg.launch(one(sim, flows, {r1}, 80e6, ta));
  wg.launch(one(sim, flows, {r1, r2}, 20e6, tb));
  wg.launch(one(sim, flows, {r2}, 20e6, tc));
  sim.run();
  EXPECT_NEAR(simtime::to_seconds(ta), 1.0, 0.02);
  EXPECT_NEAR(simtime::to_seconds(tb), 1.0, 0.02);
  EXPECT_NEAR(simtime::to_seconds(tc), 1.0, 0.02);
  // Resource accounting matches the shares integrated over the run.
  EXPECT_NEAR(r1->bytes_served(), 100e6, 2e6);
  EXPECT_NEAR(r2->bytes_served(), 40e6, 2e6);
}

TEST(FlowCapacityChange, MidFlightSlowdownShiftsCompletionAnalytically) {
  // One 100 MB flow on a 100 MB/s link, halved to 50 MB/s at t=0.5 s:
  // 50 MB done by the change, the remaining 50 MB takes 1 s -> 1.5 s total.
  for (const bool incremental : {true, false}) {
    sim::Simulation sim;
    FlowScheduler flows(sim);
    flows.set_incremental(incremental);
    auto* r = flows.create_resource("disk", 100e6);
    SimTime done = 0;
    sim::WaitGroup wg(sim);
    wg.launch([](sim::Simulation& s, FlowScheduler& f, Resource* res,
                 SimTime& out) -> sim::Task<void> {
      std::vector<Resource*> p{res};
      co_await f.transfer(100e6, std::move(p));
      out = s.now();
    }(sim, flows, r, done));
    sim.schedule_at(simtime::millis(500),
                    [&] { flows.set_capacity(r, 50e6); });
    sim.run();
    EXPECT_NEAR(simtime::to_seconds(done), 1.5, 0.01)
        << "incremental=" << incremental;
    // Restoring with no active flows is a plain bookkeeping update.
    flows.set_capacity(r, 100e6);
    EXPECT_NEAR(r->bytes_served(), 100e6, 1e3);
  }
}

TEST(FlowCapacityChange, IncrementalMatchesReferenceUnderCapacityFlaps) {
  // A random trace plus periodic capacity halving/restoring on one
  // resource: both scheduler modes must still agree bit-for-bit.
  const Trace t = make_trace(41);
  std::vector<RunResult> results;
  for (const bool incremental : {true, false}) {
    sim::Simulation sim;
    FlowScheduler flows(sim);
    flows.set_incremental(incremental);
    std::vector<Resource*> resources;
    for (std::size_t i = 0; i < t.caps.size(); ++i) {
      resources.push_back(
          flows.create_resource("r" + std::to_string(i), t.caps[i]));
    }
    RunResult rr;
    rr.completion.assign(t.ops.size(), -1);
    sim::WaitGroup wg(sim);
    for (std::size_t i = 0; i < t.ops.size(); ++i) {
      const auto& op = t.ops[i];
      std::vector<Resource*> path;
      for (auto idx : op.path) path.push_back(resources[idx]);
      wg.launch([](sim::Simulation& s, FlowScheduler& fl, double bytes,
                   std::vector<Resource*> p, SimDuration at,
                   SimTime& out) -> sim::Task<void> {
        co_await s.delay(at);
        co_await fl.transfer(bytes, std::move(p));
        out = s.now();
      }(sim, flows, op.bytes, std::move(path), op.at, rr.completion[i]));
    }
    for (SimTime probe = simtime::millis(300); probe <= simtime::seconds(4);
         probe += simtime::millis(600)) {
      const bool slow = (probe / simtime::millis(600)) % 2 == 0;
      sim.schedule_at(probe, [&flows, &resources, &t, slow] {
        flows.set_capacity(resources[0], slow ? t.caps[0] / 2 : t.caps[0]);
      });
    }
    sim.run();
    rr.end = sim.now();
    rr.completed = flows.completed_flows();
    for (auto* r : resources) rr.served.push_back(r->bytes_served());
    EXPECT_EQ(flows.active_flow_count(), 0u);
    results.push_back(std::move(rr));
  }
  ASSERT_EQ(results[0].completed, results[1].completed);
  EXPECT_EQ(results[0].end, results[1].end);
  for (std::size_t i = 0; i < results[0].completion.size(); ++i) {
    EXPECT_EQ(results[0].completion[i], results[1].completion[i])
        << "flow " << i;
  }
  for (std::size_t i = 0; i < results[0].served.size(); ++i) {
    EXPECT_EQ(results[0].served[i], results[1].served[i]) << "resource " << i;
  }
}

TEST(FlowEquivalence, ServedBytesMatchRequestedTotals) {
  // Conservation, pinned analytically: each resource serves exactly the sum
  // of the bytes of the flows that cross it (residue crediting included).
  const Trace t = make_trace(77);
  for (const bool incremental : {true, false}) {
    const RunResult rr = run_trace(t, incremental, false);
    std::vector<double> expected(t.caps.size(), 0.0);
    for (const auto& op : t.ops) {
      for (auto idx : op.path) expected[idx] += op.bytes;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(rr.served[i], expected[i],
                  1e-6 * std::max(1.0, expected[i]))
          << "resource " << i << " incremental=" << incremental;
    }
  }
}

}  // namespace
}  // namespace bs::net

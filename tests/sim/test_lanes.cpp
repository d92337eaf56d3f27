// Far-ladder determinism properties: with the ladder engaged by reserve()
// (stage rung + late-insertion heap + far pool, see DESIGN.md "One event
// queue and the far ladder") the queue must reproduce the pure heap's pop
// order *exactly* — same events, same interleave, same clock — whole or in
// run_until() slices, and the pooled lite-client workload must digest
// identically either way, and to the value pinned below.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/lite_clients.hpp"

namespace bs::sim {
namespace {

/// A declared load far above the engage threshold.
constexpr std::size_t kLargeLoad = std::size_t{1} << 20;

// Self-similar random scenario: every executed event records its id and
// schedules rng-driven follow-ups across time scales. Delays mix zero
// (same-time ring), sub-rung (late heap insertions behind far_bar),
// in-rung, and beyond-rung (far pool) so all four tiers participate; the
// longer ones are whole milliseconds, so many events share a time and
// every tier has to break ties by seq. The rng is consumed in execution
// order, so any ordering divergence between two runs cascades — making
// the order vector a very sensitive probe.
struct Scenario {
  Simulation* sim{nullptr};
  Rng rng{0};
  std::vector<std::uint32_t> order;
  std::uint32_t next_id{0};
  std::uint32_t budget{0};

  struct Ev {
    Scenario* sc;
    std::uint32_t id;
    void operator()() const { sc->fire(id); }
  };
  static_assert(InlineCallback::fits_inline<Ev>());

  void fire(std::uint32_t id) {
    order.push_back(id);
    const std::size_t fanout = rng.next_below(3);  // 0..2 follow-ups
    for (std::size_t i = 0; i < fanout && budget != 0; ++i, --budget) {
      SimDuration dt = 0;
      switch (rng.next_below(4)) {
        case 0: dt = 0; break;                                   // ring
        case 1: dt = 1 + rng.next_below(2'000'000); break;       // < 2 ms
        case 2: dt = simtime::millis(2 + rng.next_below(78)); break;
        default: dt = simtime::millis(80 + rng.next_below(320)); break;
      }
      sim->schedule_at(sim->now() + dt, Ev{this, next_id++});
    }
  }

  /// Queues `initial` events in the first 250 ms; 4000 follow-ups remain.
  void start(Simulation& s, std::uint64_t seed, std::size_t initial) {
    sim = &s;
    rng = Rng(seed);
    budget = 4000;
    for (std::size_t i = 0; i < initial; ++i) {
      const SimTime t = simtime::millis(rng.next_below(250));
      sim->schedule_at(t, Ev{this, next_id++});
    }
  }
};

std::vector<std::uint32_t> run_scenario(bool ladder, std::uint64_t seed,
                                        SimTime* end_clock = nullptr,
                                        SimTime run_until_step = 0,
                                        std::size_t initial = 64) {
  Simulation sim;
  if (ladder) sim.reserve(kLargeLoad);
  Scenario sc;
  sc.start(sim, seed, initial);
  if (run_until_step > 0) {
    // Exercise the run_until() boundary logic mid-rung. The horizon is far
    // past the last event, and bounds the loop should run_until() miss one.
    while (sim.pending() != 0 && sim.now() < simtime::minutes(60)) {
      sim.run_until(sim.now() + run_until_step);
    }
  } else {
    sim.run();
  }
  EXPECT_EQ(sim.pending(), 0u);
  if (end_clock != nullptr) *end_clock = sim.now();
  return sc.order;
}

TEST(SimLanes, LadderOrderMatchesHeapOracle) {
  // Tier placement must never affect execution order: the engaged ladder
  // replays the same total order and ends on the same clock as the heap.
  // 12000 initial events, ~48 per millisecond, fill the far pool past one
  // rung, so refill cuts it with nth_element right through a tie.
  for (const std::size_t initial : {std::size_t{64}, std::size_t{12000}}) {
    for (const std::uint64_t seed : {1ull, 42ull, 0xbadc0deull}) {
      SimTime oracle_end = 0;
      SimTime ladder_end = 0;
      const auto oracle = run_scenario(false, seed, &oracle_end, 0, initial);
      const auto ladder = run_scenario(true, seed, &ladder_end, 0, initial);
      ASSERT_GT(oracle.size(), 1000u) << "seed " << seed;
      EXPECT_EQ(oracle, ladder) << "seed " << seed << " initial " << initial;
      EXPECT_EQ(oracle_end, ladder_end) << "seed " << seed;
    }
  }
}

TEST(SimLanes, RunUntilAgreesWithOracleMidRung) {
  // Stepping the clock in 7 ms slices cuts through stage rungs and forces
  // refills at arbitrary boundaries; the order must not change. run_until()
  // has to look past the ring and heap into the stage and the far pool,
  // or a sliced ladder run returns with everything still queued.
  for (const std::uint64_t seed : {7ull, 42ull}) {
    const auto oracle = run_scenario(false, seed);
    EXPECT_EQ(run_scenario(true, seed, nullptr, simtime::millis(7)), oracle)
        << "seed " << seed;
    EXPECT_EQ(run_scenario(false, seed, nullptr, simtime::millis(7)), oracle)
        << "seed " << seed;
  }
}

TEST(SimLanes, ReserveAfterQueuedKeepsOrder) {
  // The declaration may arrive after events are queued (and after some
  // have run): engaging then lifts the bar above every queued key, and the
  // execution order matches the pure heap exactly.
  auto run = [](int reserve_after) {
    Simulation sim;
    Scenario sc;
    sc.start(sim, 7, 64);
    for (int i = 0; i < reserve_after && sim.step(); ++i) {
    }
    sim.reserve(kLargeLoad);
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
    return sc.order;
  };
  const auto oracle = run_scenario(false, 7);
  EXPECT_EQ(run(0), oracle);
  EXPECT_EQ(run(100), oracle);
  EXPECT_EQ(run(1000), oracle);
}

TEST(SimLanes, PendingCountsAllTiers) {
  Simulation sim;
  sim.reserve(kLargeLoad);  // engage so the far tier is occupied
  struct Nop {
    void operator()() const {}
  };
  // Spread schedules across time scales; pending() must count ring,
  // stage, heap and far occupants alike.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(simtime::millis(i * 3), Nop{});
  }
  EXPECT_EQ(sim.pending(), 100u);
  sim.run_until(simtime::millis(150));
  EXPECT_EQ(sim.pending(), 49u);  // events at > 150 ms remain
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimLanes, FarPushTakesTheSlotItsPopVacated) {
  // Far slots are reused most recently freed first: a push from a body the
  // stage just popped lands in the slot that pop vacated, still in cache
  // (DESIGN.md "One event queue and the far ladder"). Oldest first runs
  // the same events, so only addresses show the difference: a
  // 16-byte body notes the last move it made, whose source is the slot its
  // pop vacated when it runs, and whose destination is the slot its push
  // took when schedule_at returns. Only every other event re-arms, so a
  // push finds several freed slots in the consumed hole; with one push per
  // pop the hole holds one and both orders pick it.
  struct Log {
    Simulation sim;
    const void* moved_from{nullptr};
    const void* moved_to{nullptr};
    std::uint64_t runs{0};
    std::uint64_t pushes{0};
    std::uint64_t own_slot{0};
  };
  struct Body {
    Log* log;
    SimDuration delay;
    Body(Log* l, SimDuration d) : log(l), delay(d) {}
    Body(Body&& o) noexcept : log(o.log), delay(o.delay) {
      log->moved_from = &o;
      log->moved_to = this;
    }
    void operator()() {
      Log& l = *log;
      const void* vacated = l.moved_from;
      if (++l.runs % 2 != 0) return;
      l.sim.schedule_at(l.sim.now() + delay, Body(log, delay));
      ++l.pushes;
      if (l.moved_to == vacated) ++l.own_slot;
    }
  };
  static_assert(sizeof(Body) == 16 && InlineCallback::fits_inline<Body>());

  constexpr std::size_t kEvents = 1 << 14;  // the engage threshold
  Log log;
  log.sim.reserve(kEvents);
  // Distinct times, and re-arms beyond every queued one: each event runs
  // off the stage and each push goes to the far pool.
  constexpr auto kDelay = static_cast<SimDuration>(2 * kEvents);
  for (std::size_t i = 1; i <= kEvents; ++i) {
    log.sim.schedule_at(static_cast<SimTime>(i), Body(&log, kDelay));
  }
  log.sim.run();
  EXPECT_EQ(log.runs, 2 * kEvents - 1);
  EXPECT_EQ(log.pushes, kEvents - 1);
  EXPECT_EQ(log.own_slot, log.pushes);
}

// ---------------------------------------------------------------- lite pool

std::uint64_t lite_digest(bool ladder, std::uint64_t seed,
                          std::uint64_t* events = nullptr) {
  Simulation sim;
  // 5000 clients is below the engage threshold, so the pool's own
  // declaration leaves the ladder parked; force-engage it to cover the far
  // tier at test scale.
  if (ladder) sim.reserve(kLargeLoad);
  const net::Topology topo = net::Topology::grid5000(9);
  workload::LiteParams params;
  params.clients = 5000;
  params.end = simtime::minutes(3);
  params.mean_period = simtime::seconds(5);
  params.seed = seed;
  workload::LiteClientPool pool(sim, topo, params);
  pool.start();
  sim.run();
  if (events != nullptr) *events = sim.events_processed();
  return pool.digest();
}

TEST(SimLanes, LitePoolDigestStableAcrossSteppers) {
  std::uint64_t ev_heap = 0;
  std::uint64_t ev_ladder = 0;
  EXPECT_EQ(lite_digest(false, 99, &ev_heap),
            lite_digest(true, 99, &ev_ladder));
  EXPECT_EQ(ev_heap, ev_ladder);
}

TEST(SimLanes, LitePoolDigestGolden) {
  // Absolute values, not a comparison between modes: any change to the
  // global (time, seq) execution order — in the kernel or in how the pool
  // schedules — moves them. Re-pin only for a deliberate order change.
  std::uint64_t events = 0;
  EXPECT_EQ(lite_digest(true, 99, &events), 0x657bc49f9664c7e1ull);
  EXPECT_EQ(events, 112594u);
}

class LaneReplaySeeds : public ::testing::TestWithParam<int> {};

TEST_P(LaneReplaySeeds, FiftySeedReplayDigestsMatch) {
  // 10 seeds per shard x 5 shards = the 50-seed replay matrix. Every seed
  // must digest identically between the pure heap and the engaged ladder.
  const int shard = GetParam();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed =
        0x5eedull + static_cast<std::uint64_t>(shard * 10 + i);
    EXPECT_EQ(lite_digest(false, seed), lite_digest(true, seed))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(ReplayMatrix, LaneReplaySeeds,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace bs::sim

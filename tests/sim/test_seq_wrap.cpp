// The 32-bit sequence counter. Reaching its ceiling renumbers every pending
// event, in the ring, the heap, the stage rung, the far pool and the timer
// heap, in (time, seq) order, and counting goes on after them: a run must
// execute exactly as it does from a counter that never comes near the
// ceiling. SimulationTestPeer, a friend of Simulation, starts the counter
// just below the ceiling and tells whether every tier holds an event.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace bs::sim {

struct SimulationTestPeer {
  static constexpr std::uint32_t kCeiling = Simulation::kNoSeq;

  static std::uint32_t counter(const Simulation& s) { return s.seq_; }
  static void start_counter(Simulation& s, std::uint32_t seq) {
    s.seq_ = seq;
  }

  /// Whether every tier holds a pending event: the ring, the heap, the
  /// rung, the far pool and the timer heap.
  static bool every_tier_occupied(const Simulation& s) {
    const Simulation::Queue& q = s.q_;
    return q.ring_size != 0 && !q.heap.empty() &&
           q.stage_head != q.stage_end &&
           q.far_front + (q.far_end - q.stage_end) != 0 &&
           !s.timer_heap_.empty();
  }
};

namespace {

using Peer = SimulationTestPeer;

/// A declared load far above the engage threshold.
constexpr std::size_t kLargeLoad = std::size_t{1} << 20;

// Every event folds its id and time into a digest and draws follow-ups from
// one rng in execution order, so any change of order cascades. Delays mix
// zero (ring, and zero-delay timers), sub-bar (late heap insertions) and
// beyond-bar (far pool); most are whole milliseconds, so many events share
// a time and every tier breaks ties by seq. Timers are armed and cancelled
// at random. Every schedule draws one sequence number and goes through
// draw(), which counts the draws and notes the first one, from `watch_from`
// on, that finds every tier occupied.
struct WrapScenario {
  Simulation sim;
  Rng rng{0};
  std::uint64_t digest{0xcbf29ce484222325ull};
  std::uint32_t next_id{0};
  std::uint32_t budget{6000};
  std::vector<TimerId> timers;
  std::uint64_t draws{0};
  std::uint64_t watch_from{~0ull};
  std::uint64_t first_full{~0ull};
  bool full_at_ceiling{false};

  struct Ev {
    WrapScenario* sc;
    std::uint32_t id;
    void operator()() const { sc->fire(id); }
  };
  static_assert(InlineCallback::fits_inline<Ev>());

  void draw() {
    const bool full = Peer::every_tier_occupied(sim);
    if (draws >= watch_from && full && first_full == ~0ull) first_full = draws;
    if (Peer::counter(sim) == Peer::kCeiling) full_at_ceiling = full;
    ++draws;
  }

  void schedule(SimDuration dt) {
    draw();
    sim.schedule_in(dt, Ev{this, next_id++});
  }

  void arm(SimDuration dt) {
    draw();
    timers.push_back(sim.schedule_timer_in(dt, Ev{this, next_id++}));
  }

  SimDuration delay() {
    switch (rng.next_below(5)) {
      case 0: return 0;
      case 1: return simtime::millis(1 + rng.next_below(3));
      case 2: return simtime::millis(4 + rng.next_below(76));
      default: return simtime::millis(80 + rng.next_below(320));
    }
  }

  void fire(std::uint32_t id) {
    constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
    digest = (digest ^ id) * kFnvPrime;
    digest = (digest ^ static_cast<std::uint64_t>(sim.now())) * kFnvPrime;
    const std::size_t fanout = rng.next_below(3);  // 0..2 follow-ups
    for (std::size_t i = 0; i < fanout && budget != 0; ++i, --budget) {
      switch (rng.next_below(6)) {
        case 0: arm(delay()); break;
        case 1:
          if (!timers.empty()) {
            sim.cancel(timers[rng.next_below(timers.size())]);
          }
          break;
        default: schedule(delay()); break;
      }
    }
  }

  /// Queues 12,000 events in the first 250 ms and 16 timers, then runs.
  void run(std::uint64_t seed) {
    rng = Rng(seed);
    sim.reserve(kLargeLoad);
    for (std::size_t i = 0; i < 12'000; ++i) {
      draw();
      sim.schedule_at(simtime::millis(rng.next_below(250)),
                      Ev{this, next_id++});
    }
    for (std::size_t i = 0; i < 16; ++i) arm(delay());
    sim.run();
  }
};

TEST(SimSeqWrap, RenumberingAtTheCeilingKeepsTheRun) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xbadc0deull}) {
    // From counter 0, noting the first draw past the setup at which every
    // tier holds an event.
    WrapScenario plain;
    plain.watch_from = 12'016 + 1'000;
    plain.run(seed);
    ASSERT_NE(plain.first_full, ~0ull) << "seed " << seed;
    ASSERT_EQ(plain.draws, Peer::counter(plain.sim)) << "seed " << seed;
    ASSERT_GT(plain.sim.events_processed(), 15'000u) << "seed " << seed;

    // From just below the ceiling, so that draw is the one that finds the
    // counter at the ceiling and renumbers every tier.
    const auto start =
        static_cast<std::uint32_t>(Peer::kCeiling - plain.first_full);
    WrapScenario wrapped;
    Peer::start_counter(wrapped.sim, start);
    wrapped.run(seed);
    EXPECT_TRUE(wrapped.full_at_ceiling) << "seed " << seed;
    EXPECT_LT(Peer::counter(wrapped.sim), start) << "seed " << seed;

    EXPECT_EQ(wrapped.digest, plain.digest) << "seed " << seed;
    EXPECT_EQ(wrapped.sim.events_processed(), plain.sim.events_processed())
        << "seed " << seed;
    EXPECT_EQ(wrapped.draws, plain.draws) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bs::sim

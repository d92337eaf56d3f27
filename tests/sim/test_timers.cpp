// Cancellable kernel timers (Simulation::schedule_timer_in / cancel): a
// cancelled timer leaves the queue and drops its callback at once, ids go
// stale when their timer fires or is cancelled, and timers interleave with
// ordinary events in exactly the single-heap (time, seq) order — with the
// far ladder parked and engaged alike.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace bs::sim {
namespace {

/// A declared load far above the far ladder's engage threshold.
constexpr std::size_t kLargeLoad = std::size_t{1} << 20;

struct Rec {
  std::vector<int>* order;
  int id;
  void operator()() const { order->push_back(id); }
};

TEST(SimTimers, CancelDestroysCallbackAtOnceAndNeverRunsIt) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  bool ran = false;
  const TimerId id =
      sim.schedule_timer_in(simtime::seconds(1), [token, &ran] { ran = true; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // destroyed inside cancel()
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.now(), 0);  // nothing was left to advance the clock to
}

TEST(SimTimers, CancelRejectsFiredCancelledDefaultAndStaleIds) {
  Simulation sim;
  std::vector<int> fired;
  EXPECT_FALSE(sim.cancel(TimerId{}));

  const TimerId a = sim.schedule_timer_in(10, Rec{&fired, 1});
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // already fired

  const TimerId b = sim.schedule_timer_in(10, Rec{&fired, 2});
  ASSERT_EQ(b.slot, a.slot);    // the slot is reused...
  EXPECT_FALSE(sim.cancel(a));  // ...but the old id stays stale
  EXPECT_FALSE(sim.cancel(TimerId{}));
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_FALSE(sim.cancel(b));  // double cancel

  const TimerId c = sim.schedule_timer_in(10, Rec{&fired, 3});
  ASSERT_EQ(c.slot, b.slot);
  EXPECT_FALSE(sim.cancel(b));  // stale again under a third occupant
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimTimers, CancelOwnIdFromCallbackReturnsFalse) {
  Simulation sim;
  TimerId self;
  bool cancelled = true;
  self = sim.schedule_timer_in(
      5, [&sim, &self, &cancelled] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
}

TEST(SimTimers, SameTimeTimersKeepScheduleOrderWithEvents) {
  // Timers draw their seq from the shared counter when armed, so at one
  // instant they run exactly where a plain event armed at that moment
  // would: between the heap entries, and between ring entries when armed
  // with zero delay from inside an event.
  for (const bool ladder : {false, true}) {
    Simulation sim;
    if (ladder) sim.reserve(kLargeLoad);
    std::vector<int> order;
    const SimTime t = simtime::seconds(1);
    sim.schedule_at(t, Rec{&order, 0});
    sim.schedule_timer_in(t, Rec{&order, 1});
    sim.schedule_at(t, Rec{&order, 2});
    const TimerId gone = sim.schedule_timer_in(t, Rec{&order, -1});
    sim.schedule_at(t, Rec{&order, 3});
    sim.schedule_timer_in(t, Rec{&order, 4});
    sim.schedule_at(t, [&sim, &order] {
      order.push_back(5);
      sim.schedule_at(sim.now(), Rec{&order, 6});
      sim.schedule_timer_in(0, Rec{&order, 7});
      sim.schedule_at(sim.now(), Rec{&order, 8});
    });
    sim.schedule_timer_in(t - 1, Rec{&order, -2});  // earlier instant
    EXPECT_TRUE(sim.cancel(gone));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{-2, 0, 1, 2, 3, 4, 5, 6, 7, 8}))
        << (ladder ? "ladder" : "heap");
    EXPECT_EQ(sim.now(), t);
  }
}

TEST(SimTimers, RunUntilFiresOnlyDueTimers) {
  for (const bool ladder : {false, true}) {
    Simulation sim;
    if (ladder) sim.reserve(kLargeLoad);
    std::vector<int> fired;
    sim.schedule_timer_in(simtime::millis(10), Rec{&fired, 10});
    sim.schedule_timer_in(simtime::millis(20), Rec{&fired, 20});
    sim.run_until(simtime::millis(10));  // due at exactly t: fires
    EXPECT_EQ(fired, (std::vector<int>{10}));
    EXPECT_EQ(sim.now(), simtime::millis(10));
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_until(simtime::millis(19));  // nothing due: the clock moves
    EXPECT_EQ(fired, (std::vector<int>{10}));
    EXPECT_EQ(sim.now(), simtime::millis(19));
    sim.schedule_in(simtime::millis(5), Rec{&fired, 24});
    sim.run_until(simtime::millis(30));
    EXPECT_EQ(fired, (std::vector<int>{10, 20, 24}));
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(SimTimers, PendingCountsLiveTimers) {
  Simulation sim;
  const TimerId a = sim.schedule_timer_in(simtime::seconds(1), [] {});
  sim.schedule_timer_in(simtime::seconds(2), [] {});
  sim.schedule_in(simtime::seconds(3), [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

Task<void> await_event(Event& ev, bool& woke) {
  co_await ev.wait();
  woke = true;
}

TEST(SimTimers, DestroyedWithLiveTimersReleasesEverything) {
  // Teardown with timers still armed: every body is destroyed (the token
  // count drops back), the oversize body's heap block is freed (LSan
  // checks this under the asan preset), and an actor waiting on an event
  // only a timer would have set is destroyed with its frame.
  auto token = std::make_shared<int>(0);
  bool woke = false;
  {
    Simulation sim;
    Event ev(sim);
    sim.spawn(await_event(ev, woke));
    for (int i = 0; i < 100; ++i) {
      sim.schedule_timer_in(simtime::seconds(i + 1), [token] {});
    }
    std::array<char, 2 * InlineCallback::kInlineSize> pad{};
    sim.schedule_timer_in(simtime::seconds(100), [token, pad] { (void)pad; });
    sim.schedule_timer_in(simtime::seconds(200), [&ev] { ev.set(); });
    EXPECT_EQ(token.use_count(), 102);
    EXPECT_EQ(sim.live_actors(), 1u);
    sim.run_until(simtime::seconds(50));
    EXPECT_EQ(token.use_count(), 52);  // the first 50 fired
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(woke);
}

/// Self-rescheduling event: each run queues its own copy one period out,
/// so with the ladder engaged the copy takes a far slot a run just freed.
/// The body reaches its simulation through its token, a shared box holding
/// the simulation pointer. `Pad` sizes the body: 0 stays inline (16 bytes,
/// the whole buffer), 2 * kInlineSize takes the heap fallback.
using SimToken = std::shared_ptr<Simulation*>;
struct NoPad {};
template <std::size_t Pad>
struct Rearm {
  SimToken token;
  [[no_unique_address]] std::conditional_t<Pad == 0, NoPad,
                                           std::array<char, Pad>> pad{};
  void operator()() const {
    (*token)->schedule_in(simtime::seconds(30), *this);
  }
};
static_assert(sizeof(Rearm<0>) == InlineCallback::kInlineSize);
static_assert(InlineCallback::fits_inline<Rearm<0>>());
static_assert(
    !InlineCallback::fits_inline<Rearm<2 * InlineCallback::kInlineSize>>());

TEST(SimTimers, DestroyedMidRungReleasesStagedAndPooledBodies) {
  // A staged event's body stays in its far slot until it runs. Queue
  // 24,000 far events, one every millisecond, half of them re-arming: the
  // refills cut rungs of 12,000 and 9,000 keys, then one of 6,750 that
  // holds t = 21.001 s to 24 s and the first re-armed copies, and
  // run_until() stops 1,000 events into it. Destroying the simulation then
  // has to free every body: unrun staged ones and pooled ones, inline and
  // heap-fallback alike (LSan checks the fallback blocks under the asan
  // preset).
  auto token = std::make_shared<Simulation*>(nullptr);
  {
    Simulation sim;
    *token = &sim;
    sim.reserve(kLargeLoad);
    constexpr int kEvents = 24'000;
    for (int i = 0; i < kEvents; ++i) {
      const SimTime t = simtime::millis(1 + i);
      switch (i % 4) {
        case 0: sim.schedule_at(t, Rearm<0>{token}); break;
        case 1:
          sim.schedule_at(t, Rearm<2 * InlineCallback::kInlineSize>{token});
          break;
        case 2: {
          std::array<char, 2 * InlineCallback::kInlineSize> pad{};
          sim.schedule_at(t, [token, pad] { (void)pad; });
          break;
        }
        default: sim.schedule_at(t, [token] {}); break;
      }
    }
    EXPECT_EQ(token.use_count(), kEvents + 1);
    sim.run_until(simtime::millis(22'000));
    // Half the events ran and did not re-arm; each of the rest holds the
    // token once, wherever it waits.
    EXPECT_EQ(sim.events_processed(), 22'000u);
    EXPECT_EQ(sim.pending(), 13'000u);
    EXPECT_EQ(token.use_count(), 13'001);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Random workload of ordinary events, timers and cancels. In `zombies`
// mode timers are plain schedule_in() events that check a cancelled flag
// when they come due — the pre-timer idiom — which is the oracle: real
// timers must fire the same ids at the same times in the same order.
struct TimerScenario {
  Simulation* sim{nullptr};
  bool zombies{false};
  Rng rng{0};
  std::vector<std::pair<std::uint32_t, SimTime>> order;
  std::vector<TimerId> handles;  // by timer number
  std::vector<bool> live;        // by timer number
  std::uint32_t next_id{0};
  std::uint32_t budget{0};
  std::uint32_t misfires{0};     // real timers disagreeing with `live`

  struct Ev {
    TimerScenario* sc;
    std::uint32_t id;
    void operator()() const { sc->fire(id); }
  };
  struct Tm {
    TimerScenario* sc;
    std::uint32_t id;
    std::uint32_t k;
    void operator()() const { sc->fire_timer(k, id); }
  };

  SimDuration delay() {
    switch (rng.next_below(4)) {
      case 0: return 0;
      case 1: return 1 + rng.next_below(2'000'000);
      // Whole milliseconds, so timers and events often share a time.
      case 2: return simtime::millis(2 + rng.next_below(78));
      default: return simtime::millis(80 + rng.next_below(320));
    }
  }

  void arm(SimDuration dt) {
    const auto k = static_cast<std::uint32_t>(handles.size());
    live.push_back(true);
    const Tm body{this, next_id++, k};
    if (zombies) {
      sim->schedule_in(dt, body);
      handles.emplace_back();
    } else {
      handles.push_back(sim->schedule_timer_in(dt, body));
    }
  }

  void cancel_one() {
    if (handles.empty()) return;
    const std::size_t k = rng.next_below(handles.size());
    if (!zombies && sim->cancel(handles[k]) != live[k]) ++misfires;
    live[k] = false;
  }

  void fire_timer(std::uint32_t k, std::uint32_t id) {
    if (!live[k]) {
      if (!zombies) ++misfires;
      return;
    }
    live[k] = false;
    fire(id);
  }

  void fire(std::uint32_t id) {
    order.emplace_back(id, sim->now());
    const std::size_t fanout = rng.next_below(4);  // 0..3 follow-ups
    for (std::size_t i = 0; i < fanout && budget != 0; ++i, --budget) {
      switch (rng.next_below(4)) {
        case 0:
        case 1:
          sim->schedule_in(delay(), Ev{this, next_id++});
          break;
        case 2: arm(delay()); break;
        default: cancel_one(); break;
      }
    }
  }
};

std::vector<std::pair<std::uint32_t, SimTime>> run_timer_scenario(
    bool ladder, bool zombies, std::uint64_t seed, SimDuration slice = 0) {
  Simulation sim;
  if (ladder) sim.reserve(kLargeLoad);  // far tiers take part too
  TimerScenario sc;
  sc.sim = &sim;
  sc.zombies = zombies;
  sc.rng = Rng(seed);
  sc.budget = 4000;
  for (std::size_t i = 0; i < 48; ++i) {
    sim.schedule_at(simtime::millis(sc.rng.next_below(250)),
                    TimerScenario::Ev{&sc, sc.next_id++});
  }
  for (std::size_t i = 0; i < 16; ++i) sc.arm(sc.delay());
  if (slice > 0) {
    // The horizon is far past the last event, and bounds the loop should
    // run_until() miss one.
    while (sim.pending() != 0 && sim.now() < simtime::minutes(60)) {
      sim.run_until(sim.now() + slice);
    }
  } else {
    sim.run();
  }
  EXPECT_EQ(sc.misfires, 0u);
  EXPECT_EQ(sim.pending(), 0u);
  return sc.order;
}

TEST(SimTimers, MixedOrderMatchesZombieOracleOnHeapAndLadder) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xbadc0deull}) {
    const auto oracle = run_timer_scenario(false, true, seed);
    ASSERT_GT(oracle.size(), 1000u) << "seed " << seed;
    EXPECT_EQ(run_timer_scenario(true, true, seed), oracle) << seed;
    EXPECT_EQ(run_timer_scenario(false, false, seed), oracle) << seed;
    EXPECT_EQ(run_timer_scenario(true, false, seed), oracle) << seed;
    // run_until() slices cut between timers and queued events alike.
    EXPECT_EQ(run_timer_scenario(false, false, seed, simtime::millis(7)),
              oracle)
        << seed;
    EXPECT_EQ(run_timer_scenario(true, false, seed, simtime::millis(7)),
              oracle)
        << seed;
  }
}

}  // namespace
}  // namespace bs::sim

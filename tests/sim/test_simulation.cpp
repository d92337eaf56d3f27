#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"

namespace bs::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(simtime::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(simtime::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(simtime::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), simtime::seconds(3));
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(simtime::seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(simtime::seconds(5), [&] { ++fired; });
  sim.schedule_at(simtime::seconds(15), [&] { ++fired; });
  sim.run_until(simtime::seconds(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), simtime::seconds(10));
  sim.run_until(simtime::seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) sim.schedule_in(simtime::seconds(1), recur);
  };
  sim.schedule_in(0, recur);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), simtime::seconds(4));
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(simtime::seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending(), 7u);
}

TEST(Simulation, EventsProcessedCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(InlineCallback, SmallCallableStaysInlineAndRuns) {
  int hits = 0;
  sim::InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  int hits = 0;
  sim::InlineCallback a([&hits] { ++hits; });
  sim::InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  sim::InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, LargeCallableFallsBackToHeap) {
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > inline storage
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  sim::InlineCallback cb([payload, &sum] {
    for (auto v : payload) sum += v;
  });
  sim::InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(sum, 120u);
}

TEST(InlineCallback, MoveOnlyCaptureIsSupported) {
  // std::function required copyable callables; the event queue must not.
  auto p = std::make_unique<int>(42);
  int seen = 0;
  sim::Simulation sim;
  sim.schedule_at(0, [p = std::move(p), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulation, ScheduleAtNowFromCallbackPreservesFifo) {
  // From inside an event callback, wakeups scheduled at the current time —
  // whether raw callbacks or coroutine resumes — run in insertion order.
  sim::Simulation sim;
  std::vector<std::string> order;
  sim::Event ev(sim);
  sim.spawn([](sim::Event& e, std::vector<std::string>& out) -> sim::Task<void> {
    co_await e.wait();
    out.push_back("waiter");
  }(ev, order));
  sim.schedule_at(simtime::seconds(1), [&] {
    ev.set();  // enqueues the waiter's resume at now
    sim.schedule_at(sim.now(), [&] { order.push_back("cb1"); });
    sim.schedule_in(0, [&] { order.push_back("cb2"); });
  });
  sim.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"waiter", "cb1", "cb2"}));
  EXPECT_EQ(sim.now(), simtime::seconds(1));
}

TEST(Simulation, ZeroDelayResumesInterleaveDeterministically) {
  // delay(0) re-enqueues at the current time; repeated rounds of coroutine
  // resumes and schedule_at(now) callbacks must keep global FIFO order.
  sim::Simulation sim;
  std::vector<std::string> order;
  sim.spawn([](sim::Simulation& s,
               std::vector<std::string>& out) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(0);
      out.push_back("coro" + std::to_string(i));
      s.schedule_at(s.now(), [&out, i] {
        out.push_back("cb" + std::to_string(i));
      });
    }
  }(sim, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"coro0", "cb0", "coro1", "cb1",
                                             "coro2", "cb2"}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulation, RunUntilWithZeroDelayChainsStopsAtTarget) {
  // A callback that keeps rescheduling at now must not stall run_until past
  // its target, and seq ordering keeps the chain deterministic.
  sim::Simulation sim;
  int fired = 0;
  sim.schedule_at(simtime::seconds(2), [&] { ++fired; });
  sim.run_until(simtime::seconds(1));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), simtime::seconds(1));
  sim.schedule_at(sim.now(), [&] {
    sim.schedule_in(0, [&] { ++fired; });
  });
  sim.run_until(simtime::seconds(1));
  EXPECT_EQ(fired, 1);  // both the chain head and tail ran at t=1
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Task, DelayAdvancesSimTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.spawn([](Simulation& s, SimTime& out) -> Task<void> {
    co_await s.delay(simtime::seconds(2));
    co_await s.delay(simtime::millis(500));
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, simtime::seconds(2.5));
}

TEST(Task, ValueReturnAndChaining) {
  Simulation sim;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.delay(simtime::seconds(1));
    co_return 21;
  };
  auto result = test::run_task(
      sim, [](Simulation& s, auto mk) -> Task<int> {
        const int a = co_await mk(s);
        const int b = co_await mk(s);
        co_return a + b;
      }(sim, inner));
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), simtime::seconds(2));
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspend) {
  Simulation sim;
  int stage = 0;
  sim.spawn([](Simulation& s, int& st) -> Task<void> {
    st = 1;
    co_await s.delay(simtime::seconds(1));
    st = 2;
  }(sim, stage));
  EXPECT_EQ(stage, 1);  // ran inline until the delay
  sim.run();
  EXPECT_EQ(stage, 2);
}

TEST(Task, DelayUntilPastResumesImmediately) {
  Simulation sim;
  sim.run_until(simtime::seconds(5));
  bool done = false;
  sim.spawn([](Simulation& s, bool& d) -> Task<void> {
    co_await s.delay_until(simtime::seconds(1));  // already past
    d = true;
  }(sim, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), simtime::seconds(5));
}

TEST(Event, BroadcastWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Event& e, int& w) -> Task<void> {
      co_await e.wait();
      ++w;
    }(ev, woke));
  }
  sim.schedule_at(simtime::seconds(1), [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woke, 5);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  bool done = false;
  sim.spawn([](Event& e, bool& d) -> Task<void> {
    co_await e.wait();
    d = true;
  }(ev, done));
  EXPECT_TRUE(done);  // no suspension needed
}

// Waiters resume in the order they began to wait: the first from the
// inline slot, later ones from the spill vector.
TEST(Event, WakesWaitersInWaitOrder) {
  for (int n : {1, 2, 5}) {
    Simulation sim;
    Event ev(sim);
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      sim.spawn([](Event& e, std::vector<int>& out, int id) -> Task<void> {
        co_await e.wait();
        out.push_back(id);
      }(ev, order, i));
    }
    sim.schedule_at(simtime::seconds(1), [&] { ev.set(); });
    sim.run();
    std::vector<int> expected(static_cast<std::size_t>(n));
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << n << " waiters";
  }
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0, max_active = 0, completed = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, int& act, int& mx,
                 int& done) -> Task<void> {
      co_await sm.acquire();
      ++act;
      mx = std::max(mx, act);
      co_await s.delay(simtime::seconds(1));
      --act;
      ++done;
      sm.release();
    }(sim, sem, active, max_active, completed));
  }
  sim.run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(max_active, 2);
  // 6 jobs, 2 at a time, 1 s each -> 3 s.
  EXPECT_EQ(sim.now(), simtime::seconds(3));
}

TEST(Mailbox, FifoDelivery) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back(co_await m.recv());
  }(mb, got));
  sim.schedule_at(simtime::seconds(1), [&] {
    mb.push(10);
    mb.push(20);
    mb.push(30);
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, MultipleWaitersServedInOrder) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 3; ++w) {
    sim.spawn([](Mailbox<int>& m, std::vector<std::pair<int, int>>& out,
                 int waiter) -> Task<void> {
      const int v = co_await m.recv();
      out.emplace_back(waiter, v);
    }(mb, got, w));
  }
  sim.schedule_at(simtime::seconds(1), [&] {
    mb.push(100);
    mb.push(200);
    mb.push(300);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 300}));
}

TEST(WaitGroup, JoinsAllTasks) {
  Simulation sim;
  WaitGroup wg(sim);
  int done = 0;
  for (int i = 1; i <= 4; ++i) {
    wg.launch([](Simulation& s, int secs, int& d) -> Task<void> {
      co_await s.delay(simtime::seconds(secs));
      ++d;
    }(sim, i, done));
  }
  bool joined = false;
  sim.spawn([](WaitGroup& w, bool& j) -> Task<void> {
    co_await w.wait();
    j = true;
  }(wg, joined));
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.now(), simtime::seconds(4));
}

// The WaitGroup twin of Event.WakesWaitersInWaitOrder, over two rounds on
// one group: the list empties when it wakes, so the second round's first
// waiter takes the inline slot again and the rest reuse the spill.
TEST(WaitGroup, WakesWaitersInWaitOrder) {
  for (int n : {1, 2, 5}) {
    Simulation sim;
    WaitGroup wg(sim);
    std::vector<int> order;
    std::vector<int> expected;
    for (int round = 0; round < 2; ++round) {
      wg.launch([](Simulation& s) -> Task<void> {
        co_await s.delay(simtime::seconds(1));
      }(sim));
      for (int i = 0; i < n; ++i) {
        const int id = round * 10 + i;
        sim.spawn([](WaitGroup& w, std::vector<int>& out,
                     int me) -> Task<void> {
          co_await w.wait();
          out.push_back(me);
        }(wg, order, id));
        expected.push_back(id);
      }
      sim.run();
    }
    EXPECT_EQ(order, expected) << n << " waiters";
  }
}

TEST(WaitGroup, WaitOnEmptyGroupReturnsImmediately) {
  Simulation sim;
  WaitGroup wg(sim);
  bool joined = false;
  sim.spawn([](WaitGroup& w, bool& j) -> Task<void> {
    co_await w.wait();
    j = true;
  }(wg, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

}  // namespace
}  // namespace bs::sim

// Coroutine synchronization primitives over the simulation event queue:
// one-shot Event, counting Semaphore, typed Mailbox (actor inboxes), and
// WaitGroup for fork/join of actor fleets. All wakeups go through the event
// queue (never inline resumption) so execution order stays deterministic and
// reentrancy-free.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace bs::sim {

/// FIFO list of suspended coroutines, shared by Event and WaitGroup. The
/// first waiter sits inline and later ones spill to a vector, so the usual
/// single waiter (an RPC caller awaiting its call's settlement) costs no
/// allocation. wake_all() resumes in wait order.
class WaiterList {
 public:
  void push(std::coroutine_handle<> h) {
    if (!first_) {
      first_ = h;
    } else {
      rest_.push_back(h);
    }
  }

  /// Schedules every waiter's resumption, first come first, and empties
  /// the list (the spill keeps its capacity for a reused WaitGroup).
  void wake_all(Simulation& sim) {
    if (!first_) return;
    sim.schedule_resume(std::exchange(first_, {}));
    for (auto h : rest_) sim.schedule_resume(h);
    rest_.clear();
  }

 private:
  std::coroutine_handle<> first_;
  // A vector, not a deque: an empty vector owns no memory, while a deque
  // allocates a node and its map up front.
  std::vector<std::coroutine_handle<>> rest_;
};

/// One-shot broadcast event: set() wakes every current and future waiter.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    waiters_.wake_all(*sim_);
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) const {
        ev->waiters_.push(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool set_{false};
  WaiterList waiters_;
};

/// Counting semaphore with FIFO handoff (a release is given directly to the
/// longest-waiting acquirer, so no barging).
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::size_t initial)
      : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::size_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0 && sem->waiters_.empty()) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // The permit transfers directly to the woken waiter.
      sim_->schedule_resume(h);
    } else {
      ++count_;
    }
  }

 private:
  Simulation* sim_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII helper: `co_await sem.acquire();  SemGuard g(sem);`
class SemGuard {
 public:
  explicit SemGuard(Semaphore& sem) : sem_(&sem) {}
  SemGuard(const SemGuard&) = delete;
  SemGuard& operator=(const SemGuard&) = delete;
  // Guard against the teardown cascade: when ~Simulation destroys a frame
  // suspended with a guard live, the semaphore it points at was owned by a
  // service destroyed before the simulation.
  ~SemGuard() {
    if (!in_frame_teardown()) sem_->release();
  }

 private:
  Semaphore* sem_;
};

/// Unbounded typed FIFO queue with awaitable receive; items are handed
/// directly to waiting receivers in FIFO order.
template <class T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(&sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  void push(T item) {
    if (!waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      w.slot->emplace(std::move(item));
      sim_->schedule_resume(w.handle);
    } else {
      items_.push_back(std::move(item));
    }
  }

  auto recv() {
    struct Awaiter {
      Mailbox* mb;
      std::optional<T> slot;
      bool await_ready() {
        if (!mb->items_.empty() && mb->waiters_.empty()) {
          slot.emplace(std::move(mb->items_.front()));
          mb->items_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        mb->waiters_.push_back(Waiter{h, &slot});
      }
      T await_resume() {
        assert(slot.has_value());
        return std::move(*slot);
      }
    };
    return Awaiter{this, std::nullopt};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  Simulation* sim_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
};

/// Fork/join helper: launch N tasks, `co_await wg.wait()` for all of them.
/// Reusable: the count may touch zero between launches (tasks that complete
/// synchronously do this) without disturbing a later wait().
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(int n = 1) { count_ += n; }

  void done() {
    assert(count_ > 0);
    if (--count_ == 0) waiters_.wake_all(sim_);
  }

  /// Spawns `t`, tracking its completion in this group.
  void launch(Task<void> t) {
    add(1);
    sim_.spawn(wrap(std::move(t)));
  }

  auto wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        wg->waiters_.push(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  [[nodiscard]] int active() const { return count_; }

 private:
  Task<void> wrap(Task<void> inner) {
    co_await std::move(inner);
    done();
  }

  Simulation& sim_;
  int count_{0};
  WaiterList waiters_;
};

}  // namespace bs::sim

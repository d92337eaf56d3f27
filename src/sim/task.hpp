// Lazy coroutine task type for simulation actors. Tasks are single-owner,
// move-only, and resume their awaiter via symmetric transfer when they
// complete. The simulation is single-threaded, so no synchronization is
// needed — determinism comes from the event queue's total order.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.hpp"

namespace bs::sim {

template <class T>
class Task;

namespace detail {

/// Routes coroutine-frame storage through the size-bucketed FramePool so
/// steady-state actor/RPC spawning never touches malloc. Inherited by every
/// promise type of the simulation substrate.
struct PooledFrame {
  static void* operator new(std::size_t n) {
    return FramePool::instance().allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::instance().deallocate(p, n);
  }
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  // Simulation code reports failures through bs::Result; an escaped
  // exception is a programming error and must be loud.
  [[noreturn]] void unhandled_exception() const { std::terminate(); }
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept {
    assert(h_);
    return h_.done();
  }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    assert(h_.promise().value.has_value());
    return std::move(*h_.promise().value);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() const noexcept {}
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept {
    assert(h_);
    return h_.done();
  }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() const noexcept {}

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace bs::sim

// Deterministic discrete-event simulation kernel: one event queue, totally
// ordered by a global (time, insertion sequence) key; coroutine actors
// suspend on awaitables that schedule their resumption.
//
// Hot-path structure (see DESIGN.md "Event queue & memory model" and "One
// event queue and the far ladder"):
//  * Future events sit in a 4-ary implicit heap of 24-byte (time, seq,
//    slot) keys whose move-only callbacks live in a slot pool on the side;
//    events at the *current* time (coroutine wakeups through
//    schedule_resume(), zero-delay reschedules) bypass it through a
//    growable FIFO ring.
//  * A population-scale workload declares its expected queue size with
//    reserve(), which engages the far ladder: events beyond a moving bar
//    keep one 24-byte key in a far key array and reach execution through
//    sorted rungs cut from its front, instead of sifting through a
//    million-entry heap. Each event's 32-byte body is stored once, in its
//    far slot, from push until it runs.
//  * Cancellable timers (schedule_timer_in/cancel) sit in one indexed 4-ary
//    heap beside the queue, merged by the same (time, seq) key. Each slot
//    records its entry's heap position, so cancel() removes the entry and
//    destroys its callback at once: a settled RPC leaves nothing queued.
//  * Events carry an InlineCallback (small-buffer-optimized, move-only)
//    instead of a std::function, and coroutine frames come from the
//    size-bucketed FramePool, so steady-state scheduling is allocation-free.
//  * spawn() registers the detached root frame in an intrusive list;
//    ~Simulation destroys still-suspended actors through it (leak-free
//    teardown, LSan-clean), with bs::FrameTeardownScope silencing
//    frame-local RAII side effects during the cascade.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/teardown.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"

namespace bs::obs {
class TraceSink;
}

namespace bs::sim {

/// Move-only type-erased callable with inline storage for small targets.
/// Callables up to kInlineSize bytes (every hot-path callback the simulator
/// schedules, and in particular a bare coroutine_handle) are stored in
/// place; larger ones fall back to a single heap allocation.
class InlineCallback {
 public:
  /// The largest hot shape is the RPC timeout watcher, [this,
  /// shared_ptr<CallState>]: 24 bytes. Every pending event, heap slot, ring
  /// entry and timer slot holds one InlineCallback, so a larger buffer
  /// only costs memory; fits_inline() static_asserts at the hot call sites
  /// reject a smaller one.
  static constexpr std::size_t kInlineSize = 24;

  /// Whether D is stored in place (no allocation) — exposed so hot-path
  /// call sites can static_assert their callback types never silently
  /// degrade to the heap fallback.
  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineCallback() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      if (ops_) ops_->destroy(buf_);
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() {
    if (ops_) ops_->destroy(buf_);
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs *dst from *src and destroys *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};
// The 24-byte buffer and the ops pointer fill two 16-byte alignment units.
static_assert(sizeof(InlineCallback) == 32,
              "InlineCallback must stay 32 bytes: the RPC timeout watcher "
              "(24 bytes) is the largest hot shape");

/// Names a timer armed by Simulation::schedule_timer_in(). The generation
/// makes an id stale once its timer fires or is cancelled, even after the
/// slot is reused; a default id names no timer.
struct TimerId {
  std::uint32_t slot{0};
  std::uint32_t gen{0};  ///< live generations start at 1
};

class Simulation {
 public:
  using Callback = InlineCallback;

  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  void schedule_at(SimTime t, Callback cb);
  void schedule_in(SimDuration dt, Callback cb) {
    schedule_at(now() + dt, std::move(cb));
  }

  /// Fast path for waking a coroutine: never allocates (the 8-byte handle
  /// thunk always fits InlineCallback's inline storage), and a wakeup at
  /// the current time goes through the same-time ring, not the heap.
  void schedule_resume_at(SimTime t, std::coroutine_handle<> h) {
    schedule_at(t, ResumeThunk{h});
  }
  void schedule_resume_in(SimDuration dt, std::coroutine_handle<> h) {
    schedule_resume_at(now() + dt, h);
  }
  void schedule_resume(std::coroutine_handle<> h);

  /// Arms a cancellable timer that runs `cb` after `dt`. The timer takes
  /// its sequence number now, so one that is never cancelled runs at
  /// exactly the (time, seq) position schedule_in() would have given it.
  TimerId schedule_timer_in(SimDuration dt, Callback cb);

  /// Disarms a pending timer and destroys its callback before returning.
  /// Returns false when `id` names no pending timer: it already fired, was
  /// cancelled, or is a default id.
  bool cancel(TimerId id);

  /// Capacity declaration from the workload layer: the expected number of
  /// events queued at once. At or above kFarEngage it reserves that much
  /// far-pool storage and engages the far ladder (see Queue); below it, or
  /// never called, the queue stays the pure heap. A population-scale
  /// workload (LiteClientPool) declares its size before it floods the
  /// queue; RPC-style services never call it, because an engaged ladder
  /// cost them 10-20% end-to-end (pool sweeps evict the service working
  /// set). Tier placement never changes the (time, seq) execution order,
  /// so this may come at any time, before or after events are queued.
  void reserve(std::size_t pending);

  // Empty: perfbench/src/lite_population.cpp still calls it.
  void configure_sites(std::size_t, SimDuration = 0) {}

  // ------------------------------------------------------------- execution

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(SimTime t);

  /// Runs one event; returns false if the queue was empty.
  bool step() { return run_next(simtime::kInfinite); }

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Starts a coroutine actor (runs inline until its first suspension) and
  /// tracks its root frame: actors still suspended when the simulation is
  /// destroyed are destroyed with it.
  void spawn(Task<void> t) { root_entry(std::move(t)); }

  /// Live tracked actor roots (spawned, not yet completed).
  [[nodiscard]] std::size_t live_actors() const { return live_roots_; }

  /// Awaitable: suspend the current coroutine for `dt` of simulated time.
  auto delay(SimDuration dt) {
    struct Awaiter {
      Simulation* s;
      SimDuration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        s->schedule_resume_in(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspend until the given absolute simulated time. A time
  /// already past clamps to a zero-delay reschedule: the waiter re-enters
  /// the same-time FIFO ring at now() and resumes after everything already
  /// queued at the current instant (pinned by the FIFO regression tests).
  auto delay_until(SimTime t) {
    const SimTime n = now();
    return delay(t > n ? t - n : 0);
  }

  /// Installs this simulation's clock as the logger time source.
  void install_log_clock();

  /// Binds `sink` to this simulation's clock and installs it as the
  /// process-wide trace sink (a no-op install under BS_TRACE=OFF). Pair
  /// with detach_trace() — or use obs::ScopedTrace — when the simulation
  /// outlives the sink.
  void attach_trace(obs::TraceSink& sink);
  /// Uninstalls the process-wide trace sink.
  static void detach_trace();

 private:
  struct ResumeThunk {
    std::coroutine_handle<> h;
    void operator()() const { h.resume(); }
  };
  // Every coroutine wakeup goes through this thunk; it degrading to the
  // heap-fallback path would silently reintroduce an allocation per resume.
  static_assert(InlineCallback::fits_inline<ResumeThunk>(),
                "coroutine resume thunk must fit InlineCallback inline");

  // ------------------------------------------------------------ event queue

  static constexpr std::uint64_t kNoSeq = ~0ull;

  /// Heap key: 24 bytes, trivially movable. The callback body lives in
  /// q_.slots[slot]; sifting never touches it.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Same-time FIFO ring entry (time is implicitly now_).
  struct NowEvent {
    std::uint64_t seq;
    Callback cb;
  };

  /// The event queue. Four tiers, one (time, seq) order:
  ///  * ring  — FIFO of events at the current time (implicit time).
  ///  * stage — the current ladder rung: the span [stage_head, stage_end)
  ///            of the far key array, its prefix when refill cuts it, the
  ///            keys below far_bar sorted by (time, seq) and consumed by a
  ///            sequential cursor. A pop moves the body out of its far
  ///            slot, as heap_pop() does, and frees the slot. The rung's
  ///            slots are scattered over far_cbs, so each pop prefetches
  ///            the body kStagePrefetch keys ahead: without it, one cold
  ///            miss per pop made lite_population's wall time 1.33x
  ///            (alternating pairs on a 4-vCPU Xeon VM).
  ///  * heap  — 4-ary heap + slot pool: every future event while the
  ///            ladder is parked, and afterwards only the LATE insertions —
  ///            events scheduled after the rung was built whose time still
  ///            falls below far_bar. With the ladder engaged that is
  ///            usually a few percent of traffic, so the heap stays tiny
  ///            and cache-resident.
  ///  * far   — the unsorted keys around the rung, for everything at or
  ///            beyond far_bar; empty until reserve() engages the ladder.
  ///            A far push fills the consumed hole [far_front, stage_head)
  ///            before it appends. When the near tiers drain, a refill
  ///            closes what is left of the hole and cuts the half of the
  ///            keys with the earliest (time, seq) to the front with
  ///            nth_element, sorts them into the next rung and advances
  ///            far_bar. So the key array holds one key per far event plus
  ///            holes no push has needed, and never outgrows the peak far
  ///            population.
  /// Bodies live in far_cbs by slot, rung and pool alike. A slot is freed
  /// when its event runs and reused by the next far_push().
  /// Invariant: far_bar rises monotonically; every stage and heap entry was
  /// placed with time < far_bar and every far entry with time >= far_bar,
  /// so min(ring, stage front, heap root) is the true queue head whenever a
  /// near tier is non-empty.
  struct Queue {
    std::vector<HeapEntry> heap;  // 4-ary implicit heap
    std::vector<Callback> slots;  // heap callback bodies
    std::vector<std::uint32_t> free_slots;
    std::vector<NowEvent> ring;   // power-of-two capacity
    /// Far keys: [0, far_front) pooled, [far_front, stage_head) consumed,
    /// [stage_head, stage_end) the rung, [stage_end, size) pooled.
    std::vector<HeapEntry> far;
    std::vector<Callback> far_cbs;  // by far slot: pooled and staged bodies
    std::vector<std::uint32_t> free_far;
    std::size_t far_front{0};
    std::size_t stage_head{0};
    std::size_t stage_end{0};
    std::size_t ring_head{0};
    std::size_t ring_size{0};
    /// Near/far boundary. kInfinite means the ladder is parked (pool
    /// empty, everything routes to the heap); engage_far() lowers it once
    /// reserve() declares a large population, and afterwards it only rises.
    SimTime far_bar{simtime::kInfinite};
  };

  void heap_push(SimTime t, std::uint64_t seq, Callback cb);
  /// Pops the heap root; returns its callback (slot recycled).
  Callback heap_pop();
  /// 4-ary sifts shared by the event heap and the timer heap. `placed(e, i)`
  /// hears the final index of every entry the sift writes: the timer heap's
  /// position index; the event heap passes a no-op.
  template <class Placed>
  static void sift_up(std::vector<HeapEntry>& heap, std::size_t i,
                      Placed placed);
  template <class Placed>
  static void sift_down(std::vector<HeapEntry>& heap, std::size_t i,
                        Placed placed);

  void far_push(SimTime t, std::uint64_t seq, Callback cb);
  /// Pops the stage front; returns its callback (far slot recycled).
  Callback stage_pop();
  /// Closes the consumed hole, cuts the earliest half of the far keys into
  /// the stage rung with nth_element and advances far_bar to the first
  /// excluded key's time. Guarantees at least one event moves when the far
  /// pool is non-empty.
  void refill();
  /// How many rung keys ahead of the cursor stage_pop() prefetches a body.
  static constexpr std::size_t kStagePrefetch = 8;
  /// Declared load at or above which reserve() engages the far ladder.
  /// Below it the pure heap is both faster and far gentler on the
  /// workload's working set (no pool sweeps).
  static constexpr std::size_t kFarEngage = 16384;
  /// Engages the far ladder: lowers far_bar from kInfinite to just above
  /// every queued near key — the lowest bar that preserves "stage and heap
  /// keys < far_bar <= far keys" with the pool empty, so all traffic
  /// beyond it builds the ladder. Idempotent.
  void engage_far();

  /// Which near tier peek_near() found the queue minimum in.
  enum NearSource : int { kFromRing = 0, kFromHeap = 1, kFromStage = 2 };
  /// Far slots holding a body: the pooled events plus the rung's unrun ones.
  [[nodiscard]] std::size_t far_held() const {
    return q_.far_cbs.size() - q_.free_far.size();
  }
  /// Smallest (time, seq) key across the near tiers. Returns the owning
  /// tier, or -1 with (kInfinite, kNoSeq) when all are empty.
  int peek_near(SimTime* t, std::uint64_t* seq) const;
  /// Runs the next event if its time is <= `limit`; returns whether one ran.
  bool run_next(SimTime limit);

  void ring_push(std::uint64_t seq, Callback cb);
  Callback ring_pop();
  void ring_grow();

  // ----------------------------------------------------------------- timers

  /// A timer's body and bookkeeping. `pos` is its entry's index in
  /// timer_heap_, kept current by every sift; `gen` is what a TimerId must
  /// quote to name it, bumped whenever the slot is released.
  struct TimerSlot {
    Callback cb;
    std::uint32_t pos{0};
    std::uint32_t gen{1};
  };
  /// Sift hook that keeps TimerSlot::pos current.
  struct TimerPlaced {
    Simulation* sim;
    void operator()(const HeapEntry& e, std::size_t i) const {
      sim->timer_slots_[e.slot].pos = static_cast<std::uint32_t>(i);
    }
  };

  /// Pops and runs the timer root.
  void fire_timer();
  /// Frees a slot for reuse, staling every id that names it, and hands
  /// back the body. The caller still owns the heap entry.
  Callback release_timer(std::uint32_t slot);
  /// Removes timer_heap_[i], restoring heap order and position indexes.
  void erase_timer(std::size_t i);

  /// Drops every queued event without running it (teardown).
  void clear_queue() noexcept;

  // ---------------------------------------------------------- tracked roots

  /// Self-destroying detached root that registers itself with the owning
  /// simulation for the duration of the actor's life, so ~Simulation can
  /// destroy actors still suspended mid-flight.
  struct RootTask {
    struct promise_type : detail::PooledFrame {
      Simulation* sim{nullptr};
      promise_type* prev{nullptr};
      promise_type* next{nullptr};

      promise_type(Simulation& s, Task<void>&) : sim(&s) {
        next = sim->roots_;
        if (next != nullptr) next->prev = this;
        sim->roots_ = this;
        ++sim->live_roots_;
      }
      ~promise_type() {
        if (prev != nullptr) {
          prev->next = next;
        } else {
          sim->roots_ = next;
        }
        if (next != nullptr) next->prev = prev;
        --sim->live_roots_;
      }

      RootTask get_return_object() const noexcept { return {}; }
      std::suspend_never initial_suspend() const noexcept { return {}; }
      struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }
        void await_suspend(
            std::coroutine_handle<promise_type> h) const noexcept {
          h.destroy();  // unlinks via ~promise_type
        }
        void await_resume() const noexcept {}
      };
      FinalAwaiter final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      [[noreturn]] void unhandled_exception() const { std::terminate(); }
    };
  };

  RootTask root_entry(Task<void> t) { co_await std::move(t); }

  Queue q_;
  std::vector<HeapEntry> timer_heap_;  ///< 4-ary; slot indexes timer_slots_
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> free_timers_;
  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t processed_{0};
  bool stopped_{false};
  RootTask::promise_type* roots_{nullptr};
  std::size_t live_roots_{0};
};

}  // namespace bs::sim

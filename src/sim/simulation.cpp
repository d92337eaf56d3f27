#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace bs::sim {

namespace {
// Sift hook for the event heap, which keeps no position index.
constexpr auto kUnindexed = [](const auto&, std::size_t) {};
}  // namespace

// ---------------------------------------------------------------- event queue
//
// Every event gets a sequence number from one counter at schedule time; the
// heap, the stage rung and the far pool order by (time, seq), and the ring
// is FIFO (so seq-ordered) at time == now_. run_next() merges the near
// tiers and the timer root under the same key, which is exactly the pop
// order of one heap over all events, wherever each one was placed. The
// counter is 32 bits and renumbers the pending events when it reaches its
// ceiling (renumber_pending), which keeps that order.
//
// Clock invariant: now_ only advances when the minimal key sits in the
// heap, the stage or the timer heap strictly above now_ — at that moment
// the ring is empty (its entries carry now_), so ring entries never survive
// a clock advance and the ring's implicit time stays valid.

void Simulation::schedule_at(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule events in the past");
  const std::uint32_t seq = next_seq();
  if (t <= now_) {
    ring_push(seq, std::move(cb));
  } else if (t >= q_.far_bar) {
    // A parked ladder (far_bar == kInfinite) routes every future event to
    // the heap through this same comparison.
    far_push(t, seq, std::move(cb));
  } else {
    heap_push(t, seq, std::move(cb));
  }
}

void Simulation::schedule_resume(std::coroutine_handle<> h) {
  schedule_at(now_, Callback(ResumeThunk{h}));
}

void Simulation::reserve(std::size_t pending) {
  if (pending < kFarEngage) return;
  // Reserved up front: growing a million-entry callback array relocates
  // every body through its ops table at each doubling. Freed slots are
  // reused through the keys that name them, so neither array outgrows this
  // unless the far population itself does.
  q_.far.reserve(pending);
  q_.far_cbs.reserve(pending);
  engage_far();
}

void Simulation::engage_far() {
  if (q_.far_bar != simtime::kInfinite) return;
  assert(far_held() == 0 && "parked ladder with a non-empty far pool");
  SimTime mx = 0;
  for (const HeapEntry& e : q_.heap) mx = std::max(mx, e.time);
  if (q_.stage_head != q_.stage_end) {
    mx = std::max(mx, q_.far[q_.stage_end - 1].time);
  }
  q_.far_bar = mx < simtime::kInfinite - 1 ? mx + 1 : simtime::kInfinite;
}

void Simulation::far_push(SimTime t, std::uint32_t seq, Callback cb) {
  Queue& q = q_;
  std::size_t at;
  std::uint32_t slot;
  if (q.far_front != q.stage_head) {
    // Fill the hole the rung consumed below stage_head from its front, with
    // the slot the latest pop freed; that key takes the front's free slot.
    at = q.far_front++;
    HeapEntry& latest = q.far[q.stage_head - 1];
    slot = latest.slot;
    latest.slot = q.far[at].slot;
  } else if (q.far_end != q.far.size()) {
    at = q.far_end++;  // a spare refill parked
    slot = q.far[at].slot;
  } else {
    slot = static_cast<std::uint32_t>(q.far_cbs.size());
    q.far.push_back(HeapEntry{t, seq, slot});
    q.far_cbs.push_back(std::move(cb));
    ++q.far_end;
    return;
  }
  q.far[at] = HeapEntry{t, seq, slot};
  q.far_cbs[slot] = std::move(cb);
}

Simulation::Callback Simulation::stage_pop() {
  const std::size_t ahead = q_.stage_head + kStagePrefetch;
  if (ahead < q_.stage_end) {
    __builtin_prefetch(&q_.far_cbs[q_.far[ahead].slot]);
  }
  return std::move(q_.far_cbs[q_.far[q_.stage_head++].slot]);
}

void Simulation::refill() {
  Queue& q = q_;
  assert(q.stage_head == q.stage_end && "refill under a live stage");
  assert(far_held() != 0 && "refill on an empty far pool");
  assert(q.far_cbs.size() <= 0xffffffffu &&
         "far pool exceeds 32-bit indexing");
  // Park the hole the last rung left, [far_front, stage_end), after the
  // pooled keys [stage_end, far_end) as spares: reversing the span moves
  // the pooled keys to its front and puts the latest pop's key first among
  // the spares.
  const auto first = q.far.begin();
  std::reverse(first + static_cast<std::ptrdiff_t>(q.far_front),
               first + static_cast<std::ptrdiff_t>(q.far_end));
  q.far_end -= q.stage_end - q.far_front;
  // Cut an exactly half-pool-sized rung with nth_element, in place: the
  // first excluded key is both the new bar and the exact minimum of the
  // survivors, so there is no span heuristic to mistune and no second scan.
  // Rung size scaling with the pool keeps the total scan work per drained
  // event O(1): a pool of P is rescanned ~log P times in geometrically
  // shrinking halves.
  const std::size_t live = q.far_end;
  const std::size_t target = std::max<std::size_t>(4096, live / 2);
  std::size_t rung = live;
  SimTime bar = 0;  // sentinel: stage-all, patched to max+1 below
  if (live > target) {
    const auto mid = first + static_cast<std::ptrdiff_t>(target);
    std::nth_element(
        first, mid, first + static_cast<std::ptrdiff_t>(live),
        [](const HeapEntry& a, const HeapEntry& b) { return earlier(a, b); });
    bar = mid->time;
    rung = target;
  }
  std::sort(
      first, first + static_cast<std::ptrdiff_t>(rung),
      [](const HeapEntry& a, const HeapEntry& b) { return earlier(a, b); });
  q.far_front = 0;
  q.stage_head = 0;
  q.stage_end = rung;
  if (bar == 0) {
    // The whole pool was staged; any bar above the rung maximum is correct,
    // and max+1 is the lowest such bar, which steers near-future pushes to
    // the cache-resident heap while the far traffic is this light.
    const SimTime tmax = q.far[rung - 1].time;
    bar = tmax < simtime::kInfinite - 1 ? tmax + 1 : simtime::kInfinite;
  }
  q.far_bar = bar;
}

void Simulation::heap_push(SimTime t, std::uint32_t seq, Callback cb) {
  // The most recently freed slot first, or a new one.
  std::uint32_t slot;
  if (q_.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(q_.slots.size());
    q_.slots.push_back(std::move(cb));
  } else {
    slot = q_.free_slots.back();
    q_.free_slots.pop_back();
    q_.slots[slot] = std::move(cb);
  }
  q_.heap.push_back(HeapEntry{t, seq, slot});
  sift_up(q_.heap, q_.heap.size() - 1, kUnindexed);
}

Simulation::Callback Simulation::heap_pop() {
  const HeapEntry top = q_.heap.front();
  q_.heap.front() = q_.heap.back();
  q_.heap.pop_back();
  if (!q_.heap.empty()) sift_down(q_.heap, 0, kUnindexed);
  Callback cb = std::move(q_.slots[top.slot]);
  q_.free_slots.push_back(top.slot);
  return cb;
}

template <class Placed>
void Simulation::sift_up(std::vector<HeapEntry>& heap, std::size_t i,
                         Placed placed) {
  const HeapEntry e = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap[parent])) break;
    heap[i] = heap[parent];
    placed(heap[i], i);
    i = parent;
  }
  heap[i] = e;
  placed(e, i);
}

template <class Placed>
void Simulation::sift_down(std::vector<HeapEntry>& heap, std::size_t i,
                           Placed placed) {
  const std::size_t n = heap.size();
  const HeapEntry e = heap[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap[c], heap[best])) best = c;
    }
    if (!earlier(heap[best], e)) break;
    heap[i] = heap[best];
    placed(heap[i], i);
    i = best;
  }
  heap[i] = e;
  placed(e, i);
}

// ---------------------------------------------------------------------- timers
//
// A timer is an event that can be taken back. It draws its seq from the
// shared counter when armed, and run_next() merges the timer root against
// the queue head by (time, seq) — so a timer that fires runs exactly where
// a schedule_in() event would have, and one that is cancelled leaves the
// rest of the order untouched.

TimerId Simulation::schedule_timer_in(SimDuration dt, Callback cb) {
  assert(dt >= 0 && "cannot arm timers in the past");
  std::uint32_t slot;
  if (!free_timers_.empty()) {
    slot = free_timers_.back();
    free_timers_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.emplace_back();
  }
  TimerSlot& s = timer_slots_[slot];
  s.cb = std::move(cb);
  timer_heap_.push_back(HeapEntry{now_ + dt, next_seq(), slot});
  sift_up(timer_heap_, timer_heap_.size() - 1, TimerPlaced{this});
  return TimerId{slot, s.gen};
}

bool Simulation::cancel(TimerId id) {
  if (id.slot >= timer_slots_.size() || timer_slots_[id.slot].gen != id.gen) {
    return false;
  }
  const std::size_t pos = timer_slots_[id.slot].pos;
  // The body dies on return, after the heap is consistent again.
  const Callback doomed = release_timer(id.slot);
  erase_timer(pos);
  return true;
}

Simulation::Callback Simulation::release_timer(std::uint32_t slot) {
  TimerSlot& s = timer_slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // 0 is reserved for the default TimerId
  free_timers_.push_back(slot);
  return std::move(s.cb);
}

void Simulation::erase_timer(std::size_t i) {
  const HeapEntry last = timer_heap_.back();
  timer_heap_.pop_back();
  if (i == timer_heap_.size()) return;
  timer_heap_[i] = last;
  if (i > 0 && earlier(last, timer_heap_[(i - 1) / 4])) {
    sift_up(timer_heap_, i, TimerPlaced{this});
  } else {
    sift_down(timer_heap_, i, TimerPlaced{this});
  }
}

void Simulation::fire_timer() {
  const HeapEntry top = timer_heap_.front();
  // Released before it runs: a cancel() of its own id, from the body or
  // after it, finds the timer gone.
  Callback cb = release_timer(top.slot);
  erase_timer(0);
  assert(top.time >= now_);
  now_ = top.time;
  ++processed_;
  cb();
}

void Simulation::ring_push(std::uint32_t seq, Callback cb) {
  if (q_.ring_size == q_.ring.size()) ring_grow();
  const std::size_t tail =
      (q_.ring_head + q_.ring_size) & (q_.ring.size() - 1);
  q_.ring[tail] = NowEvent{seq, std::move(cb)};
  ++q_.ring_size;
}

Simulation::Callback Simulation::ring_pop() {
  NowEvent& e = q_.ring[q_.ring_head];
  Callback cb = std::move(e.cb);
  q_.ring_head = (q_.ring_head + 1) & (q_.ring.size() - 1);
  --q_.ring_size;
  return cb;
}

void Simulation::ring_grow() {
  const std::size_t cap = q_.ring.empty() ? 64 : q_.ring.size() * 2;
  std::vector<NowEvent> grown(cap);
  for (std::size_t i = 0; i < q_.ring_size; ++i) {
    grown[i] = std::move(q_.ring[(q_.ring_head + i) & (q_.ring.size() - 1)]);
  }
  q_.ring = std::move(grown);
  q_.ring_head = 0;
}

int Simulation::peek_near(SimTime* t, std::uint32_t* seq) const {
  int src = -1;
  SimTime bt = simtime::kInfinite;
  std::uint32_t bs = kNoSeq;
  if (q_.ring_size != 0) {
    bt = now_;  // ring entries carry the current time implicitly
    bs = q_.ring[q_.ring_head].seq;
    src = kFromRing;
  }
  if (!q_.heap.empty()) {
    const HeapEntry& root = q_.heap.front();
    if (root.time < bt || (root.time == bt && root.seq < bs)) {
      bt = root.time;
      bs = root.seq;
      src = kFromHeap;
    }
  }
  if (q_.stage_head != q_.stage_end) {
    const HeapEntry& front = q_.far[q_.stage_head];
    if (front.time < bt || (front.time == bt && front.seq < bs)) {
      bt = front.time;
      bs = front.seq;
      src = kFromStage;
    }
  }
  *t = bt;
  *seq = bs;
  return src;
}

bool Simulation::run_next(SimTime limit) {
  SimTime pt;
  std::uint32_t ps;
  int src = peek_near(&pt, &ps);
  // The near minimum is the queue head only while a near tier is occupied;
  // an empty near side pulls the next far rung in first.
  if (src < 0 && far_held() != 0) {
    refill();
    src = peek_near(&pt, &ps);
  }
  // An empty near side peeks as (kInfinite, kNoSeq), which any timer
  // precedes.
  if (!timer_heap_.empty() && earlier(timer_heap_.front(), {pt, ps, 0})) {
    if (timer_heap_.front().time > limit) return false;
    fire_timer();
    return true;
  }
  if (src < 0 || pt > limit) return false;
  assert(pt >= now_);
  now_ = pt;
  ++processed_;
  Callback cb = src == kFromRing  ? ring_pop()
                : src == kFromHeap ? heap_pop()
                                   : stage_pop();
  cb();
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && run_next(t)) {
  }
  if (!stopped_ && now_ < t) now_ = t;
}

std::size_t Simulation::pending() const {
  return timer_heap_.size() + q_.heap.size() + q_.ring_size + far_held();
}

void Simulation::renumber_pending() {
  // Visits the sequence number of every pending event with its time: the
  // ring's (at now_), the heap's, the pooled and rung far keys and the
  // timers'. Consumed and spare far keys name free slots; no one reads
  // their seq.
  const auto each = [this](auto&& f) {
    Queue& q = q_;
    for (std::size_t i = 0; i < q.ring_size; ++i) {
      f(now_, q.ring[(q.ring_head + i) & (q.ring.size() - 1)].seq);
    }
    for (HeapEntry& e : q.heap) f(e.time, e.seq);
    for (std::size_t i = 0; i < q.far_front; ++i) {
      f(q.far[i].time, q.far[i].seq);
    }
    for (std::size_t i = q.stage_head; i < q.far_end; ++i) {
      f(q.far[i].time, q.far[i].seq);
    }
    for (HeapEntry& e : timer_heap_) f(e.time, e.seq);
  };
  std::vector<HeapEntry> keys;
  keys.reserve(pending());
  each([&keys](SimTime t, std::uint32_t seq) {
    keys.push_back(HeapEntry{t, seq, 0});
  });
  assert(keys.size() < kNoSeq && "more pending events than sequence numbers");
  std::sort(keys.begin(), keys.end(), earlier);
  // A key's rank among the pending keys is its new seq. Ranks keep every
  // pairwise (time, seq) comparison, so the heaps, the sorted rung and the
  // FIFO ring stay as they are.
  each([&keys](SimTime t, std::uint32_t& seq) {
    seq = static_cast<std::uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), HeapEntry{t, seq, 0},
                         earlier) -
        keys.begin());
  });
  seq_ = static_cast<std::uint32_t>(keys.size());
}

// ------------------------------------------------------------------- teardown

void Simulation::clear_queue() noexcept {
  q_.heap.clear();
  q_.slots.clear();
  q_.free_slots.clear();
  q_.far.clear();
  q_.far_cbs.clear();  // pooled and staged bodies alike
  q_.far_front = 0;
  q_.stage_head = 0;
  q_.stage_end = 0;
  q_.far_end = 0;
  while (q_.ring_size != 0) ring_pop();
  q_.far_bar = simtime::kInfinite;  // parked
  // Timer slots are released, not dropped, so their generations keep
  // rising and an id that outlives the clear can never name a later timer.
  // The heap is swapped out first: a dying body may arm a new timer.
  std::vector<HeapEntry> timers;
  timers.swap(timer_heap_);
  for (const HeapEntry& e : timers) release_timer(e.slot);
}

Simulation::~Simulation() {
  // Queued events hold resume handles into frames the roots own; drop them
  // first so nothing dangles, then destroy the still-suspended actor roots
  // (each cascades through the Task chain it owns). Frame-local RAII
  // destructors are silenced for the cascade: the services they would
  // notify were constructed after this simulation and are already gone.
  clear_queue();
  if (roots_ != nullptr) {
    FrameTeardownScope teardown;
    while (roots_ != nullptr) {
      std::coroutine_handle<RootTask::promise_type>::from_promise(*roots_)
          .destroy();
    }
    // Destroying a frame can run code that schedules; drop any stragglers.
    clear_queue();
  }
}

// ---------------------------------------------------------------- integration

void Simulation::install_log_clock() {
  Logger::instance().set_time_source([this] { return now(); });
}

void Simulation::attach_trace(obs::TraceSink& sink) {
  sink.set_clock([this] { return now(); });
  obs::set_sink(&sink);
}

void Simulation::detach_trace() { obs::set_sink(nullptr); }

}  // namespace bs::sim

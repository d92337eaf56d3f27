#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace bs::sim {

// ---------------------------------------------------------------- event queue
//
// Lanes share one total order. Every event gets a sequence number from the
// shared counter at schedule time; each lane's heap orders by (time, seq)
// and its ring is FIFO (so seq-ordered) at time == now_. step() first picks
// the lane whose cached head is the globally smallest (time, seq) key, then
// merges that lane's heap root against its ring head under the same key —
// which reproduces exactly the pop order of one single heap over all
// events, independent of how they were sharded.
//
// Clock invariant: now_ only advances when the globally minimal key sits in
// a heap strictly above now_ — at that moment every ring in every lane is
// empty (a non-empty ring pins its lane's cached head at now_), so ring
// entries never survive a clock advance and the ring's implicit time stays
// valid.

Simulation::Simulation() : lanes_(1), heads_(1) {}

void Simulation::schedule_at(SimTime t, Callback cb) {
  push_event(exec_lane_, t, std::move(cb));
}

void Simulation::schedule_resume(std::coroutine_handle<> h) {
  push_event(exec_lane_, now_, Callback(ResumeThunk{h}));
}

void Simulation::configure_sites(std::size_t sites, SimDuration) {
  if (lanes_.size() != 1) {
    // A second cluster on the same simulation must agree on the shard count.
    assert(lanes_.size() == sites + 1 && "conflicting site-lane configuration");
    return;
  }
  lanes_.resize(sites + 1);
  heads_.resize(sites + 1);
  if (lane_load_hint_ >= kFarEngage) {
    for (Lane& ln : lanes_) engage_far(ln);
  }
}

void Simulation::hint_lane_load(std::size_t expected_pending_per_lane) {
  lane_load_hint_ = expected_pending_per_lane;
  if (lanes_.size() > 1 && lane_load_hint_ >= kFarEngage) {
    for (Lane& ln : lanes_) engage_far(ln);
  }
}

void Simulation::schedule_on_site(std::size_t site, SimTime t, Callback cb) {
  const std::size_t lane = site_lane(site);
  if (lane != exec_lane_) ++cross_site_handoffs_;
  push_event(lane, t, std::move(cb));
}

void Simulation::push_event(std::size_t lane, SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule events in the past");
  const std::uint64_t seq = seq_++;
  Lane& ln = lanes_[lane];
  if (t <= now_) {
    ring_push(ln, now_, seq, std::move(cb));
    sync_head(lane);
    return;
  }
  // Sharded mode stages events beyond the near horizon in the far pool;
  // the single-lane oracle keeps the pure one-heap kernel. A parked ladder
  // (far_bar == kInfinite) routes everything to the heap through the same
  // comparison.
  if (lanes_.size() > 1 && t >= ln.far_bar) {
    far_push(ln, t, seq, std::move(cb));
    sync_head(lane);
    return;
  }
  heap_push(ln, t, seq, std::move(cb));
  sync_head(lane);
}

void Simulation::engage_far(Lane& ln) {
  if (ln.far_bar != simtime::kInfinite) return;
  assert(far_live(ln) == 0 && "parked ladder with a non-empty far pool");
  SimTime mx = 0;
  for (const HeapEntry& e : ln.heap) mx = std::max(mx, e.time);
  if (ln.stage_head != ln.stage.size()) {
    mx = std::max(mx, ln.stage.back().time);
  }
  ln.far_bar = mx < simtime::kInfinite - 1 ? mx + 1 : simtime::kInfinite;
}

void Simulation::far_push(Lane& ln, SimTime t, std::uint64_t seq,
                          Callback cb) {
  ln.far_keys.push_back(FarKey{t, seq});
  ln.far_cbs.push_back(std::move(cb));
  // Cheap head maintenance: a no-op while the near tiers are occupied
  // (their keys are < far_bar <= t), and the true far minimum once the
  // lane is otherwise empty.
  maybe_raise_head(ln, t, seq);
}

void Simulation::refill(Lane& ln) {
  assert(ln.stage_head == ln.stage.size() && "refill under a live stage");
  assert(far_live(ln) != 0 && "refill on an empty far pool");
  // Amortized compaction, at rung boundaries only: the consumed stage held
  // slot references into the pool, so the arrays may move exactly now, when
  // no rung is live. Rewriting both arrays only once half the pool is
  // tombstones keeps the per-event move count O(1).
  if (ln.far_dead * 2 > ln.far_keys.size()) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < ln.far_keys.size(); ++r) {
      if (ln.far_keys[r].seq == kNoSeq) continue;
      if (w != r) {
        ln.far_keys[w] = ln.far_keys[r];
        ln.far_cbs[w] = std::move(ln.far_cbs[r]);
      }
      ++w;
    }
    ln.far_keys.resize(w);
    ln.far_cbs.resize(w);
    ln.far_dead = 0;
  }
  assert(ln.far_keys.size() <= 0xffffffffu &&
         "far pool exceeds 32-bit indexing");
  // Build the next ladder rung from 24-byte (time, seq, index) keys — not
  // the 72-byte entries. Gather every live key once, then cut an exactly
  // half-pool-sized rung with nth_element: the first excluded key is both
  // the new bar and the exact minimum of the survivors, so there is no span
  // heuristic to mistune and no second scan. Rung size scaling with the
  // pool keeps the total scan work per drained event O(1): a pool of P is
  // rescanned ~log P times in geometrically shrinking halves.
  ln.stage_keys.clear();
  for (std::size_t i = 0; i < ln.far_keys.size(); ++i) {
    const FarKey& k = ln.far_keys[i];
    if (k.seq != kNoSeq) {
      ln.stage_keys.push_back(
          HeapEntry{k.time, k.seq, static_cast<std::uint32_t>(i)});
    }
  }
  const std::size_t live = ln.stage_keys.size();
  const std::size_t target = std::max<std::size_t>(4096, live / 2);
  SimTime bar = 0;  // sentinel: stage-all, patched to max+1 below
  if (live > target) {
    const auto mid =
        ln.stage_keys.begin() + static_cast<std::ptrdiff_t>(target);
    std::nth_element(
        ln.stage_keys.begin(), mid, ln.stage_keys.end(),
        [](const HeapEntry& a, const HeapEntry& b) { return earlier(a, b); });
    bar = mid->time;
    ln.stage_keys.resize(target);
  }
  std::sort(
      ln.stage_keys.begin(), ln.stage_keys.end(),
      [](const HeapEntry& a, const HeapEntry& b) { return earlier(a, b); });
  // Reuse the stage storage: move-assigning over a consumed husk destroys
  // it on the same cache line the new entry is about to occupy, so the
  // teardown of the previous rung rides the gather's own write misses
  // instead of a separate clear() pass over cold memory.
  ln.stage.resize(ln.stage_keys.size());
  ln.stage_head = 0;
  for (std::size_t i = 0; i < ln.stage_keys.size(); ++i) {
    const HeapEntry& k = ln.stage_keys[i];
    ln.stage[i] = FarEntry{k.time, k.seq, std::move(ln.far_cbs[k.slot])};
    ln.far_keys[k.slot] = FarKey{simtime::kInfinite, kNoSeq};
  }
  ln.far_dead += ln.stage.size();
  if (bar == 0) {
    // The whole pool was staged; any bar above the rung maximum is correct,
    // and max+1 is the lowest such bar, which steers near-future pushes to
    // the cache-resident heap while the lane's far traffic is this light.
    const SimTime tmax = ln.stage_keys.back().time;
    bar = tmax < simtime::kInfinite - 1 ? tmax + 1 : simtime::kInfinite;
  }
  ln.far_bar = bar;
}

void Simulation::heap_push(Lane& ln, SimTime t, std::uint64_t seq,
                           Callback cb) {
  std::uint32_t slot;
  if (!ln.free_slots.empty()) {
    slot = ln.free_slots.back();
    ln.free_slots.pop_back();
    ln.slots[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(ln.slots.size());
    ln.slots.push_back(std::move(cb));
  }
  ln.heap.push_back(HeapEntry{t, seq, slot});
  sift_up(ln, ln.heap.size() - 1);
  maybe_raise_head(ln, t, seq);
}

Simulation::Callback Simulation::heap_pop(Lane& ln, SimTime* t) {
  const HeapEntry top = ln.heap.front();
  ln.heap.front() = ln.heap.back();
  ln.heap.pop_back();
  if (!ln.heap.empty()) sift_down(ln, 0);
  *t = top.time;
  Callback cb = std::move(ln.slots[top.slot]);
  ln.free_slots.push_back(top.slot);
  return cb;
}

void Simulation::sift_up(Lane& ln, std::size_t i) {
  const HeapEntry e = ln.heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, ln.heap[parent])) break;
    ln.heap[i] = ln.heap[parent];
    i = parent;
  }
  ln.heap[i] = e;
}

void Simulation::sift_down(Lane& ln, std::size_t i) {
  const std::size_t n = ln.heap.size();
  const HeapEntry e = ln.heap[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(ln.heap[c], ln.heap[best])) best = c;
    }
    if (!earlier(ln.heap[best], e)) break;
    ln.heap[i] = ln.heap[best];
    i = best;
  }
  ln.heap[i] = e;
}

void Simulation::ring_push(Lane& ln, SimTime at, std::uint64_t seq,
                           Callback cb) {
  if (ln.ring_size == ln.ring.size()) ring_grow(ln);
  const std::size_t tail = (ln.ring_head + ln.ring_size) & (ln.ring.size() - 1);
  ln.ring[tail] = NowEvent{seq, std::move(cb)};
  ++ln.ring_size;
  maybe_raise_head(ln, at, seq);
}

Simulation::Callback Simulation::ring_pop(Lane& ln) {
  NowEvent& e = ln.ring[ln.ring_head];
  Callback cb = std::move(e.cb);
  ln.ring_head = (ln.ring_head + 1) & (ln.ring.size() - 1);
  --ln.ring_size;
  return cb;
}

void Simulation::ring_grow(Lane& ln) {
  const std::size_t cap = ln.ring.empty() ? 64 : ln.ring.size() * 2;
  std::vector<NowEvent> grown(cap);
  for (std::size_t i = 0; i < ln.ring_size; ++i) {
    grown[i] = std::move(ln.ring[(ln.ring_head + i) & (ln.ring.size() - 1)]);
  }
  ln.ring = std::move(grown);
  ln.ring_head = 0;
}

int Simulation::peek_near(const Lane& ln, SimTime at, SimTime* t,
                          std::uint64_t* seq) {
  int src = -1;
  SimTime bt = simtime::kInfinite;
  std::uint64_t bs = kNoSeq;
  if (ln.ring_size != 0) {
    bt = at;
    bs = ring_front_seq(ln);
    src = kFromRing;
  }
  if (!ln.heap.empty()) {
    const HeapEntry& root = ln.heap.front();
    if (root.time < bt || (root.time == bt && root.seq < bs)) {
      bt = root.time;
      bs = root.seq;
      src = kFromHeap;
    }
  }
  if (ln.stage_head != ln.stage.size()) {
    const FarEntry& front = ln.stage[ln.stage_head];
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

void Simulation::recompute_head(std::size_t lane, SimTime at) {
  Lane& ln = lanes_[lane];
  // The cached head is min over the near tiers; that is only the true lane
  // minimum while one of them is occupied, so an empty near side pulls the
  // next far rung in first.
  if (near_empty(ln) && far_live(ln) != 0) refill(ln);
  SimTime t;
  std::uint64_t s;
  if (peek_near(ln, at, &t, &s) < 0) {
    t = simtime::kInfinite;
    s = kNoSeq;
  }
  ln.head_time = t;
  ln.head_seq = s;
  heads_[lane] = HeadKey{t, s};
}

std::size_t Simulation::best_lane() const {
  std::size_t best = lanes_.size();
  SimTime bt = simtime::kInfinite;
  std::uint64_t bs = kNoSeq;
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i].time < bt ||
        (heads_[i].time == bt && heads_[i].seq < bs)) {
      bt = heads_[i].time;
      bs = heads_[i].seq;
      best = i;
    }
  }
  return best;
}

bool Simulation::step() {
  // Single-lane deployments keep the PR-5 hot path: no head scan at all.
  std::size_t bi = 0;
  if (lanes_.size() > 1) {
    bi = best_lane();
    if (bi == lanes_.size()) return false;
  }
  Lane& ln = lanes_[bi];
  // A lane whose cached head points into the far pool (near tiers empty)
  // must be refilled before the merge below can see the event.
  if (near_empty(ln)) {
    if (far_live(ln) == 0) return false;
    refill(ln);
  }
  // Three-way merge on (time, seq): ring entries all carry time == now_,
  // stage and heap carry their own keys.
  SimTime pt;
  std::uint64_t ps;
  const int src = peek_near(ln, now_, &pt, &ps);
  assert(src >= 0);
  const std::size_t prev_lane = exec_lane_;
  if (src == kFromStage) {
    // Stage events run in place: only refill() mutates the stage, and it
    // cannot run under a live rung, so the entry is stable for the whole
    // callback — no move-out, no per-event husk teardown (the rung is
    // destroyed wholesale at the next refill). The head cache refresh
    // happens after the callback; nothing reads it mid-event, and pushes
    // from the callback only lower it monotonically.
    FarEntry& e = ln.stage[ln.stage_head];
    ++ln.stage_head;
    assert(e.time >= now_);
    now_ = e.time;
    exec_lane_ = bi;
    ++processed_;
    e.cb();
  } else {
    SimTime t = now_;  // ring entries carry the current time implicitly
    Callback cb = src == kFromRing ? ring_pop(ln) : heap_pop(ln, &t);
    assert(t >= now_);
    now_ = t;
    exec_lane_ = bi;
    ++processed_;
    cb();
  }
  recompute_head(bi, now_);
  exec_lane_ = prev_lane;
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime t) {
  stopped_ = false;
  if (lanes_.size() == 1) {
    // Single-lane fast path, identical to the PR-5 loop.
    Lane& ln = lanes_[0];
    while (!stopped_) {
      if (ln.ring_size != 0) {
        if (now_ > t) break;
      } else if (ln.heap.empty() || ln.heap.front().time > t) {
        break;
      }
      step();
    }
  } else {
    while (!stopped_) {
      const std::size_t bi = best_lane();
      // A non-empty ring pins its lane's cached head at the now_ it was
      // pushed at, so "next event time" is just the winning cached head.
      if (bi == lanes_.size() || lanes_[bi].head_time > t) break;
      step();
    }
  }
  if (!stopped_ && now_ < t) now_ = t;
}

std::size_t Simulation::pending() const {
  std::size_t n = 0;
  for (const Lane& ln : lanes_) {
    n += ln.heap.size() + ln.ring_size + far_live(ln) +
         (ln.stage.size() - ln.stage_head);
  }
  return n;
}

// ------------------------------------------------------------------- teardown

void Simulation::clear_queue() noexcept {
  for (Lane& ln : lanes_) {
    ln.heap.clear();
    ln.slots.clear();
    ln.free_slots.clear();
    ln.far_keys.clear();
    ln.far_cbs.clear();
    ln.far_dead = 0;
    ln.stage.clear();
    ln.stage_keys.clear();
    ln.stage_head = 0;
    while (ln.ring_size != 0) ring_pop(ln);
    ln.far_bar = simtime::kInfinite;  // parked
    ln.head_time = simtime::kInfinite;
    ln.head_seq = kNoSeq;
  }
  for (HeadKey& h : heads_) h = HeadKey{};
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

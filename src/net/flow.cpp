#include "net/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/env.hpp"

namespace bs::net {

namespace {
// A flow is complete when less than this many bytes remain; absorbs the
// sub-byte residue left by rounding completion times to whole nanoseconds.
constexpr double kCompleteEps = 0.75;

// ETAs beyond this many nanoseconds (~285 simulated years) are treated as
// "never": no completion event is scheduled until the flow's rate changes.
// Keeps the double -> SimDuration conversion away from overflow.
constexpr double kMaxEtaNanos = 9.0e18;

bool id_less(const detail::Flow* a, const detail::Flow* b) {
  return a->id < b->id;
}
}  // namespace

FlowScheduler::Options FlowScheduler::Options::from_env() {
  Options o;
  // Index 0 is the default; every other accepted value names the reference.
  if (const auto v = env_choice("BS_FLOW_SCHED",
                                {"incremental", "reference", "global", "0"})) {
    o.incremental = *v == 0;
  }
  return o;
}

FlowScheduler::~FlowScheduler() = default;

Resource* FlowScheduler::create_resource(std::string name,
                                         double capacity_bps) {
  assert(capacity_bps > 0);
  resources_.push_back(
      std::make_unique<Resource>(std::move(name), capacity_bps));
  resources_.back()->sched_ = this;
  return resources_.back().get();
}

void FlowScheduler::set_capacity(Resource* r, double capacity_bps) {
  assert(capacity_bps > 0);
  if (r->capacity_ == capacity_bps) return;
  if (r->flow_count_ == 0) {
    // Idle resource: no rates depend on it, the new capacity simply applies
    // to whatever arrives next.
    r->capacity_ = capacity_bps;
    return;
  }
  scratch_flows_.clear();
  scratch_resources_.clear();
  collect_component(r->flows_head_->flow, ++mark_epoch_, scratch_flows_,
                    scratch_resources_);
  r->capacity_ = capacity_bps;
  if (opts_.incremental) {
    refill_and_reschedule(scratch_flows_, scratch_resources_);
    compact_eta_heap();
    arm_wakeup();
  } else {
    recompute_rates_global();
    schedule_next_completion();
  }
}

double Resource::bytes_served() const {
  if (sched_ != nullptr) sched_->settle_resource(const_cast<Resource*>(this));
  return bytes_served_;
}

// bslint: allow(perf-large-byvalue): tiny pointer list; every caller moves
sim::Task<void> FlowScheduler::transfer(double bytes,
                                        std::vector<Resource*> resources) {
  if (bytes <= 0 || resources.empty()) co_return;
  const std::uint64_t id = next_flow_id_++;
  auto flow = std::make_unique<Flow>(sim_, id, bytes);
  Flow* f = flow.get();
  f->last_settle = sim_.now();
  // A repeated resource must not count twice towards shares (paths are
  // short, so the quadratic dedup is cheaper than sorting).
  f->links.reserve(resources.size());
  for (auto* r : resources) {
    const bool seen = std::any_of(
        f->links.begin(), f->links.end(),
        [r](const FlowLink& l) { return l.resource == r; });
    if (!seen) f->links.push_back(FlowLink{f, r, nullptr, nullptr});
  }
  active_.emplace(id, std::move(flow));
  if (opts_.incremental) {
    link(f);
    on_arrival_incremental(f);
  } else {
    link(f);
    // Same settle discipline as the incremental path: settle exactly the
    // arriving flow's contention component (the only flows whose rates can
    // change), so per-flow floating-point state stays bit-identical across
    // the two modes.
    scratch_flows_.clear();
    scratch_resources_.clear();
    collect_component(f, ++mark_epoch_, scratch_flows_, scratch_resources_);
    recompute_rates_global();
    schedule_next_completion();
  }
  co_await f->done.wait();
}

void FlowScheduler::link(Flow* f) {
  for (auto& l : f->links) {
    Resource* r = l.resource;
    l.prev = nullptr;
    l.next = r->flows_head_;
    if (r->flows_head_ != nullptr) r->flows_head_->prev = &l;
    r->flows_head_ = &l;
    ++r->flow_count_;
  }
}

void FlowScheduler::unlink(Flow* f) {
  for (auto& l : f->links) {
    Resource* r = l.resource;
    if (l.prev != nullptr) {
      l.prev->next = l.next;
    } else {
      r->flows_head_ = l.next;
    }
    if (l.next != nullptr) l.next->prev = l.prev;
    l.prev = l.next = nullptr;
    --r->flow_count_;
  }
}

void FlowScheduler::settle_flow(Flow& f) {
  const SimTime now = sim_.now();
  if (now <= f.last_settle) return;
  const double dt = simtime::to_seconds(now - f.last_settle);
  f.last_settle = now;
  // Zero-rate flows make no progress and must not touch their resources'
  // byte accounting.
  if (f.rate <= 0) return;
  // Clamp to `remaining` so a resource is never credited more bytes than
  // the flow actually carries (completion times are rounded up to whole
  // nanoseconds, so rate * dt can slightly overshoot).
  const double moved = std::min(f.rate * dt, f.remaining);
  if (moved <= 0) return;
  f.remaining -= moved;
  for (auto& l : f.links) l.resource->bytes_served_ += moved;
}

void FlowScheduler::settle_resource(Resource* r) {
  for (FlowLink* l = r->flows_head_; l != nullptr; l = l->next) {
    settle_flow(*l->flow);
  }
}

void FlowScheduler::credit_residue(Flow& f) {
  // On completion the sub-eps residue still represents real bytes; credit
  // it so per-resource totals match the requested sizes exactly.
  if (f.remaining > 0) {
    for (auto& l : f.links) l.resource->bytes_served_ += f.remaining;
  }
  f.remaining = 0;
}

void FlowScheduler::fill_rates(const std::vector<Flow*>& flows,
                               const std::vector<Resource*>& resources) {
  // Progressive filling (max-min fairness): repeatedly find the bottleneck
  // resource — the one whose equal share per unfrozen flow is smallest —
  // and freeze its flows at that share. Only the given subgraph is touched;
  // callers guarantee it is closed (every flow crossing a listed resource
  // is listed).
  if (flows.empty()) return;
  for (Flow* f : flows) {
    f->frozen = false;
    f->rate = 0;
  }
  for (Resource* r : resources) {
    r->cap_left_ = r->capacity_;
    r->unfrozen_ = 0;
  }
  for (Flow* f : flows) {
    for (auto& l : f->links) ++l.resource->unfrozen_;
  }
  std::size_t remaining_flows = flows.size();
  while (remaining_flows > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (Resource* r : resources) {
      if (r->unfrozen_ == 0) continue;
      const double share = r->cap_left_ / static_cast<double>(r->unfrozen_);
      best_share = std::min(best_share, share);
    }
    if (!std::isfinite(best_share)) break;
    // Freeze every unfrozen flow crossing a bottleneck at best_share.
    bool froze_any = false;
    for (Flow* f : flows) {
      if (f->frozen) continue;
      bool bottlenecked = false;
      for (auto& l : f->links) {
        const double share =
            l.resource->cap_left_ / static_cast<double>(l.resource->unfrozen_);
        if (share <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      f->frozen = true;
      f->rate = best_share;
      froze_any = true;
      --remaining_flows;
      for (auto& l : f->links) {
        Resource* r = l.resource;
        r->cap_left_ = std::max(0.0, r->cap_left_ - best_share);
        --r->unfrozen_;
      }
    }
    if (!froze_any) break;  // defensive: should not happen
  }
}

// ---------------------------------------------------------------------------
// Incremental path: component-scoped recompute + lazy ETA heap.
// ---------------------------------------------------------------------------

void FlowScheduler::collect_component(Flow* start, std::uint64_t epoch,
                                      std::vector<Flow*>& flows,
                                      std::vector<Resource*>& resources) {
  if (start->mark == epoch) return;
  start->mark = epoch;
  const std::size_t first = flows.size();
  flows.push_back(start);
  // BFS over the bipartite flow/resource sharing graph; `flows` doubles as
  // the worklist. Every visited flow is settled at its current rate before
  // that rate can change.
  for (std::size_t i = first; i < flows.size(); ++i) {
    Flow* f = flows[i];
    settle_flow(*f);
    for (auto& l : f->links) {
      Resource* r = l.resource;
      if (r->mark_ == epoch) continue;
      r->mark_ = epoch;
      resources.push_back(r);
      for (FlowLink* fl = r->flows_head_; fl != nullptr; fl = fl->next) {
        if (fl->flow->mark != epoch) {
          fl->flow->mark = epoch;
          flows.push_back(fl->flow);
        }
      }
    }
  }
}

void FlowScheduler::update_eta(Flow& f) {
  // Caller guarantees f is settled to now (rates change only at events
  // that settle the affected component first), so the ETA is computed from
  // the same (remaining, rate, now) triple in both scheduling modes —
  // the stored value, not a later recomputation, is the source of truth.
  if (f.rate <= 0) {
    f.eta = simtime::kInfinite;
    return;
  }
  const double eta_ns = std::ceil(
      f.remaining / f.rate * static_cast<double>(simtime::kNanosPerSec));
  if (eta_ns >= kMaxEtaNanos) {
    f.eta = simtime::kInfinite;
    return;
  }
  f.eta = sim_.now() + std::max<SimDuration>(static_cast<SimDuration>(eta_ns), 1);
}

void FlowScheduler::push_eta(Flow& f) {
  // Appends without restoring the heap property; callers run
  // restore_eta_heap() once per batch (a whole-component refill can touch
  // thousands of flows, where one make_heap beats per-entry sift-ups).
  update_eta(f);
  if (f.eta >= simtime::kInfinite) return;
  eta_heap_.push_back(EtaEntry{f.eta, f.id, f.rate_epoch});
}

void FlowScheduler::restore_eta_heap(std::size_t old_size) {
  const std::size_t appended = eta_heap_.size() - old_size;
  if (appended == 0) return;
  // Per-entry sift-up costs appended * log(size); a full rebuild costs
  // O(size). Rebuild only when the batch is a sizeable fraction of the heap
  // (e.g. a whole-component refill), sift up otherwise.
  if (appended * 8 < eta_heap_.size()) {
    for (std::size_t i = old_size; i < eta_heap_.size(); ++i) {
      std::push_heap(eta_heap_.begin(),
                     eta_heap_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     EtaLater{});
    }
  } else {
    std::make_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
  }
}

void FlowScheduler::refill_and_reschedule(std::vector<Flow*>& flows,
                                          std::vector<Resource*>& resources) {
  for (Flow* f : flows) f->prev_rate = f->rate;
  fill_rates(flows, resources);
  std::size_t changed = 0;
  for (Flow* f : flows) {
    // An unchanged rate keeps its epoch and its pending ETA entry: the
    // absolute ETA of a flow progressing at a constant rate is invariant.
    if (f->rate != f->prev_rate) {
      ++f->rate_epoch;
      update_eta(*f);
      ++changed;
    }
  }
  if (changed == 0) return;
  if (changed * 8 < eta_heap_.size()) {
    // Small batch relative to the heap: append + sift up.
    const std::size_t heap_size = eta_heap_.size();
    for (Flow* f : flows) {
      if (f->rate != f->prev_rate && f->eta < simtime::kInfinite) {
        eta_heap_.push_back(EtaEntry{f->eta, f->id, f->rate_epoch});
      }
    }
    restore_eta_heap(heap_size);
  } else {
    // A refill that touches a sizeable fraction of the heap (e.g. churn on
    // one big shared component) stales most existing entries anyway;
    // rebuilding from the live flows is cheaper than appending and later
    // popping/compacting the stale bulk.
    rebuild_eta_heap();
  }
}

void FlowScheduler::arm_wakeup() {
  if (eta_heap_.empty()) return;
  const SimTime top = eta_heap_.front().eta;
  if (top >= next_wakeup_ || top >= simtime::kInfinite) return;
  next_wakeup_ = top;
  // Superseded wakeups (a later refill armed an earlier time) fire as
  // zombies; the guard makes them O(1) instead of a full pop-scan.
  auto wakeup = [this, top] {
    if (top == next_wakeup_) on_wakeup();
  };
  static_assert(sim::InlineCallback::fits_inline<decltype(wakeup)>(),
                "flow wakeup callback must not allocate");
  sim_.schedule_at(top, std::move(wakeup));
}

void FlowScheduler::on_arrival_incremental(Flow* f) {
  scratch_flows_.clear();
  scratch_resources_.clear();
  collect_component(f, ++mark_epoch_, scratch_flows_, scratch_resources_);
  refill_and_reschedule(scratch_flows_, scratch_resources_);
  // Arrivals in a shared component stale out every prior ETA entry; without
  // compaction here a burst of arrivals grows the heap quadratically.
  compact_eta_heap();
  arm_wakeup();
}

void FlowScheduler::on_wakeup() {
  next_wakeup_ = simtime::kInfinite;
  const SimTime now = sim_.now();
  auto& due = scratch_due_;
  due.clear();
  while (!eta_heap_.empty() && eta_heap_.front().eta <= now) {
    std::pop_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
    const EtaEntry e = eta_heap_.back();
    eta_heap_.pop_back();
    auto it = active_.find(e.id);
    if (it == active_.end()) continue;  // flow already completed: stale
    Flow* f = it->second.get();
    if (f->rate_epoch != e.epoch) continue;  // rate changed since: stale
    due.push_back(f);
  }
  if (due.empty()) {
    compact_eta_heap();
    arm_wakeup();
    return;
  }
  // Settle the union of the due flows' contention components; completions
  // and the subsequent refill are confined to this subgraph.
  auto& comp = scratch_flows_;
  auto& res = scratch_resources_;
  comp.clear();
  res.clear();
  const std::uint64_t epoch = ++mark_epoch_;
  for (Flow* f : due) collect_component(f, epoch, comp, res);
  const std::uint64_t due_mark = ++mark_epoch_;
  for (Flow* f : due) f->mark = due_mark;
  // Complete everything in the subgraph that is within the rounding residue
  // of done — the same same-instant grouping the reference path applies —
  // waking waiters in flow-id order for deterministic downstream ordering.
  auto mid = std::stable_partition(
      comp.begin(), comp.end(),
      [](Flow* f) { return f->remaining <= kCompleteEps; });
  std::sort(comp.begin(), mid, id_less);
  for (auto it = comp.begin(); it != mid; ++it) {
    Flow* f = *it;
    unlink(f);
    credit_residue(*f);
    f->done.set();
    ++completed_;
  }
  for (auto it = comp.begin(); it != mid; ++it) {
    const std::uint64_t fid = (*it)->id;
    active_.erase(fid);
  }
  comp.erase(comp.begin(), mid);
  refill_and_reschedule(comp, res);
  // Defensive: a due flow that somehow survived with an unchanged rate had
  // its only ETA entry popped above; give it a fresh one.
  const std::size_t heap_size = eta_heap_.size();
  for (Flow* f : comp) {
    if (f->mark == due_mark && f->rate == f->prev_rate && f->rate > 0) {
      ++f->rate_epoch;
      push_eta(*f);
    }
  }
  restore_eta_heap(heap_size);
  compact_eta_heap();
  arm_wakeup();
}

void FlowScheduler::rebuild_eta_heap() {
  // Exact rebuild from the live flows (each stores its current ETA):
  // O(active) with no hash lookups, and leaves zero stale entries.
  eta_heap_.clear();
  // bslint: allow(det-unordered-iter): heap order is a strict total order
  // on (eta, id), so pop order is independent of build order
  for (auto& [id, f] : active_) {
    if (f->eta < simtime::kInfinite) {
      eta_heap_.push_back(EtaEntry{f->eta, id, f->rate_epoch});
    }
  }
  std::make_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
}

void FlowScheduler::compact_eta_heap() {
  // Lazy deletion can leave stale entries behind; rebuild when they
  // dominate so the heap stays O(active flows).
  if (eta_heap_.size() < 64 || eta_heap_.size() < 4 * active_.size()) return;
  rebuild_eta_heap();
}

// ---------------------------------------------------------------------------
// Reference path: global refill + linear completion scan on every event
// (the equivalence oracle). It shares the incremental path's settle
// discipline (settle exactly the affected component), completion grouping
// (component-scoped, kCompleteEps) and stored per-flow ETAs, so the two
// modes produce bit-identical trajectories; only the recompute scope and
// the next-completion lookup differ.
// ---------------------------------------------------------------------------

void FlowScheduler::recompute_rates_global() {
  scratch_flows_.clear();
  scratch_resources_.clear();
  const std::uint64_t epoch = ++mark_epoch_;
  // bslint: allow(det-unordered-iter): max-min fixpoint and settle are
  // order-insensitive; completions are sorted by id before resuming
  for (auto& [id, f] : active_) {
    f->prev_rate = f->rate;
    scratch_flows_.push_back(f.get());
    for (auto& l : f->links) {
      if (l.resource->mark_ != epoch) {
        l.resource->mark_ = epoch;
        scratch_resources_.push_back(l.resource);
      }
    }
  }
  fill_rates(scratch_flows_, scratch_resources_);
  // Flows outside the event's component get the same share re-assigned
  // (progressive filling depends only on membership and capacities), so
  // only genuinely changed rates refresh their ETA.
  for (Flow* f : scratch_flows_) {
    if (f->rate != f->prev_rate) update_eta(*f);
  }
}

void FlowScheduler::schedule_next_completion() {
  ++generation_;
  SimTime min_eta = simtime::kInfinite;
  // bslint: allow(det-unordered-iter): pure min over all flows
  for (auto& [id, f] : active_) min_eta = std::min(min_eta, f->eta);
  if (min_eta >= simtime::kInfinite) return;
  const std::uint64_t gen = generation_;
  auto completion = [this, gen] { on_completion_event(gen); };
  static_assert(sim::InlineCallback::fits_inline<decltype(completion)>(),
                "flow completion callback must not allocate");
  sim_.schedule_at(min_eta, std::move(completion));
}

void FlowScheduler::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer schedule
  const SimTime now = sim_.now();
  // Due flows: stored ETA has arrived. Rates are unchanged since the last
  // event (any change bumps generation_), so the stored values are current.
  auto& due = scratch_due_;
  due.clear();
  // bslint: allow(det-unordered-iter): due set is stable_partitioned and
  // sorted by flow id before completions resume waiters
  for (auto& [id, f] : active_) {
    if (f->eta <= now) due.push_back(f.get());
  }
  if (due.empty()) {  // defensive: spurious event
    schedule_next_completion();
    return;
  }
  // Settle the union of the due flows' contention components and complete
  // within it — the same grouping rule as the incremental path.
  auto& comp = scratch_flows_;
  auto& res = scratch_resources_;
  comp.clear();
  res.clear();
  const std::uint64_t epoch = ++mark_epoch_;
  for (Flow* f : due) collect_component(f, epoch, comp, res);
  const std::uint64_t due_mark = ++mark_epoch_;
  for (Flow* f : due) f->mark = due_mark;
  auto mid = std::stable_partition(
      comp.begin(), comp.end(),
      [](Flow* f) { return f->remaining <= kCompleteEps; });
  std::sort(comp.begin(), mid, id_less);
  for (auto it = comp.begin(); it != mid; ++it) {
    Flow* f = *it;
    unlink(f);
    credit_residue(*f);
    f->done.set();
    ++completed_;
  }
  for (auto it = comp.begin(); it != mid; ++it) {
    const std::uint64_t fid = (*it)->id;
    active_.erase(fid);
  }
  const bool completed_any = mid != comp.begin();
  if (completed_any) {
    recompute_rates_global();  // clobbers comp/res scratch; not needed below
    // Defensive: a due survivor whose rate came back unchanged kept a
    // stale (<= now) ETA; refresh it from its post-settle remaining.
    // bslint: allow(det-unordered-iter): per-flow ETA refresh; updates are
    // independent and feed the strict-total-order heap
    for (auto& [id, f] : active_) {
      if (f->mark == due_mark && f->rate == f->prev_rate && f->rate > 0) {
        update_eta(*f);
      }
    }
  } else {
    // No completion at all: every due flow is the defensive case.
    // bslint: allow(det-unordered-iter): per-flow ETA refresh; updates are
    // independent and feed the strict-total-order heap
    for (auto& [id, f] : active_) {
      if (f->mark == due_mark && f->rate > 0) update_eta(*f);
    }
  }
  schedule_next_completion();
}

std::vector<FlowScheduler::FlowInfo> FlowScheduler::active_flows_snapshot()
    const {
  std::vector<FlowInfo> out;
  out.reserve(active_.size());
  // bslint: allow(det-unordered-iter): snapshot is sorted before returning
  for (const auto& [id, f] : active_) {
    FlowInfo info{id, f->rate, f->remaining, {}};
    info.resources.reserve(f->links.size());
    for (const auto& l : f->links) info.resources.push_back(l.resource);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const FlowInfo& a, const FlowInfo& b) { return a.id < b.id; });
  return out;
}

}  // namespace bs::net

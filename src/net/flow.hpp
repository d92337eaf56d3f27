// Flow-level bandwidth model with max-min fair sharing. A transfer is a
// "flow" of N bytes that traverses a set of capacity-limited resources
// (sender NIC, receiver NIC, receiver disk, ...). Whenever a flow starts or
// finishes, rates are recomputed with progressive filling; completion events
// are driven by the simulation clock. This reproduces the contention
// behaviour of a real cluster (the physical effect behind every throughput
// number in the paper) at a cost of microseconds per flow.
//
// Two scheduling paths share the same progressive-filling core:
//  - incremental (default): per-flow-event cost scales with the size of the
//    affected contention component. Each resource keeps an intrusive list of
//    the flows crossing it; an arrival/departure walks only the connected
//    component of flows transitively sharing resources with the changed
//    flow, settles and refills just that subgraph, and completions come from
//    a lazy-deletion ETA min-heap keyed by (eta, flow id, rate epoch).
//    Per-flow progress is lazy: `remaining` is settled only when the flow's
//    own rate changes (or on demand via Resource::bytes_served()).
//  - reference (set_incremental(false)): global progressive filling and a
//    linear next-completion scan on every event. Quadratic, but simple;
//    kept as the equivalence oracle for the property suite and the
//    whole-stack mode tests (test_pool_chaos, test_determinism). Both
//    modes share the settle discipline (settle exactly the affected
//    component), the completion grouping and the stored per-flow ETAs, so
//    their trajectories are bit-identical, not merely approximately equal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace bs::net {

class FlowScheduler;
class Resource;

namespace detail {

struct Flow;

/// Membership of one flow in one resource's intrusive flow list.
struct FlowLink {
  Flow* flow{nullptr};
  Resource* resource{nullptr};
  FlowLink* prev{nullptr};
  FlowLink* next{nullptr};
};

struct Flow {
  Flow(sim::Simulation& sim, std::uint64_t id_, double bytes)
      : id(id_), remaining(bytes), done(sim) {}
  std::uint64_t id;
  double remaining;
  double rate{0};
  SimTime last_settle{0};      // progress is settled lazily up to this time
  // Absolute completion ETA, computed once at the flow's last rate change
  // (shared by both scheduling modes so they stay bit-identical).
  SimTime eta{simtime::kInfinite};
  std::uint64_t rate_epoch{0};  // bumped whenever rate changes (stales ETAs)
  std::uint64_t mark{0};        // component-walk visit marker
  double prev_rate{0};          // scratch: rate before a refill
  bool frozen{false};           // scratch for progressive filling
  // One link per distinct resource; sized once at creation (never
  // reallocated — resources hold pointers into this vector).
  std::vector<FlowLink> links;
  sim::Event done;
};

}  // namespace detail

/// A capacity-limited medium (NIC direction, disk, backbone link).
class Resource {
 public:
  Resource(std::string name, double capacity_bps)
      : name_(std::move(name)), capacity_(capacity_bps) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Total bytes that have traversed this resource. Settles the progress of
  /// every flow currently crossing it, so the value is exact as of now.
  [[nodiscard]] double bytes_served() const;

  /// Current number of flows crossing this resource.
  [[nodiscard]] std::size_t active_flows() const { return flow_count_; }

 private:
  friend class FlowScheduler;
  std::string name_;
  double capacity_;        // bytes per second
  double bytes_served_{0};
  std::size_t flow_count_{0};
  FlowScheduler* sched_{nullptr};
  detail::FlowLink* flows_head_{nullptr};  // intrusive list of crossing flows
  // Scratch fields used during rate computation / component walks.
  double cap_left_{0};
  std::size_t unfrozen_{0};
  std::uint64_t mark_{0};
};

class FlowScheduler {
 public:
  explicit FlowScheduler(sim::Simulation& sim) : sim_(sim) {}
  FlowScheduler(const FlowScheduler&) = delete;
  FlowScheduler& operator=(const FlowScheduler&) = delete;
  ~FlowScheduler();

  /// Creates a resource owned by the scheduler.
  Resource* create_resource(std::string name, double capacity_bps);

  /// Changes a resource's capacity at runtime (disk slowdowns, degraded
  /// links). Settles the resource's contention component at the old rates,
  /// then refills it under the new capacity — the same event discipline as
  /// an arrival, so both scheduling modes stay bit-identical.
  void set_capacity(Resource* r, double capacity_bps);

  /// Awaitable transfer of `bytes` across `resources`; completes when the
  /// last byte has been delivered under fair sharing. Duplicate entries in
  /// `resources` are ignored (the flow crosses each resource once).
  // bslint: allow(perf-large-byvalue): tiny pointer list; every caller moves
  sim::Task<void> transfer(double bytes, std::vector<Resource*> resources);

  [[nodiscard]] std::uint64_t completed_flows() const { return completed_; }
  [[nodiscard]] std::size_t active_flow_count() const {
    return active_.size() - holes_;
  }
  /// Selects the incremental path (the default) or the reference oracle.
  /// Only before the first transfer: the two paths keep different state.
  void set_incremental(bool on);

  /// Read-only view of an active flow, for invariant checks in tests.
  struct FlowInfo {
    std::uint64_t id;
    double rate;
    double remaining;  // as of the flow's last settle
    std::vector<const Resource*> resources;
  };
  [[nodiscard]] std::vector<FlowInfo> active_flows_snapshot() const;

 private:
  friend class Resource;
  using Flow = detail::Flow;
  using FlowLink = detail::FlowLink;

  struct EtaEntry {
    SimTime eta;
    std::uint64_t id;
    std::uint64_t epoch;
  };
  struct EtaLater {  // min-heap on (eta, id) via std::push_heap
    bool operator()(const EtaEntry& a, const EtaEntry& b) const {
      if (a.eta != b.eta) return a.eta > b.eta;
      return a.id > b.id;
    }
  };
  struct ActiveFlow {
    std::uint64_t id;
    std::unique_ptr<Flow> flow;  // null: completed (a hole)
  };

  // The active flow `id`, or null once it has completed.
  [[nodiscard]] Flow* find_active(std::uint64_t id) const;

  // Shared by both paths.
  void link(Flow* f);
  void unlink(Flow* f);
  void settle_flow(Flow& f);
  void settle_resource(Resource* r);
  void credit_residue(Flow& f);
  void update_eta(Flow& f);
  void fill_rates(const std::vector<Flow*>& flows,
                  const std::vector<Resource*>& resources);
  // Settles the union of the components of the flows in scratch_due_
  // (into scratch_flows_ / scratch_resources_), completes every flow in it
  // within kCompleteEps of done in flow-id order, and leaves the survivors
  // in scratch_flows_. Returns the mark the due flows now carry.
  std::uint64_t complete_due();

  // Incremental path.
  void on_arrival_incremental(Flow* f);
  void on_wakeup();
  void collect_component(Flow* start, std::uint64_t epoch,
                         std::vector<Flow*>& flows,
                         std::vector<Resource*>& resources);
  void refill_and_reschedule(std::vector<Flow*>& flows,
                             std::vector<Resource*>& resources);
  void push_eta(Flow& f);
  void restore_eta_heap(std::size_t old_size);
  void rebuild_eta_heap();
  void arm_wakeup();
  void compact_eta_heap();

  // Reference path (global refill + linear completion scan).
  void recompute_rates_global();
  void schedule_next_completion();
  void on_completion_event(std::uint64_t generation);

  sim::Simulation& sim_;
  bool incremental_{true};
  std::vector<std::unique_ptr<Resource>> resources_;
  // Active flows in id order: transfer appends (ids only grow), and a
  // completed flow leaves a hole under its id, so lookups binary-search
  // and every walk visits flows in id order. complete_due compacts the
  // holes once they are half the vector.
  std::vector<ActiveFlow> active_;
  std::size_t holes_{0};
  std::uint64_t next_flow_id_{0};
  std::uint64_t completed_{0};
  std::uint64_t mark_epoch_{0};

  // Incremental-path state.
  std::vector<EtaEntry> eta_heap_;
  SimTime next_wakeup_{simtime::kInfinite};
  // Scratch buffers reused across events to avoid per-event allocation.
  std::vector<Flow*> scratch_flows_;
  std::vector<Resource*> scratch_resources_;
  std::vector<Flow*> scratch_due_;
  std::vector<Flow*> scratch_done_;  // complete_due's finished flows

  // Reference-path state.
  std::uint64_t generation_{0};
};

/// Convenience capacities.
inline constexpr double gbit_per_sec(double gbit) {
  return gbit * 125'000'000.0;  // bytes/sec
}
inline constexpr double mb_per_sec(double mb) { return mb * 1'000'000.0; }

}  // namespace bs::net

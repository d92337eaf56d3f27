// Simulated cluster + typed RPC. A Cluster owns Nodes placed on a Topology;
// calls between nodes pay propagation latency, transfer payloads through the
// flow scheduler (large payloads contend for NIC/disk bandwidth), pass an
// admission hook (the attachment point of the self-protection framework) and
// an optional service queue (bounded concurrency + per-request overhead,
// which is what a flood of small requests saturates), then run a registered
// coroutine handler.
//
// Request/response types are plain structs declaring:
//   static constexpr const char* kName;            // for observability
//   std::uint64_t wire_size() const;               // payload bytes
// and optionally:
//   static constexpr bool kPayloadToDisk = true;   // request payload is
//                                                  // streamed to dst disk
//   static constexpr bool kResponseFromDisk = true;// response payload is
//                                                  // read from dst disk
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/frame_pool.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace bs::rpc {

class Cluster;

/// Per-call metadata travelling with every request.
struct Envelope {
  ClientId client{};      ///< authenticated caller identity (may be invalid)
  NodeId src_node{};
  SimTime sent_at{0};
  /// Trace span enclosing the server-side work (the serve span once the
  /// request is admitted); handlers parent their downstream calls on it so
  /// a client write shows its nested provider/metadata/manager activity.
  obs::SpanId parent_span{0};
};

/// Retry policy: exponential backoff with jitter, deterministic because the
/// jitter is drawn from the cluster's seeded RNG. `max_attempts == 1`
/// disables retries. Only transport-level failures (timeout, unavailable)
/// are retried; application errors propagate to the caller unchanged.
struct RetryPolicy {
  std::uint32_t max_attempts{1};
  SimDuration base_backoff{simtime::millis(50)};
  double multiplier{2.0};
  SimDuration max_backoff{simtime::seconds(5)};
  /// Fraction of each backoff that is randomized: the delay before retry k
  /// is uniform in [d*(1-jitter), d] with d = min(base*mult^(k-1), max).
  double jitter{0.5};

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
  [[nodiscard]] SimDuration backoff(std::uint32_t retry, Rng& rng) const;
  [[nodiscard]] static bool retryable(Errc code) {
    return code == Errc::timeout || code == Errc::unavailable;
  }
};

/// Options for a single call. `timeout` is per attempt; with a retry policy
/// the overall deadline is the sum of attempt timeouts plus backoffs.
struct CallOptions {
  SimDuration timeout{simtime::seconds(30)};
  ClientId client{};
  /// The default makes one attempt (no retries).
  RetryPolicy retry{};
  /// Trace span this call nests under (0 = root).
  obs::SpanId parent_span{0};
};

/// How a node crashes. Fail-stop: in-flight RPCs touching the node (either
/// side), queued requests and un-sent responses are all lost.
struct CrashOptions {
  bool lose_storage{false};  ///< stateful services wipe their stores
  /// Power-loss flavour: the journaled store's last un-synced record is
  /// left half-written and must be scanned and truncated at recovery.
  bool torn_tail{false};
};

/// Observation record handed to the instrumentation layer for every request
/// a node serves (or rejects).
struct RequestInfo {
  const char* name{""};
  ClientId client{};
  NodeId src{};
  std::uint64_t request_bytes{0};
  std::uint64_t response_bytes{0};
  SimDuration queue_wait{0};
  SimDuration service_time{0};
  Errc outcome{Errc::ok};
};

/// Hardware description of a simulated machine. Every NIC runs at 1 Gb/s
/// per direction, full duplex (`kNicBps` in rpc.cpp).
struct NodeSpec {
  double disk_bps{net::mb_per_sec(400.0)};
  std::size_t service_concurrency{4};       ///< parallel request slots
  SimDuration service_overhead{simtime::micros(300)};  ///< per request
  /// Requests queued beyond this are rejected with `unavailable`
  /// (overload shedding); effectively unbounded by default.
  std::size_t service_queue_limit{100000};
};

namespace detail {
using AnyPtr = std::shared_ptr<void>;
struct AnyResponse {
  Result<void> status;   // error, if the handler failed
  AnyPtr payload;        // valid iff status.ok()
  std::uint64_t wire_size{0};
  bool from_disk{false};
};
using ErasedHandler =
    std::function<sim::Task<AnyResponse>(AnyPtr, Envelope)>;

/// Stateless allocator over sim::FramePool. A call shares its request,
/// response and call state between the caller, the call body and the
/// timeout watcher, and any of them may be the last to let go, so these
/// bodies cannot live in one frame. std::allocate_shared with this
/// allocator puts object and counts in one pooled chunk: a warm call never
/// reaches malloc, and with the pool off the chunk comes from the heap,
/// as frames do.
template <class T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)
  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "pool chunks are only max_align_t aligned");
    return static_cast<T*>(sim::FramePool::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    sim::FramePool::instance().deallocate(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T, class... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Hands out dense message ids, in first-use order.
std::size_t next_message_id();

/// Small integer naming message type Req, taken at its first use; it
/// indexes a node's handler table, so dispatch is one vector load instead
/// of a hash lookup. Ids never reach simulation output.
template <class Req>
std::size_t message_id() {
  static const std::size_t id = next_message_id();
  return id;
}

template <class T>
concept HasPayloadToDisk = requires { T::kPayloadToDisk; };
template <class T>
concept HasResponseFromDisk = requires { T::kResponseFromDisk; };

template <class T>
constexpr bool payload_to_disk() {
  if constexpr (HasPayloadToDisk<T>) return T::kPayloadToDisk;
  return false;
}
template <class T>
constexpr bool response_from_disk() {
  if constexpr (HasResponseFromDisk<T>) return T::kResponseFromDisk;
  return false;
}
}  // namespace detail

class Node {
 public:
  using AdmissionHook =
      std::function<Result<void>(const Envelope&, const char* req_name)>;
  using RequestObserver = std::function<void(const RequestInfo&)>;
  using CrashListener = std::function<void(const CrashOptions&)>;
  using RestartListener = std::function<void()>;

  Node(Cluster& cluster, NodeId id, net::SiteId site, const NodeSpec& spec);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] net::SiteId site() const { return site_; }
  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Fail-stop crash: bumps the incarnation (invalidating every RPC pinned
  /// to the old one) and runs crash listeners so stateful services can stop
  /// background loops and optionally wipe their stores. No-op if down.
  void crash(const CrashOptions& opts = {});
  /// Brings a crashed node back up and runs restart listeners (services
  /// re-register, heartbeats resume). No-op if already up.
  void restart();
  /// Bumped on every crash. RPCs pin both endpoints' incarnations at send
  /// time and abandon the call when either changes mid-flight.
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  void add_crash_listener(CrashListener l) {
    crash_listeners_.push_back(std::move(l));
  }
  void add_restart_listener(RestartListener l) {
    restart_listeners_.push_back(std::move(l));
  }

  net::Resource* nic_tx() { return nic_tx_; }
  net::Resource* nic_rx() { return nic_rx_; }
  net::Resource* disk() { return disk_; }

  /// Registers a coroutine handler for requests of type Req. Handlers live
  /// behind their own pointer: a handler coroutine refers to its closure
  /// while suspended, so registering a new type (which may grow the table)
  /// must never move a stored one.
  template <class Req, class Resp, class F>
  void serve(F handler) {
    const std::size_t id = detail::message_id<Req>();
    if (id >= handlers_.size()) handlers_.resize(id + 1);
    handlers_[id] = std::make_unique<detail::ErasedHandler>(
        [handler = std::move(handler)](detail::AnyPtr any,
                                       Envelope env) -> sim::Task<detail::AnyResponse> {
      auto req = std::static_pointer_cast<Req>(std::move(any));
      Result<Resp> result = co_await handler(*req, env);
      detail::AnyResponse out;
      if (result.ok()) {
        auto payload = detail::make_pooled<Resp>(std::move(result).value());
        out.wire_size = payload->wire_size();
        out.from_disk = detail::response_from_disk<Req>();
        out.payload = std::move(payload);
        out.status = ok_result();
      } else {
        out.status = std::move(result).error();
      }
      co_return out;
    });
  }

  template <class Req>
  [[nodiscard]] bool serves() const {
    return handler(detail::message_id<Req>()) != nullptr;
  }

  /// Admission control: run before queueing; an error rejects the request
  /// without consuming service capacity (this is how blocked clients are
  /// turned away cheaply).
  void set_admission(AdmissionHook hook) { admission_ = std::move(hook); }

  /// Instrumentation tap: invoked once per served/rejected request.
  void set_request_observer(RequestObserver obs) { observer_ = std::move(obs); }

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  friend class Cluster;

  /// The handler registered for message id `id`, or nullptr.
  [[nodiscard]] detail::ErasedHandler* handler(std::size_t id) const {
    return id < handlers_.size() ? handlers_[id].get() : nullptr;
  }

  Cluster& cluster_;
  NodeId id_;
  net::SiteId site_;
  NodeSpec spec_;
  bool up_{true};
  std::uint64_t incarnation_{0};
  std::vector<CrashListener> crash_listeners_;
  std::vector<RestartListener> restart_listeners_;
  net::Resource* nic_tx_;
  net::Resource* nic_rx_;
  net::Resource* disk_;
  std::unique_ptr<sim::Semaphore> service_sem_;
  std::vector<std::unique_ptr<detail::ErasedHandler>> handlers_;  // by id
  AdmissionHook admission_;
  RequestObserver observer_;
  std::uint64_t served_{0};
};

class Cluster {
 public:
  /// `fault_seed` feeds the RNG used for retry jitter (and nothing else),
  /// keeping backoff schedules deterministic per seed.
  Cluster(sim::Simulation& sim, net::Topology topology,
          std::uint64_t fault_seed = 0xB5FA117ull);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] net::FlowScheduler& flows() { return flows_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }

  /// Creates a node on `site`.
  Node* add_node(net::SiteId site, const NodeSpec& spec = {});

  /// Removes a node from service (it stays addressable but unavailable).
  void retire_node(NodeId id);

  [[nodiscard]] Node* node(NodeId id);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Typed RPC. Fails with `unavailable` when dst is down/unknown,
  /// `timeout` when opts.timeout elapses first, or whatever the admission
  /// hook / handler returns.
  template <class Req, class Resp>
  // bslint: allow(coro-ref-param): src is cluster-owned and lives for the
  // whole simulation; the request moves into a pooled body immediately
  sim::Task<Result<Resp>> call(Node& src, NodeId dst, Req req,
                               CallOptions opts = {}) {
    auto any = detail::make_pooled<Req>(std::move(req));
    const std::uint64_t req_bytes = any->wire_size();
    auto erased = co_await call_erased(
        src, dst, detail::message_id<Req>(), Req::kName, std::move(any),
        req_bytes, detail::payload_to_disk<Req>(), opts);
    if (!erased.ok()) co_return std::move(erased).error();
    co_return std::move(
        *std::static_pointer_cast<Resp>(std::move(erased).value()));
  }

  /// Messages smaller than this bypass the flow scheduler (pure
  /// latency + serialization delay); larger payloads contend for bandwidth.
  static constexpr std::uint64_t kFlowThreshold = 64 * units::KiB;

  /// Link-level fault, evaluated once per message direction at send time. A
  /// dropped message vanishes (the caller's timeout fires); extra latency is
  /// added to the propagation delay of that message only.
  struct LinkFault {
    bool drop{false};
    SimDuration extra_latency{0};
  };
  using LinkFaultFn = std::function<LinkFault(net::SiteId from, net::SiteId to)>;
  /// Installs the fault-plane hook (empty function clears it).
  void set_link_fault_fn(LinkFaultFn fn) { link_fault_ = std::move(fn); }

  /// `calls_started` counts every attempt (retries included); `timeouts`
  /// counts every attempt that timed out, so with retries enabled one
  /// logical call can contribute several of each.
  [[nodiscard]] std::uint64_t calls_started() const { return calls_started_; }
  [[nodiscard]] std::uint64_t calls_timed_out() const { return timeouts_; }
  [[nodiscard]] std::uint64_t calls_retried() const { return calls_retried_; }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }

 private:
  struct CallState {
    CallState(sim::Simulation& sim, Cluster& c) : done(sim), cluster(&c) {}
    sim::Event done;
    Cluster* cluster;  ///< whose timeout count the watcher bumps
    bool settled{false};
    Result<detail::AnyPtr> result{Errc::internal};
  };

  /// Runs a call: each attempt spawns the call body, arms the timeout
  /// watcher and awaits settlement; failed attempts retry as `opts.retry`
  /// says. Options are by value (coroutine-frame copy, bslint
  /// coro-ref-param).
  // bslint: allow(coro-ref-param): src is cluster-owned for the whole sim
  sim::Task<Result<detail::AnyPtr>> call_erased(
      Node& src, NodeId dst, std::size_t type, const char* name,
      detail::AnyPtr req, std::uint64_t req_bytes, bool payload_to_disk,
      CallOptions opts);

  sim::Task<void> call_body(std::shared_ptr<CallState> state, Node* src,
                            Node* dst, std::size_t type, const char* name,
                            detail::AnyPtr req, std::uint64_t req_bytes,
                            bool payload_to_disk, CallOptions opts);

  /// Serialization delay of a control-plane message (under
  /// kFlowThreshold) at NIC rate: no contention.
  static SimDuration control_delay(std::uint64_t bytes);

  /// Moves a data-plane message of `bytes` (at least kFlowThreshold) from
  /// a to b as a flow over a's NIC, b's NIC and `extra`, if any (e.g. the
  /// destination disk).
  sim::Task<void> transmit(Node* a, Node* b, std::uint64_t bytes,
                           net::Resource* extra);

  sim::Simulation& sim_;
  net::Topology topology_;
  net::FlowScheduler flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  LinkFaultFn link_fault_;
  Rng retry_rng_;
  std::uint64_t calls_started_{0};
  std::uint64_t timeouts_{0};
  std::uint64_t calls_retried_{0};
  std::uint64_t messages_dropped_{0};
};

}  // namespace bs::rpc

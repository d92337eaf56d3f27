#include "rpc/rpc.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace bs::rpc {

Node::Node(Cluster& cluster, NodeId id, net::SiteId site,
           const NodeSpec& spec)
    : cluster_(cluster), id_(id), site_(site), spec_(spec) {
  auto& flows = cluster.flows();
  const std::string base = "node" + std::to_string(id.value);
  nic_tx_ = flows.create_resource(base + ".tx", spec.nic_bps);
  nic_rx_ = flows.create_resource(base + ".rx", spec.nic_bps);
  disk_ = flows.create_resource(base + ".disk", spec.disk_bps);
  service_sem_ = std::make_unique<sim::Semaphore>(
      cluster.sim(), std::max<std::size_t>(1, spec.service_concurrency));
}

void Node::crash(const CrashOptions& opts) {
  if (!up_) return;
  up_ = false;
  ++incarnation_;
  obs::count("node.crashes");
  if (auto* ts = obs::sink()) {
    ts->instant("node.crash", "node", 0, opts.lose_storage ? "wiped" : "",
                {"node", static_cast<std::int64_t>(id_.value)},
                {"incarnation", static_cast<std::int64_t>(incarnation_)});
  }
  for (auto& l : crash_listeners_) l(opts);
}

void Node::restart() {
  if (up_) return;
  up_ = true;
  obs::count("node.restarts");
  if (auto* ts = obs::sink()) {
    ts->instant("node.restart", "node", 0, "",
                {"node", static_cast<std::int64_t>(id_.value)});
  }
  for (auto& l : restart_listeners_) l();
}

SimDuration RetryPolicy::backoff(std::uint32_t retry, Rng& rng) const {
  double d = static_cast<double>(base_backoff);
  for (std::uint32_t i = 1; i < retry; ++i) d *= multiplier;
  d = std::min(d, static_cast<double>(max_backoff));
  if (jitter > 0) {
    const double j = std::min(jitter, 1.0);
    d *= (1.0 - j) + j * rng.next_double();
  }
  return static_cast<SimDuration>(d);
}

Cluster::Cluster(sim::Simulation& sim, net::Topology topology,
                 std::uint64_t fault_seed)
    : sim_(sim),
      topology_(std::move(topology)),
      flows_(sim),
      wan_links_(topology_.site_count() * topology_.site_count(), nullptr),
      retry_rng_(fault_seed) {}

Node* Cluster::add_node(net::SiteId site, const NodeSpec& spec) {
  assert(site < topology_.site_count());
  const NodeId id{nodes_.size()};
  nodes_.push_back(std::make_unique<Node>(*this, id, site, spec));
  return nodes_.back().get();
}

void Cluster::retire_node(NodeId id) {
  if (Node* n = node(id)) n->set_up(false);
}

Node* Cluster::node(NodeId id) {
  if (!id.valid() || id.value >= nodes_.size()) return nullptr;
  return nodes_[id.value].get();
}

// bslint: allow(coro-ref-param): see rpc.hpp — cluster-owned nodes
sim::Task<void> Cluster::transmit(Node& a, Node& b, std::uint64_t bytes,
                                  net::Resource* extra) {
  if (bytes == 0) co_return;
  if (bytes < kFlowThreshold) {
    // Control-plane message: pure serialization delay, no contention. Keeps
    // the flow scheduler's active set small while the data plane dominates.
    const double rate = std::min(a.spec().nic_bps, b.spec().nic_bps);
    co_await sim_.delay(
        simtime::seconds(static_cast<double>(bytes) / rate));
  } else {
    std::vector<net::Resource*> rs{a.nic_tx(), b.nic_rx()};
    if (net::Resource* wan = wan_link(a.site(), b.site())) {
      rs.push_back(wan);
    }
    if (extra != nullptr) rs.push_back(extra);
    co_await flows_.transfer(static_cast<double>(bytes), std::move(rs));
  }
}

net::Resource* Cluster::wan_link(net::SiteId a, net::SiteId b) {
  if (a == b || topology_.wan_bandwidth() <= 0) return nullptr;
  const std::size_t sites = topology_.site_count();
  net::Resource*& link = wan_links_[a * sites + b];
  if (link == nullptr) {
    // Created on first use, so resource order and names follow traffic.
    const net::SiteId lo = a < b ? a : b;
    const net::SiteId hi = a < b ? b : a;
    link = flows_.create_resource(
        "wan." + std::to_string(lo) + "-" + std::to_string(hi),
        topology_.wan_bandwidth());
    wan_links_[b * sites + a] = link;
  }
  return link;
}

// bslint: allow(coro-ref-param): see rpc.hpp — cluster-owned node
sim::Task<Result<detail::AnyPtr>> Cluster::call_erased(
    Node& src, NodeId dst, std::type_index type, const char* name,
    detail::AnyPtr req, std::uint64_t req_bytes, bool payload_to_disk,
    CallOptions opts) {
  const RetryPolicy policy = opts.retry ? *opts.retry : default_retry_;
  obs::TraceSink* ts = obs::sink();
  obs::Span call_span;
  if (ts) {
    call_span = ts->span(name, "rpc", opts.parent_span,
                         {"bytes", static_cast<std::int64_t>(req_bytes)},
                         {"dst", static_cast<std::int64_t>(dst.value)});
  }
  for (std::uint32_t attempt = 1;; ++attempt) {
    CallOptions att_opts = opts;
    obs::Span att;
    if (ts) {
      att = ts->span("rpc.attempt", "rpc", call_span.id(),
                     {"attempt", attempt});
      att_opts.parent_span = att.id();
    }
    auto r = co_await call_attempt(src, dst, type, name, req, req_bytes,
                                   payload_to_disk, att_opts);
    if (ts) att.end(errc_name(r.code()));
    if (r.ok() || attempt >= policy.max_attempts ||
        !RetryPolicy::retryable(r.error().code)) {
      if (ts) call_span.end(errc_name(r.code()));
      co_return r;
    }
    ++calls_retried_;
    obs::count("rpc.calls_retried");
    const SimDuration backoff = policy.backoff(attempt, retry_rng_);
    if (ts) {
      ts->instant("rpc.retry", "rpc", call_span.id(),
                  errc_name(r.error().code), {"attempt", attempt},
                  {"backoff_ns", backoff});
    }
    co_await sim_.delay(backoff);
  }
}

// bslint: allow(coro-ref-param): see rpc.hpp — cluster-owned node
sim::Task<Result<detail::AnyPtr>> Cluster::call_attempt(
    Node& src, NodeId dst, std::type_index type, const char* name,
    detail::AnyPtr req, std::uint64_t req_bytes, bool payload_to_disk,
    CallOptions opts) {
  ++calls_started_;
  obs::count("rpc.calls_started");
  auto state = std::make_shared<CallState>(sim_);
  sim_.spawn(call_body(state, &src, node(dst), type, name, std::move(req),
                       req_bytes, payload_to_disk, opts));
  // The watcher is a cancellable timer, disarmed once the call settles:
  // its CallState reference and queue entry go at once.
  sim::TimerId watch;
  if (opts.timeout > 0 && opts.timeout < simtime::kInfinite) {
    auto watcher = [this, state] {
      if (!state->settled) {
        state->settled = true;
        state->result = Error{Errc::timeout, "rpc timeout"};
        ++timeouts_;
        obs::count("rpc.timeouts");
        state->done.set();
      }
    };
    static_assert(sim::InlineCallback::fits_inline<decltype(watcher)>(),
                  "per-call timeout watcher must not allocate");
    watch = sim_.schedule_timer_in(opts.timeout, std::move(watcher));
  }
  co_await state->done.wait();
  sim_.cancel(watch);  // false when the watcher itself settled the call
  co_return state->result;
}

sim::Task<void> Cluster::call_body(std::shared_ptr<CallState> state,
                                   Node* src, Node* dst, std::type_index type,
                                   const char* name, detail::AnyPtr req,
                                   std::uint64_t req_bytes,
                                   bool payload_to_disk, CallOptions opts) {
  auto settle = [&](Result<detail::AnyPtr> r) {
    if (state->settled) return;  // lost to the timeout watcher
    state->settled = true;
    state->result = std::move(r);
    state->done.set();
  };

  if (src == nullptr || !src->up()) {
    settle(Error{Errc::unavailable, "source node down"});
    co_return;
  }
  if (dst == nullptr || !dst->up() || !dst->serves(type)) {
    settle(Error{Errc::unavailable,
                 std::string("no service for ") + name});
    co_return;
  }

  // Pin both endpoints to their current incarnation: a crash on either side
  // while the call is in flight invalidates the request, the queued work and
  // the response. Every await below re-checks the pins.
  const std::uint64_t src_inc = src->incarnation();
  const std::uint64_t dst_inc = dst->incarnation();
  auto src_alive = [&] { return src->up() && src->incarnation() == src_inc; };
  auto dst_alive = [&] { return dst->up() && dst->incarnation() == dst_inc; };

  obs::TraceSink* ts = obs::sink();
  SimDuration latency = topology_.latency(src->site(), dst->site());
  if (link_fault_) {
    const LinkFault lf = link_fault_(src->site(), dst->site());
    if (lf.drop) {
      // Request lost on the wire: never settles, the timeout watcher fires.
      ++messages_dropped_;
      obs::count("rpc.messages_dropped");
      if (ts) {
        ts->instant("rpc.drop", "rpc", opts.parent_span, "request",
                    {"dst", static_cast<std::int64_t>(dst->id().value)});
      }
      co_return;
    }
    latency += lf.extra_latency;
  }
  Envelope env;
  env.client = opts.client;
  env.src_node = src->id();
  env.sent_at = sim_.now();
  env.parent_span = opts.parent_span;

  co_await sim_.delay(latency);
  co_await transmit(*src, *dst, req_bytes,
                    payload_to_disk ? dst->disk() : nullptr);
  if (!dst_alive()) {
    settle(Error{Errc::unavailable, "destination crashed"});
    co_return;
  }
  if (!src_alive()) co_return;  // caller crashed; nobody awaits the result

  RequestInfo info;
  info.name = name;
  info.client = opts.client;
  info.src = src->id();
  info.request_bytes = req_bytes;

  // Admission: cheap rejection before any service capacity is consumed.
  if (dst->admission_) {
    if (auto admit = dst->admission_(env, name); !admit.ok()) {
      info.outcome = admit.error().code;
      obs::count("rpc.admission_rejects");
      if (ts) {
        ts->instant("rpc.reject", "rpc", opts.parent_span,
                    errc_name(admit.error().code),
                    {"dst", static_cast<std::int64_t>(dst->id().value)},
                    {"client", static_cast<std::int64_t>(opts.client.value)});
      }
      if (dst->observer_) dst->observer_(info);
      settle(admit.error());
      co_return;
    }
  }

  // The serve span covers queue wait + service on the destination. It is a
  // root of its own span tree (server work can legitimately outlive a
  // timed-out client attempt); the `cause` arg links it to the attempt.
  obs::Span serve;
  if (ts) {
    serve = ts->span(name, "rpc.serve", 0,
                     {"dst", static_cast<std::int64_t>(dst->id().value)},
                     {"cause", static_cast<std::int64_t>(opts.parent_span)});
    env.parent_span = serve.id();
  }

  // Service queue: bounded concurrency + fixed per-request overhead. A
  // flood of small requests saturates this, which is the DoS vector the
  // self-protection experiments exercise.
  if (dst->service_sem_->waiting() >= dst->spec().service_queue_limit) {
    info.outcome = Errc::unavailable;
    obs::count("rpc.load_shed");
    if (ts) {
      ts->instant("rpc.shed", "rpc", serve.id(), "queue overloaded",
                  {"dst", static_cast<std::int64_t>(dst->id().value)});
      serve.end(errc_name(Errc::unavailable));
    }
    if (dst->observer_) dst->observer_(info);
    settle(Error{Errc::unavailable, "service queue overloaded"});
    co_return;
  }
  const SimTime enqueue_at = sim_.now();
  co_await dst->service_sem_->acquire();
  if (!dst_alive()) {
    // The crash wiped the logical service queue: this waiter resumed into a
    // dead (or reincarnated) node, so its request is lost. The slot is still
    // handed on so the queue drains deterministically.
    dst->service_sem_->release();
    serve.end("aborted");
    settle(Error{Errc::unavailable, "destination crashed"});
    co_return;
  }
  info.queue_wait = sim_.now() - enqueue_at;
  const SimTime service_start = sim_.now();

  co_await sim_.delay(dst->spec().service_overhead);
  if (!dst_alive()) {
    dst->service_sem_->release();
    serve.end("aborted");
    settle(Error{Errc::unavailable, "destination crashed"});
    co_return;
  }
  detail::AnyResponse resp =
      co_await dst->handlers_[type](std::move(req), env);
  dst->service_sem_->release();
  if (!dst_alive()) {
    // Handler finished on a node that crashed mid-service: result lost.
    serve.end("aborted");
    settle(Error{Errc::unavailable, "destination crashed"});
    co_return;
  }

  ++dst->served_;
  info.service_time = sim_.now() - service_start;
  info.outcome = resp.status.ok() ? Errc::ok : resp.status.error().code;
  info.response_bytes = resp.wire_size;
  serve.end(errc_name(info.outcome));
  obs::count("rpc.requests_served");
  if (auto* m = obs::metrics()) {
    m->histogram("rpc.queue_wait_ms", 0.0, 10000.0, 200)
        .add(simtime::to_millis(info.queue_wait));
    m->histogram("rpc.service_ms", 0.0, 10000.0, 200)
        .add(simtime::to_millis(info.service_time));
  }
  if (dst->observer_) dst->observer_(info);

  if (!resp.status.ok()) {
    settle(resp.status.error());
    co_return;
  }

  // Response direction: link rules may have changed while the request was
  // being served, so they are re-evaluated for the way back.
  SimDuration resp_latency = topology_.latency(dst->site(), src->site());
  if (link_fault_) {
    const LinkFault lf = link_fault_(dst->site(), src->site());
    if (lf.drop) {
      ++messages_dropped_;
      obs::count("rpc.messages_dropped");
      if (ts) {
        ts->instant("rpc.drop", "rpc", opts.parent_span, "response",
                    {"dst", static_cast<std::int64_t>(dst->id().value)});
      }
      co_return;  // response lost; the caller's timeout fires
    }
    resp_latency += lf.extra_latency;
  }
  co_await sim_.delay(resp_latency);
  co_await transmit(*dst, *src, resp.wire_size,
                    resp.from_disk ? dst->disk() : nullptr);
  if (!dst_alive()) co_return;  // crashed before the last byte left
  if (!src_alive()) co_return;  // caller crashed while the response flew
  settle(std::move(resp.payload));
}

}  // namespace bs::rpc

// Microbenchmark: raw substrate performance — event-queue throughput,
// coroutine task switching, flow-scheduler arrival/departure cost, RPC
// round trips. These bound how large an experiment the simulator can run.
#include <benchmark/benchmark.h>

#include "alloc_probe.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "sim/frame_pool.hpp"
#include "sim/sync.hpp"

using namespace bs;

namespace {

void BM_EventQueue(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(i, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

// The same-time fast lane: every event lands at t <= now and is serviced
// from the ring buffer without ever touching the heap. This is the shape of
// schedule_resume / zero-delay wakeups — the most common event kind.
void BM_SameTimeLane(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(0, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SameTimeLane)->Arg(1000)->Arg(100000);

// Actor spawn/teardown cost with the frame pool warm. The probe counters
// prove the steady state is allocation-free: after warm-up, every spawn's
// frames (tracked root + task) come from the pool's free lists and the
// whole iteration performs zero global operator new calls.
void BM_ActorSpawn(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Simulation sim;
  auto actor = [](int& acc) -> sim::Task<void> {
    ++acc;
    co_return;
  };
  int acc = 0;
  for (int i = 0; i < 64; ++i) sim.spawn(actor(acc));  // warm the pool
  sim.run();
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::alloc_probe::allocations();
    for (int i = 0; i < batch; ++i) sim.spawn(actor(acc));
    sim.run();
    allocs += bench::alloc_probe::allocations() - before;
    ops += static_cast<std::uint64_t>(batch);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops);
}
BENCHMARK(BM_ActorSpawn)->Arg(1000);

// Arm-then-cancel, the whole life of an RPC timeout watcher whose call
// settles first, against a standing population of `live` armed timers
// with spread deadlines (so each cancel sifts through a real heap). A
// cancel frees its slot and heap entry for the next arm: the probe must
// see zero allocations per pair once the population is in place.
void BM_TimerArmCancel(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  std::vector<sim::TimerId> ids(live);
  int fired = 0;
  auto arm = [&](std::size_t i) {
    ids[i] = sim.schedule_timer_in(
        simtime::seconds(30) + static_cast<SimDuration>(i * 7919 % live),
        [&fired] { ++fired; });
  };
  for (std::size_t i = 0; i < live; ++i) arm(i);
  sim.cancel(ids[0]);  // the first cancel sizes the free-slot list
  arm(0);
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::alloc_probe::allocations();
    for (int k = 0; k < 1000; ++k) {
      sim.cancel(ids[next]);
      arm(next);
      next = next + 1 == live ? 0 : next + 1;
    }
    allocs += bench::alloc_probe::allocations() - before;
    ops += 1000;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops);
}
BENCHMARK(BM_TimerArmCancel)->Arg(1000)->Arg(100000);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Mailbox<int> a(sim), b(sim);
    constexpr int kRounds = 1000;
    sim.spawn([](sim::Mailbox<int>& in, sim::Mailbox<int>& out)
                  -> sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        out.push(co_await in.recv() + 1);
      }
    }(a, b));
    int last = 0;
    sim.spawn([](sim::Mailbox<int>& in, sim::Mailbox<int>& out,
                 int& result) -> sim::Task<void> {
      out.push(0);
      for (int i = 0; i < kRounds; ++i) {
        const int v = co_await in.recv();
        if (i + 1 < kRounds) out.push(v);
        result = v;
      }
    }(b, a, last));
    sim.run();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_FlowChurn(benchmark::State& state) {
  // `concurrent` flows alive at once; measure cost per completed flow
  // (each arrival/departure triggers a max-min rate recomputation).
  const int concurrent = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::FlowScheduler flows(sim);
    auto* link = flows.create_resource("link", net::mb_per_sec(1000));
    sim::WaitGroup wg(sim);
    for (int i = 0; i < concurrent; ++i) {
      wg.launch([](sim::Simulation& s, net::FlowScheduler& f,
                   net::Resource* r, int idx) -> sim::Task<void> {
        co_await s.delay(simtime::millis(idx));
        for (int k = 0; k < 8; ++k) {
          std::vector<net::Resource*> rs{r};
          co_await f.transfer(1e6, std::move(rs));
        }
      }(sim, flows, link, i));
    }
    sim.run();
    benchmark::DoNotOptimize(flows.completed_flows());
  }
  state.SetItemsProcessed(state.iterations() * concurrent * 8);
}
BENCHMARK(BM_FlowChurn)->Arg(8)->Arg(64)->Arg(256);

struct PingReq {
  static constexpr const char* kName = "bench.ping";
  std::uint64_t wire_size() const { return 32; }
};
struct PingResp {
  std::uint64_t wire_size() const { return 32; }
};

/// One client and one server on a single site, pinging each other with a
/// small message; `admit` is the server's admission hook (empty: none).
struct PingBench {
  explicit PingBench(rpc::Node::AdmissionHook admit = {})
      : cluster(sim, net::Topology::single_site()),
        server(cluster.add_node(0)),
        client(cluster.add_node(0)) {
    server->serve<PingReq, PingResp>(
        [](const PingReq&, const rpc::Envelope&)
            -> sim::Task<Result<PingResp>> { co_return PingResp{}; });
    server->set_admission(std::move(admit));
  }

  /// Runs one call to completion; returns whether it succeeded.
  bool one_call() {
    bool done = false;
    bool ok = false;
    sim.spawn([](rpc::Cluster& c, rpc::Node& n, NodeId to, bool& flag,
                 bool& good) -> sim::Task<void> {
      auto r = co_await c.call<PingReq, PingResp>(n, to, PingReq{});
      benchmark::DoNotOptimize(r);
      good = r.ok();
      flag = true;
    }(cluster, *client, server->id(), done, ok));
    while (!done && sim.step()) {
    }
    return ok;
  }

  /// Times calls with the frame pool warm. Reports the frame pool's trips
  /// to the heap per timed call (`frame_heap_allocs_per_op`), and every
  /// global operator new per call (`all_allocs_per_op`), counted over a
  /// fixed batch after the timed loop, where the harness allocates nothing.
  void measure(benchmark::State& state, bool expect_ok) {
    for (int i = 0; i < 16; ++i) {  // warm the frame pool
      if (one_call() != expect_ok) {
        state.SkipWithError("unexpected call outcome");
        return;
      }
    }
    const std::uint64_t frame_allocs_before =
        sim::FramePool::instance().stats().heap_allocs;
    for (auto _ : state) {
      one_call();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["frame_heap_allocs_per_op"] =
        static_cast<double>(sim::FramePool::instance().stats().heap_allocs -
                            frame_allocs_before) /
        static_cast<double>(state.iterations());
    constexpr int kBatch = 1000;
    const std::uint64_t allocs_before = bench::alloc_probe::allocations();
    for (int i = 0; i < kBatch; ++i) one_call();
    state.counters["all_allocs_per_op"] =
        static_cast<double>(bench::alloc_probe::allocations() -
                            allocs_before) /
        kBatch;
  }

  sim::Simulation sim;
  rpc::Cluster cluster;
  rpc::Node* server;
  rpc::Node* client;
};

// A served round trip. Every coroutine frame on the path (client task,
// call, call body, handler) and every shared body (request, response, call
// state) comes from the frame pool, and the call's one waiter sits in its
// event's inline slot: 0 global allocations per call once the pool is warm.
void BM_RpcRoundTrip(benchmark::State& state) {
  PingBench bench;
  bench.measure(state, true);
}
BENCHMARK(BM_RpcRoundTrip);

// A round trip the server's admission hook refuses, the shape of most
// calls in a DoS flood. The refusal's error text is longer than the
// small-string buffer, so each call allocates exactly once: the hook's own
// Error, which then moves to the caller without a copy.
void BM_RpcRefused(benchmark::State& state) {
  PingBench bench([](const rpc::Envelope&, const char*) -> Result<void> {
    return Error{Errc::blocked, "client is blocked by the security policy"};
  });
  bench.measure(state, false);
}
BENCHMARK(BM_RpcRefused);

// Same round trip with a TraceSink + MetricsRegistry installed: the cost of
// actually recording spans/counters. BM_RpcRoundTrip above is the
// tracing-compiled-in-but-disabled case; the BS_TRACE=OFF build of it is the
// compiled-out baseline the <2% overhead acceptance compares against.
void BM_RpcRoundTripTraced(benchmark::State& state) {
  sim::Simulation sim;
  obs::TraceSink sink;
  obs::MetricsRegistry registry;
  sim.attach_trace(sink);
  obs::ScopedMetrics metrics_scope(registry);
  rpc::Cluster cluster(sim, net::Topology::single_site());
  rpc::Node* server = cluster.add_node(0);
  rpc::Node* client = cluster.add_node(0);
  server->serve<PingReq, PingResp>(
      [](const PingReq&, const rpc::Envelope&)
          -> sim::Task<Result<PingResp>> { co_return PingResp{}; });
  for (auto _ : state) {
    bool done = false;
    sim.spawn([](rpc::Cluster& c, rpc::Node& n, NodeId to,
                 bool& flag) -> sim::Task<void> {
      auto r = co_await c.call<PingReq, PingResp>(n, to, PingReq{});
      benchmark::DoNotOptimize(r);
      flag = true;
    }(cluster, *client, server->id(), done));
    while (!done && sim.step()) {
    }
  }
  sim::Simulation::detach_trace();
  state.SetItemsProcessed(state.iterations());
  state.counters["trace_records"] =
      static_cast<double>(sink.size() + sink.dropped());
}
BENCHMARK(BM_RpcRoundTripTraced);

}  // namespace

BENCHMARK_MAIN();

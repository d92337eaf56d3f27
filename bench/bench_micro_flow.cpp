// Microbenchmark: flow-scheduler arrival/departure cost as a function of
// the number of concurrently active flows, for the two topology extremes:
//  - disjoint: every background flow sits on its own private link, so the
//    churned flow's contention component is just itself. The incremental
//    scheduler's per-event cost is O(1) here; the reference path re-settles
//    and refills the entire flow population on every event.
//  - shared: all background flows (and the churned flow) cross one common
//    link, so the component IS the population and both paths are O(F) —
//    the incremental scheduler's worst case.
//
// Args: {background flows, shared(0/1), incremental(0/1)}.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "net/flow.hpp"
#include "sim/sync.hpp"

using namespace bs;

namespace {

// Large enough that background flows outlive the benchmark, small enough
// that their ETAs stay well inside the simulated-time horizon.
constexpr double kBackgroundBytes = 1e15;

void BM_FlowArrivalDeparture(benchmark::State& state) {
  const int background = static_cast<int>(state.range(0));
  const bool shared = state.range(1) != 0;
  const bool incremental = state.range(2) != 0;
  sim::Simulation sim;
  net::FlowScheduler flows(sim);
  flows.set_incremental(incremental);
  auto* churn_link = flows.create_resource("churn", net::mb_per_sec(1000));
  auto* shared_link = flows.create_resource("shared", net::mb_per_sec(1000));
  for (int i = 0; i < background; ++i) {
    net::Resource* r =
        shared ? shared_link
               : flows.create_resource("bg" + std::to_string(i),
                                       net::mb_per_sec(1000));
    sim.spawn(flows.transfer(kBackgroundBytes, {r}));
  }
  std::vector<net::Resource*> path{churn_link};
  if (shared) path.push_back(shared_link);
  for (auto _ : state) {
    bool done = false;
    sim.spawn([](net::FlowScheduler& f, std::vector<net::Resource*> p,
                 bool& flag) -> sim::Task<void> {
      co_await f.transfer(1e6, std::move(p));
      flag = true;
    }(flows, path, done));
    while (!done) sim.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel((shared ? "shared/" : "disjoint/") +
                 std::string(incremental ? "incremental" : "reference"));
}

}  // namespace

BENCHMARK(BM_FlowArrivalDeparture)
    ->ArgsProduct({{10, 100, 1000, 5000, 10000}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();

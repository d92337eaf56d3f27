// Footprint guard for the far ladder. A pooled population keeps about one
// pending event per client, and the engaged ladder stores each one once:
// a key in the far pool or the stage rung, and a body in its far slot from
// push until it runs. With the pool's storage reserved up front, running
// the population must ask operator new for less than two callbacks' worth
// per client. A second copy of the bodies in the rung, or a pool that
// outgrows its reservation, costs more than that.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_probe.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/lite_clients.hpp"

namespace bs::sim {
namespace {

TEST(QueueCost, LitePoolRunRequestsUnderTwoCallbacksPerClient) {
  constexpr std::size_t kClients = 50'000;  // past the ladder's engage point
  Simulation sim;
  const net::Topology topo = net::Topology::grid5000(9);
  workload::LiteParams params;
  params.clients = kClients;
  params.end = simtime::minutes(60);
  params.seed = 0x5eed;
  workload::LiteClientPool pool(sim, topo, params);  // reserves the queue

  const std::uint64_t before = bench::alloc_probe::bytes_allocated();
  pool.start();
  sim.run();
  const std::uint64_t bytes = bench::alloc_probe::bytes_allocated() - before;

  EXPECT_GT(pool.total_ops(), 5 * kClients);  // the population really ran
  EXPECT_LT(bytes, 2 * kClients * sizeof(InlineCallback))
      << static_cast<double>(bytes) / kClients << " bytes per client";
}

}  // namespace
}  // namespace bs::sim

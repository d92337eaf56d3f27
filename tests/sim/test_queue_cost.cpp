// Footprint guard for the far ladder. A pooled population keeps about one
// pending event per client, and the engaged ladder stores each one once:
// a 24-byte key in the far key array (the rung is its sorted prefix) and a
// 32-byte body in its far slot from push until it runs. The probe window
// opens before the pool is built, so the reservation the pool declares
// counts along with everything running the population asks for: under
// 100 bytes per client in all. A rung gathered into an array of its own,
// a body buffer past 24 bytes, or a key array that outgrows its
// reservation costs more than that.
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

TEST(QueueCost, LitePoolRequestsUnder100BytesPerClient) {
  constexpr std::size_t kClients = 50'000;  // past the ladder's engage point
  Simulation sim;
  const net::Topology topo = net::Topology::grid5000(9);
  workload::LiteParams params;
  params.clients = kClients;
  params.end = simtime::minutes(60);
  params.seed = 0x5eed;

  const std::uint64_t before = bench::alloc_probe::bytes_allocated();
  workload::LiteClientPool pool(sim, topo, params);  // reserves the queue
  const std::uint64_t built = bench::alloc_probe::bytes_allocated();
  pool.start();
  sim.run();
  const std::uint64_t done = bench::alloc_probe::bytes_allocated();

  EXPECT_GT(pool.total_ops(), 5 * kClients);  // the population really ran
  EXPECT_LT(done - before, 100 * kClients)
      << static_cast<double>(built - before) / kClients
      << " bytes per client to build, "
      << static_cast<double>(done - built) / kClients << " to run";
}

}  // namespace
}  // namespace bs::sim

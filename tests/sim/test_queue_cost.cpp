// Footprint guards for the far ladder. A pooled population keeps about one
// pending event per client, and the engaged ladder stores each one once:
// a 16-byte key in the far key array (the rung is its sorted prefix) and a
// 24-byte body in its far slot from push until it runs. No free list sits
// beside them: a key whose event has run names the slot it freed, and a
// later far push reuses that slot through it. The probe window opens
// before the pool is built, so the reservation the pool declares counts
// along with everything running the population asks for: under 62 bytes
// per client in all. A key with a 64-bit sequence number, a rung gathered
// into an array of its own, a body buffer past 16 bytes, a free list, or a
// key array that outgrows its reservation costs more than that.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "alloc_probe.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/lite_clients.hpp"

namespace bs::sim {
namespace {

TEST(QueueCost, LitePoolRequestsUnder62BytesPerClient) {
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
  EXPECT_LT(done - before, 62 * kClients)
      << static_cast<double>(built - before) / kClients
      << " bytes per client to build, "
      << static_cast<double>(done - built) / kClients << " to run";
}

constexpr std::size_t kEvents = 32'768;  // past the ladder's engage point
constexpr SimDuration kPeriod = simtime::millis(1);
constexpr SimDuration kSpan = static_cast<SimDuration>(kEvents) * kPeriod;

struct Done {
  void operator()() const {}
};

/// Far event queued at a whole period that re-arms once when it runs: at
/// odd periods half a period out, which lands in the near heap below the
/// bar and leaves the slot it freed unfilled; at even ones a whole span
/// out, which fills the consumed hole. 16 bytes, so it stays inline.
struct Once {
  std::shared_ptr<Simulation*> sim;
  void operator()() const {
    Simulation& s = **sim;
    const bool near = (s.now() / kPeriod) % 2 != 0;
    s.schedule_in(near ? kPeriod / 2 : kSpan, Done{});
  }
};

TEST(QueueCost, FarPushesReuseSlotsRefillsParked) {
  // Refills park what pushes left of each consumed hole as spare keys
  // after the pool. Once the far pool has run below its reservation, a
  // burst that brings it back up must find every freed slot, in the hole
  // and among the spares, and ask for nothing beyond the reservation.
  auto box = std::make_shared<Simulation*>(nullptr);
  Simulation sim;
  *box = &sim;
  const std::uint64_t before = bench::alloc_probe::bytes_allocated();
  sim.reserve(kEvents);
  const std::uint64_t reserved = bench::alloc_probe::bytes_allocated();
  // The reservation: a 16-byte key and a body per declared event.
  EXPECT_EQ(reserved - before, kEvents * (16 + sizeof(InlineCallback)));

  for (std::size_t i = 0; i < kEvents; ++i) {
    sim.schedule_at(static_cast<SimTime>(i + 1) * kPeriod, Once{box});
  }
  // Into the third rung (the first two each parked half their hole),
  // between two periods and after every near re-arm, so only far events
  // are pending. The burst lands beyond every queued time, so all of it
  // goes far.
  const SimTime cut = 30'000 * kPeriod + kPeriod * 3 / 4;
  sim.run_until(cut);
  const std::size_t free_slots = kEvents - sim.pending();
  ASSERT_GT(free_slots, kEvents / 4);
  for (std::size_t i = 0; i < free_slots; ++i) {
    sim.schedule_at(2 * kSpan + static_cast<SimTime>(i + 1) * kPeriod,
                    Done{});
  }
  EXPECT_EQ(sim.pending(), kEvents);
  const std::uint64_t refilled = bench::alloc_probe::bytes_allocated();
  sim.run();
  const std::uint64_t done = bench::alloc_probe::bytes_allocated();

  EXPECT_EQ(sim.events_processed(), 2 * kEvents + free_slots);
  // The near heap holds at most one re-armed event at a time; everything
  // else must come from the reservation.
  EXPECT_LT(refilled - reserved, 1024u)
      << refilled - reserved << " bytes asked for beyond the reservation";
  EXPECT_LT(done - reserved, 1024u);
}

}  // namespace
}  // namespace bs::sim

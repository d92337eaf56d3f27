// Pooled lightweight client actors for production-scale populations: one
// flat POD record per client instead of a coroutine frame, woken by
// InlineCallback ticks on the simulator's event queue. With the far ladder
// engaged a client costs about 44 bytes: its 4-byte record and its one
// pending event's 16-byte far key and 24-byte body. The million-client
// experiment of bench_million_clients thus peaks near 51 MB, where
// coroutine-frame actors (workload/clients.hpp) would not fit.
//
// Every tick touches only its site's shard (stats, per-site Rng); a
// cross-site message lands at the destination one WAN latency out. The pool
// declares its size to the simulator, which engages the far ladder at
// population scale; the digest is bit-identical with the ladder engaged or
// parked (DESIGN.md "One event queue and the far ladder").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace bs::workload {

struct LiteParams {
  std::size_t clients{1'000'000};  ///< split evenly across sites
  SimTime start{0};
  SimTime end{simtime::minutes(120)};  ///< ticks past this are not rescheduled
  /// Mean think time between a client's requests at peak diurnal load.
  SimDuration mean_period{simtime::seconds(300)};
  std::uint64_t seed{0x11e7'c11e'7001ull};
  /// Declare the population to Simulation::reserve(), which engages the
  /// far ladder at scale. bench_million_clients turns it off for its
  /// pure-heap oracle run.
  bool reserve_queue{true};
};

/// A population of pooled clients over a multi-site topology, with a
/// diurnal arrival curve phase-shifted per site (each site peaks at a
/// different simulated hour, like geographically distributed users).
class LiteClientPool {
 public:
  LiteClientPool(sim::Simulation& sim, const net::Topology& topo,
                 LiteParams params);

  /// Seeds every client's first wakeup (staggered over one mean period).
  void start();

  struct SiteStats {
    std::uint64_t ops{0};          ///< requests served for local clients
    std::uint64_t bytes{0};        ///< deterministic per-op payload total
    std::uint64_t cross_sent{0};   ///< messages sent to remote sites
    std::uint64_t cross_recv{0};   ///< messages received from remote sites
    std::uint64_t cross_bytes{0};  ///< payload received from remote sites
    std::uint64_t mix{0};          ///< order-sensitive hash of local ticks
  };

  [[nodiscard]] const SiteStats& site_stats(std::size_t site) const {
    return shards_[site].stats;
  }
  [[nodiscard]] std::size_t sites() const { return shards_.size(); }
  [[nodiscard]] std::uint64_t total_ops() const;

  /// FNV-1a over per-site stats in site order — insensitive to how
  /// different sites' ticks interleave, sensitive to any change in what a
  /// site's clients actually did (including local tick order via `mix`).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct Client {
    std::uint32_t ops{0};
  };
  struct Shard {
    LiteClientPool* pool{nullptr};
    std::size_t site{0};
    double phase{0};  ///< diurnal phase shift in [0, 1)
    Rng rng;          ///< consumed only by this site's ticks, in order
    std::vector<Client> clients;
    SiteStats stats;
  };
  /// Client wakeup: 12 bytes of fields, 16 with padding, always inline in
  /// the event callback.
  struct Tick {
    Shard* shard;
    std::uint32_t idx;
    void operator()() const { shard->pool->on_tick(*shard, idx); }
  };
  /// Cross-site message: integer adds only, no Rng, so the receiving
  /// site's stats do not depend on how same-time arrivals interleave.
  struct CrossMsg {
    Shard* dst;
    std::uint32_t bytes;
    void operator()() const {
      ++dst->stats.cross_recv;
      dst->stats.cross_bytes += bytes;
    }
  };
  static_assert(sim::InlineCallback::fits_inline<Tick>());
  static_assert(sim::InlineCallback::fits_inline<CrossMsg>());

  void on_tick(Shard& shard, std::uint32_t idx);
  /// Diurnal load multiplier in (0, 1] for a site at simulated time t.
  [[nodiscard]] double diurnal(const Shard& shard, SimTime t) const;

  sim::Simulation& sim_;
  const net::Topology& topo_;
  LiteParams params_;
  std::vector<Shard> shards_;
};

}  // namespace bs::workload

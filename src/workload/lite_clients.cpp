#include "workload/lite_clients.hpp"

#include <cmath>

namespace bs::workload {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}
}  // namespace

LiteClientPool::LiteClientPool(sim::Simulation& sim,
                               const net::Topology& topo, LiteParams params)
    : sim_(sim), topo_(topo), params_(params) {
  const std::size_t sites = topo.site_count();
  shards_.resize(sites);
  const std::size_t base = params_.clients / sites;
  const std::size_t extra = params_.clients % sites;
  for (std::size_t s = 0; s < sites; ++s) {
    Shard& sh = shards_[s];
    sh.pool = this;
    sh.site = s;
    sh.phase = static_cast<double>(s) / static_cast<double>(sites);
    sh.rng = Rng(params_.seed ^ (0x5157'ee17'0000ull + s));
    sh.clients.resize(base + (s < extra ? 1 : 0));
  }
  // Every client keeps roughly one pending wakeup, so the steady-state
  // queue holds the whole population. Declaring it lets the simulator
  // engage its far ladder before start() floods the queue.
  if (params_.reserve_queue) sim_.reserve(params_.clients);
}

void LiteClientPool::start() {
  // Stagger every client's first wakeup across one mean period so the
  // population does not tick in lockstep.
  for (Shard& sh : shards_) {
    const auto n = static_cast<std::uint32_t>(sh.clients.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto offset = static_cast<SimDuration>(
          sh.rng.next_double() * static_cast<double>(params_.mean_period));
      sim_.schedule_at(params_.start + offset, Tick{&sh, i});
    }
  }
}

double LiteClientPool::diurnal(const Shard& shard, SimTime t) const {
  // One 24h-period sine per site, phase-shifted so sites peak at different
  // simulated hours; floor of 0.15 keeps off-peak sites alive.
  constexpr double kDay = static_cast<double>(simtime::minutes(24 * 60));
  const double frac = static_cast<double>(t) / kDay + shard.phase;
  const double wave = 0.5 * (1.0 + std::sin(2.0 * 3.14159265358979323846 *
                                            frac));
  return 0.15 + 0.85 * wave;
}

void LiteClientPool::on_tick(Shard& shard, std::uint32_t idx) {
  const SimTime now = sim_.now();
  SiteStats& st = shard.stats;
  ++st.ops;
  ++shard.clients[idx].ops;
  const auto bytes =
      static_cast<std::uint32_t>(512 + shard.rng.next_below(4096));
  st.bytes += bytes;
  // Order-sensitive local mix: any reordering of this site's ticks changes
  // the digest, pinning execution order across queue tiers.
  st.mix = fnv_mix(st.mix, (static_cast<std::uint64_t>(idx) << 20) ^ bytes);

  const std::size_t sites = shards_.size();
  if (sites > 1 && shard.rng.chance(params_.cross_site_fraction)) {
    std::size_t dst = shard.rng.next_below(sites - 1);
    if (dst >= shard.site) ++dst;
    ++st.cross_sent;
    // The message lands at the destination site one WAN latency out.
    const SimDuration wan = topo_.latency(shard.site, dst);
    sim_.schedule_at(now + wan, CrossMsg{&shards_[dst], bytes});
  }

  const double mean =
      static_cast<double>(params_.mean_period) / diurnal(shard, now);
  auto dt = static_cast<SimDuration>(shard.rng.exponential(mean));
  if (dt < 1) dt = 1;
  const SimTime next = now + dt;
  if (next <= params_.end) {
    sim_.schedule_at(next, Tick{&shard, idx});
  }
}

std::uint64_t LiteClientPool::total_ops() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.stats.ops;
  return n;
}

std::uint64_t LiteClientPool::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const Shard& sh : shards_) {
    const SiteStats& st = sh.stats;
    h = fnv_mix(h, st.ops);
    h = fnv_mix(h, st.bytes);
    h = fnv_mix(h, st.cross_sent);
    h = fnv_mix(h, st.cross_recv);
    h = fnv_mix(h, st.cross_bytes);
    h = fnv_mix(h, st.mix);
  }
  return h;
}

}  // namespace bs::workload

#include "net/topology.hpp"

#include <array>
#include <cassert>

namespace bs::net {

SiteId Topology::add_site(std::string name, SimDuration lan_latency) {
  const SiteId id = sites_.size();
  sites_.push_back(Site{std::move(name), lan_latency});
  for (auto& row : wan_) row.push_back(0);
  wan_.emplace_back(sites_.size(), SimDuration{0});
  return id;
}

void Topology::set_inter_site_latency(SiteId a, SiteId b,
                                      SimDuration latency) {
  assert(a < sites_.size() && b < sites_.size());
  wan_[a][b] = latency;
  wan_[b][a] = latency;
}

SimDuration Topology::latency(SiteId a, SiteId b) const {
  assert(a < sites_.size() && b < sites_.size());
  if (a == b) return sites_[a].lan_latency;
  // The WAN matrix is symmetric by construction (set_inter_site_latency
  // writes both triangles); min_cross_site_latency() depends on it, so
  // debug builds re-check the invariant on every read.
  assert(wan_[a][b] == wan_[b][a] && "WAN latency matrix must be symmetric");
  assert(wan_[a][b] > 0 && "cross-site latency must be positive");
  return wan_[a][b];
}

SimDuration Topology::min_cross_site_latency() const {
  SimDuration best = simtime::kInfinite;
  for (std::size_t a = 0; a < sites_.size(); ++a) {
    for (std::size_t b = a + 1; b < sites_.size(); ++b) {
      assert(wan_[a][b] == wan_[b][a] &&
             "WAN latency matrix must be symmetric");
      if (wan_[a][b] < best) best = wan_[a][b];
    }
  }
  return best;
}

Topology Topology::grid5000(std::size_t sites) {
  static constexpr std::array<const char*, 9> kNames = {
      "rennes",  "grenoble", "lille",    "lyon",    "nancy",
      "orsay",   "sophia",   "toulouse", "bordeaux"};
  Topology t;
  for (std::size_t i = 0; i < sites; ++i) {
    const char* name =
        i < kNames.size() ? kNames[i] : "site";
    std::string full = i < kNames.size()
                           ? std::string(name)
                           : std::string(name) + std::to_string(i);
    t.add_site(std::move(full), simtime::micros(100));
  }
  // Deterministic WAN latencies in 4–12 ms, loosely increasing with
  // "distance" between site indices (the real RENATER links are in this
  // range).
  for (std::size_t a = 0; a < sites; ++a) {
    for (std::size_t b = a + 1; b < sites; ++b) {
      const auto dist = b - a;
      const double ms = 4.0 + static_cast<double>((dist * 7 + a * 3) % 9);
      t.set_inter_site_latency(a, b, simtime::millis(ms));
    }
  }
  return t;
}

Topology Topology::single_site(SimDuration lan_latency) {
  Topology t;
  t.add_site("local", lan_latency);
  return t;
}

}  // namespace bs::net

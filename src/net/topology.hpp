// Multi-site cluster topology modelled after Grid'5000: a set of sites, each
// with LAN latency, connected by a WAN latency matrix. Nodes are assigned to
// sites; the RPC layer asks the topology for one-way latency between nodes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bs::net {

using SiteId = std::size_t;

class Topology {
 public:
  /// A topology shaped like the Grid'5000 testbed used in the paper:
  /// `sites` geographically distributed sites (default 9), 0.1 ms LAN
  /// latency, 4–12 ms WAN latency between sites, deterministic.
  static Topology grid5000(std::size_t sites = 9);

  /// Single-site topology (for unit tests and microbenchmarks).
  static Topology single_site(SimDuration lan_latency = simtime::micros(100));

  SiteId add_site(std::string name, SimDuration lan_latency);

  void set_inter_site_latency(SiteId a, SiteId b, SimDuration latency);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const std::string& site_name(SiteId s) const {
    return sites_[s].name;
  }

  /// One-way latency between two sites (LAN latency when a == b).
  [[nodiscard]] SimDuration latency(SiteId a, SiteId b) const;

  /// Smallest one-way WAN latency between any pair of distinct sites: an
  /// event executing at time t on one site cannot affect another site
  /// before t + min_cross_site_latency(). Returns simtime::kInfinite for
  /// single-site topologies (no cross-site edge).
  [[nodiscard]] SimDuration min_cross_site_latency() const;

  /// Shared WAN backbone bandwidth per distinct site pair, in bytes/s. The
  /// RPC layer threads every cross-site data-plane transfer through the
  /// pair's backbone resource, so bulk catch-up after a heal drains at link
  /// rate instead of instantaneously. 0 (the default) keeps the legacy
  /// uncapped backbone — NICs and disks remain the only bottlenecks.
  void set_wan_bandwidth(double bps) { wan_bps_ = bps; }
  [[nodiscard]] double wan_bandwidth() const { return wan_bps_; }

 private:
  struct Site {
    std::string name;
    SimDuration lan_latency;
  };
  std::vector<Site> sites_;
  std::vector<std::vector<SimDuration>> wan_;  // symmetric matrix
  double wan_bps_{0.0};
};

}  // namespace bs::net

// Topology latency-matrix properties: the symmetric/positive invariants the
// simulation leans on, and a pinned grid5000 minimum WAN latency so an
// accidental change to the WAN matrix fails loudly.
#include <gtest/gtest.h>

#include "common/types.hpp"
#include "net/topology.hpp"

namespace bs::net {
namespace {

TEST(Topology, Grid5000MinCrossSiteLatencyPinned) {
  // The grid5000 WAN matrix is 4-12 ms; the minimum one-way edge is
  // exactly 4 ms. Pinned: changing the matrix changes every cross-site
  // delivery time.
  const Topology topo = Topology::grid5000();
  EXPECT_EQ(topo.min_cross_site_latency(), simtime::millis(4.0));
}

TEST(Topology, Grid5000MinIsTheMatrixMinimum) {
  const Topology topo = Topology::grid5000(9);
  SimDuration min_edge = simtime::kInfinite;
  for (SiteId a = 0; a < topo.site_count(); ++a) {
    for (SiteId b = 0; b < topo.site_count(); ++b) {
      if (a == b) continue;
      min_edge = std::min(min_edge, topo.latency(a, b));
    }
  }
  EXPECT_EQ(topo.min_cross_site_latency(), min_edge);
}

TEST(Topology, SingleSiteHasInfiniteLookahead) {
  // No cross-site edge: the minimum over an empty set is kInfinite.
  const Topology topo = Topology::single_site();
  EXPECT_EQ(topo.min_cross_site_latency(), simtime::kInfinite);
}

TEST(Topology, LatencyMatrixIsSymmetricAndPositive) {
  const Topology topo = Topology::grid5000(9);
  for (SiteId a = 0; a < topo.site_count(); ++a) {
    EXPECT_GT(topo.latency(a, a), 0) << "LAN latency must be positive";
    for (SiteId b = 0; b < topo.site_count(); ++b) {
      EXPECT_EQ(topo.latency(a, b), topo.latency(b, a))
          << "one-way latency must be symmetric for sites " << a << "," << b;
      EXPECT_GT(topo.latency(a, b), 0);
    }
  }
}

TEST(Topology, WanEdgesDominateLanLatency) {
  // Cross-site latency must exceed intra-site latency.
  const Topology topo = Topology::grid5000(9);
  for (SiteId a = 0; a < topo.site_count(); ++a) {
    for (SiteId b = 0; b < topo.site_count(); ++b) {
      if (a == b) continue;
      EXPECT_GT(topo.latency(a, b), topo.latency(a, a));
    }
  }
}

TEST(Topology, MinCrossSiteLatencyTracksEdits) {
  Topology topo;
  const SiteId a = topo.add_site("a", simtime::micros(100));
  const SiteId b = topo.add_site("b", simtime::micros(100));
  const SiteId c = topo.add_site("c", simtime::micros(100));
  topo.set_inter_site_latency(a, b, simtime::millis(8));
  topo.set_inter_site_latency(a, c, simtime::millis(6));
  topo.set_inter_site_latency(b, c, simtime::millis(10));
  EXPECT_EQ(topo.min_cross_site_latency(), simtime::millis(6));
}

}  // namespace
}  // namespace bs::net

// Replication plane: ties the custody egresses, the version maps and the
// reconciler to a running BlobSeer deployment. One SiteEgress per topology
// site, each on its own light node (created after the deployment's nodes,
// so existing node ids stay stable). The version manager's site is the
// origin: its egress holds the authoritative map and the retained history
// that reconciliation re-synthesizes catch-up from.
//
// Wiring:
//   - version manager geo hooks  -> origin bookkeeping + publish custody
//     fan-out to every remote site
//   - data provider replicate router -> cross-site chunk replication rides
//     custody instead of a direct (partition-fragile) RPC
//   - provider manager reachability -> allocation skips providers behind a
//     known partition
//   - fault plane link listener -> parks/resumes drains, kicks the
//     reconciler on heal, and feeds the reconciliation-lag metric
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "blob/deployment.hpp"
#include "repl/egress.hpp"
#include "repl/reconciler.hpp"
#include "rpc/rpc.hpp"

namespace bs::fault {
class FaultPlane;
}

namespace bs::repl {

struct ReplOptions {
  EgressOptions egress{};
  ReconcilerOptions reconcile{};
};

class ReplicationPlane {
 public:
  ReplicationPlane(rpc::Cluster& cluster, net::SiteId origin_site,
                   ReplOptions opts);
  ReplicationPlane(const ReplicationPlane&) = delete;
  ReplicationPlane& operator=(const ReplicationPlane&) = delete;

  // ---------------------------------------------------------------- wiring
  /// All-in-one deployment wiring (version manager, provider manager,
  /// every data provider). The fault plane is attached separately because
  /// tests construct it after the deployment.
  void attach(blob::Deployment& dep);
  void attach_version_manager(blob::VersionManager& vm);
  void attach_provider_manager(blob::ProviderManager& pm);
  void attach_data_provider(blob::DataProvider& dp);
  void attach_fault_plane(fault::FaultPlane& fp);
  /// Starts the reconciler's anti-entropy loop.
  void start();

  // ------------------------------------------------------------ inspection
  [[nodiscard]] rpc::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const ReplOptions& options() const { return opts_; }
  [[nodiscard]] net::SiteId origin_site() const { return origin_; }
  [[nodiscard]] NodeId origin_egress_node() const;
  [[nodiscard]] SiteEgress& egress(net::SiteId site);
  [[nodiscard]] const SiteEgress& egress(net::SiteId site) const;
  [[nodiscard]] std::vector<net::SiteId> remote_sites() const;
  [[nodiscard]] bool partitioned(net::SiteId a, net::SiteId b) const;

  /// Post-heal check: `site`'s map is coherent against the origin's.
  [[nodiscard]] bool site_coherent(net::SiteId site) const;
  /// Every remote site coherent against the origin.
  [[nodiscard]] bool coherent() const;

  [[nodiscard]] Reconciler& reconciler() { return *reconciler_; }
  [[nodiscard]] std::uint64_t heals_observed() const { return heals_; }
  [[nodiscard]] SimDuration last_reconcile_lag() const { return last_lag_; }
  [[nodiscard]] std::uint64_t chunks_routed() const { return chunks_routed_; }
  [[nodiscard]] CustodyQueueStats total_custody_stats() const;
  /// Order-sensitive digest over every egress (determinism suites).
  [[nodiscard]] std::uint64_t digest() const;

  // ----------------------------------------------- internal (reconciler)
  void note_progress(net::SiteId site);
  void note_heal(net::SiteId a, net::SiteId b);

 private:
  struct PerSite {
    rpc::Node* node{nullptr};
    std::unique_ptr<SiteEgress> egress;
  };

  [[nodiscard]] static std::uint64_t pair_key(net::SiteId a, net::SiteId b) {
    const std::uint64_t lo = a < b ? a : b;
    const std::uint64_t hi = a < b ? b : a;
    return (hi << 32) | lo;
  }

  void on_link(net::SiteId a, net::SiteId b, bool is_partitioned);
  /// Rebuilds the origin egress's authoritative state from the version
  /// manager after a custody-store wipe (catch-up then flows through the
  /// next reconciliation round).
  void reprime_origin();

  rpc::Cluster& cluster_;
  ReplOptions opts_;
  net::SiteId origin_;
  blob::VersionManager* vm_{nullptr};
  std::map<net::SiteId, PerSite> sites_;
  std::unique_ptr<Reconciler> reconciler_;
  std::set<std::uint64_t> partitioned_;

  /// Reconciliation-lag bookkeeping: a heal involving the origin arms the
  /// remote site; the first coherent progress point records the lag.
  struct LagState {
    bool pending{false};
    SimTime healed_at{0};
  };
  std::map<net::SiteId, LagState> lag_;
  SimDuration last_lag_{0};
  std::uint64_t heals_{0};
  std::uint64_t chunks_routed_{0};
};

}  // namespace bs::repl

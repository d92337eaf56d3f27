// Provider manager actor: registry of live data providers (heartbeat-based
// liveness) plus the allocation strategy mapping new chunks to providers.
// The self-configuration engine grows/shrinks the pool through this actor
// (register / decommission / deregister).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "blob/allocation.hpp"
#include "blob/messages.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

struct ProviderManagerOptions {
  std::string strategy{"load_aware"};
  std::uint64_t rng_seed{42};
};

class ProviderManager {
 public:
  using Options = ProviderManagerOptions;

  ProviderManager(rpc::Node& node, Options options = {});

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] std::size_t provider_count() const { return registry_.size(); }
  [[nodiscard]] std::size_t alive_count() const;

  /// Direct registry snapshot (for tests and same-process engines).
  [[nodiscard]] std::vector<ProviderEntry> snapshot() const;

  /// Health tally over the registry, fed to the Knowledge base so the MAPE
  /// loop can re-provision around failing providers.
  struct HealthCounts {
    std::size_t alive{0};
    std::size_t suspect{0};
    std::size_t dead{0};
  };
  [[nodiscard]] HealthCounts health_counts() const;

  /// Starts the reaper that expires providers missing heartbeats.
  void start_reaper();

  /// Geo-replication steering: when set, allocation for a requester at site
  /// `from` skips providers at any site `to` with reachable(from, to) false
  /// (a known partition would doom the placement's first write).
  using ReachabilityFn = std::function<bool(net::SiteId, net::SiteId)>;
  void set_reachability(ReachabilityFn fn) { reachable_ = std::move(fn); }

 private:
  void register_handlers();
  sim::Task<void> reaper_loop();
  /// Providers a new chunk may land on. Alive entries come first; suspects
  /// are drafted only when the alive pool is narrower than `min_count`
  /// (the requested replication width). Dead providers never place.
  [[nodiscard]] std::vector<ProviderEntry*> eligible(
      std::uint64_t chunk_size, const std::vector<NodeId>& exclude,
      std::size_t min_count, net::SiteId requester_site);
  [[nodiscard]] net::SiteId site_of(NodeId id) const;

  rpc::Node& node_;
  Options options_;
  std::unique_ptr<AllocationStrategy> strategy_;
  Rng rng_;
  std::map<std::uint64_t, ProviderEntry> registry_;  // by NodeId value
  bool reaper_enabled_{false};
  bool reaper_running_{false};
  ReachabilityFn reachable_;
};

}  // namespace bs::blob

// Pluggable chunk-placement strategies for the provider manager ("the
// provider manager ... implements the allocation strategies that map new
// chunks to available data providers", §III-A). Strategies see the live
// provider registry and place one chunk at a time (replication-many distinct
// providers).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blob/messages.hpp"
#include "common/rng.hpp"

namespace bs::blob {

class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;

  /// Picks `replication` distinct providers for one chunk of `chunk_size`
  /// bytes from `candidates` (alive, not decommissioning, not excluded,
  /// enough free space). Returns fewer when the pool is too small. May
  /// mutate entries' pending_allocs to remember in-flight placements.
  virtual std::vector<NodeId> place_chunk(
      std::vector<ProviderEntry*>& candidates, std::uint64_t chunk_size,
      std::uint32_t replication, Rng& rng) = 0;
};

/// Rotates a cursor over the provider list — BlobSeer's default.
class RoundRobinStrategy final : public AllocationStrategy {
 public:
  std::vector<NodeId> place_chunk(std::vector<ProviderEntry*>& candidates,
                                  std::uint64_t chunk_size,
                                  std::uint32_t replication,
                                  Rng& rng) override;

 private:
  std::size_t cursor_{0};
};

/// Uniformly random distinct providers.
class RandomStrategy final : public AllocationStrategy {
 public:
  std::vector<NodeId> place_chunk(std::vector<ProviderEntry*>& candidates,
                                  std::uint64_t chunk_size,
                                  std::uint32_t replication,
                                  Rng& rng) override;
};

/// Power-of-two-choices on a load score mixing recent store rate, pending
/// allocations and fullness — the "load-aware" strategy the self-*
/// machinery prefers.
class LoadAwareStrategy final : public AllocationStrategy {
 public:
  std::vector<NodeId> place_chunk(std::vector<ProviderEntry*>& candidates,
                                  std::uint64_t chunk_size,
                                  std::uint32_t replication,
                                  Rng& rng) override;

  /// Load score of one provider (exposed for tests/benches).
  static double score(const ProviderEntry& e);
};

/// Factory by name: "round_robin" | "random" | "load_aware".
std::unique_ptr<AllocationStrategy> make_strategy(const std::string& name);

}  // namespace bs::blob

// Self-optimization through automatic data replication (§V): maintains each
// blob's replication degree — raising it for read-hot blobs, restoring it
// when providers die — by scanning the latest version's leaves and emitting
// repair actions.
#pragma once

#include <map>

#include "core/module.hpp"

namespace bs::core {

struct ReplicationOptions {
  std::uint32_t max_replication{4};
  /// Each multiple of this read rate (bytes/s) on a blob adds one replica
  /// above the blob's base replication.
  double hot_read_rate{40e6};
};

class ReplicationModule final : public SelfModule {
 public:
  explicit ReplicationModule(
      ReplicationOptions options = ReplicationOptions())
      : options_(options) {}

  const char* name() const override { return "self_optimization.replication"; }

  // bslint: allow(coro-ref-param): knowledge and ctx live as long as
  // the agent; the control loop co_awaits analyze() in one expression
  sim::Task<std::vector<AdaptAction>> analyze(const KnowledgeBase& knowledge,
                                              AgentContext& ctx) override;

  /// Replication degree this module wants for a blob (exposed for tests).
  [[nodiscard]] std::uint32_t desired_replication(std::uint32_t base,
                                                  double read_rate) const;

 private:
  ReplicationOptions options_;
  std::size_t scan_cursor_{0};  ///< round-robin over the blob list
};

}  // namespace bs::core

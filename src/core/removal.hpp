// Self-optimization through configurable data-removal strategies (§V):
// version-history trimming (keep the last K versions), TTL expiry of
// temporary blobs, and LRU eviction of expired/cold temporary data under
// storage pressure.
#pragma once

#include "core/module.hpp"

namespace bs::core {

struct RemovalOptions {
  /// Keep at most this many published versions per blob (0 = unlimited).
  std::size_t keep_versions{0};
  bool ttl_enabled{true};
};

class RemovalModule final : public SelfModule {
 public:
  explicit RemovalModule(RemovalOptions options = RemovalOptions())
      : options_(options) {}

  const char* name() const override { return "self_optimization.removal"; }

  // bslint: allow(coro-ref-param): knowledge and ctx live as long as
  // the agent; the control loop co_awaits analyze() in one expression
  sim::Task<std::vector<AdaptAction>> analyze(const KnowledgeBase& knowledge,
                                              AgentContext& ctx) override;

 private:
  RemovalOptions options_;
};

}  // namespace bs::core

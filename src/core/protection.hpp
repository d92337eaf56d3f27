// Self-protection MAPE module: binds the security framework into the
// autonomic loop. The detection engine runs autonomously; this module makes
// it *adaptive* — scans speed up while rejection pressure indicates an
// ongoing attack and return to the engine's own interval when it is quiet.
#pragma once

#include <optional>

#include "core/module.hpp"

namespace bs::core {

class ProtectionModule final : public SelfModule {
 public:
  const char* name() const override { return "self_protection"; }

  // bslint: allow(coro-ref-param): knowledge and ctx live as long as
  // the agent; the control loop co_awaits analyze() in one expression
  sim::Task<std::vector<AdaptAction>> analyze(const KnowledgeBase& knowledge,
                                              AgentContext& ctx) override;

 private:
  /// The engine's scan interval before hardening; empty while relaxed.
  std::optional<SimDuration> relaxed_scan_;
};

}  // namespace bs::core

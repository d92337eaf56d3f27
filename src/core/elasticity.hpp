// Self-configuration through dynamic data-provider deployment (§V): expands
// and contracts the provider pool based on storage utilization and write
// load, with hysteresis and cooldown so transient spikes don't thrash the
// pool.
#pragma once

#include "core/module.hpp"

namespace bs::core {

struct ElasticityOptions {
  double util_high{0.70};  ///< grow when used/capacity exceeds this
  double util_low{0.25};   ///< shrink candidate when below this
  std::size_t min_providers{2};
  std::size_t max_providers{512};
  int signals_required{2};         ///< consecutive loops before acting
  SimDuration cooldown{simtime::seconds(20)};
};

class ElasticityModule final : public SelfModule {
 public:
  explicit ElasticityModule(ElasticityOptions options = ElasticityOptions())
      : options_(options) {}

  const char* name() const override { return "self_configuration"; }

  // bslint: allow(coro-ref-param): knowledge and ctx live as long as
  // the agent; the control loop co_awaits analyze() in one expression
  sim::Task<std::vector<AdaptAction>> analyze(const KnowledgeBase& knowledge,
                                              AgentContext& ctx) override;

  /// The pool size this module would currently aim for (exposed for tests).
  [[nodiscard]] std::size_t desired_providers(
      const intro::SystemSnapshot& snap) const;

 private:
  ElasticityOptions options_;
  int grow_signals_{0};
  int shrink_signals_{0};
  SimTime last_action_{-simtime::kNanosPerSec * 3600};
};

}  // namespace bs::core

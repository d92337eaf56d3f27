#include "sec/framework.hpp"

#include <cassert>

namespace bs::sec {

SecurityFramework::SecurityFramework(
    sim::Simulation& sim, const intro::UserActivityHistory& activity,
    SecurityConfig config)
    : enforcement_(sim, trust_),
      engine_(sim, activity, trust_, enforcement_, config.detection) {
  const std::string source = config.policy_source.empty()
                                 ? default_policy_source()
                                 : config.policy_source;
  auto loaded = engine_.load_source(source);
  assert(loaded.ok() && "policy source must parse");
  (void)loaded;
}

void SecurityFramework::attach_deployment(blob::Deployment& deployment) {
  attach(deployment.version_manager_node());
  attach(deployment.provider_manager_node());
  for (auto& p : deployment.providers()) attach(p->node());
  for (auto& mp : deployment.metadata_providers()) {
    attach(*deployment.cluster().node(mp->id()));
  }
}

}  // namespace bs::sec

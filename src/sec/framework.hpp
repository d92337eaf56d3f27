// SecurityFramework: the assembled self-protection stack (User Activity
// History -> Detection Engine -> Enforcement -> admission feedback into
// every BlobSeer actor), "designed to be generic, so that it can be employed
// in conjunction with any system that can monitor and store relevant user
// activity" — the BlobSeer binding lives entirely in attach_deployment().
#pragma once

#include "blob/deployment.hpp"
#include "intro/introspection.hpp"
#include "sec/engine.hpp"

namespace bs::sec {

struct SecurityConfig {
  DetectionOptions detection{};
  std::string policy_source;  ///< empty = default_policy_source()
};

class SecurityFramework {
 public:
  SecurityFramework(sim::Simulation& sim,
                    const intro::UserActivityHistory& activity,
                    SecurityConfig config = SecurityConfig());

  /// Installs the enforcement admission hook on every current BlobSeer
  /// actor node of the deployment (call again after adding providers).
  void attach_deployment(blob::Deployment& deployment);
  void attach(rpc::Node& node) { enforcement_.attach(node); }

  void start() { engine_.start(); }
  void stop() { engine_.stop(); }

  [[nodiscard]] TrustManager& trust() { return trust_; }
  [[nodiscard]] PolicyEnforcement& enforcement() { return enforcement_; }
  [[nodiscard]] DetectionEngine& engine() { return engine_; }

 private:
  TrustManager trust_;
  PolicyEnforcement enforcement_;
  DetectionEngine engine_;
};

}  // namespace bs::sec

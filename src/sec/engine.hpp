// Security Violation Detection Engine (§III-C): periodically scans the User
// Activity History for the malicious behaviour patterns defined by the
// loaded policies. When a pattern matches, the Policy Enforcement component
// is notified with the violation and applies the policy's feedback actions.
#pragma once

#include <map>

#include "sec/enforcement.hpp"

namespace bs::sec {

struct DetectionOptions {
  SimDuration scan_interval{simtime::seconds(5)};
  /// After firing, the same (client, policy) pair is not re-evaluated for
  /// this long (prevents re-flagging an already-sanctioned attack).
  SimDuration refractory{simtime::seconds(30)};
};

class DetectionEngine {
 public:
  DetectionEngine(sim::Simulation& sim,
                  const intro::UserActivityHistory& activity,
                  TrustManager& trust, PolicyEnforcement& enforcement,
                  DetectionOptions options = DetectionOptions());

  /// Loads (replaces) the active policy set.
  void load(std::vector<Policy> policies);
  Result<void> load_source(const std::string& source);

  void start();
  void stop() { running_ = false; }

  /// One synchronous scan (also called by the periodic loop).
  std::vector<Violation> scan();

  /// Retunes the scan cadence (used by the self-protection MAPE module to
  /// harden under attack and relax when quiet).
  void set_scan_interval(SimDuration interval) {
    options_.scan_interval = interval;
  }
  [[nodiscard]] SimDuration scan_interval() const {
    return options_.scan_interval;
  }

  [[nodiscard]] std::uint64_t scans() const { return scans_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] const std::vector<Policy>& policies() const {
    return policies_;
  }

 private:
  sim::Task<void> scan_loop();

  sim::Simulation& sim_;
  const intro::UserActivityHistory& activity_;
  TrustManager& trust_;
  PolicyEnforcement& enforcement_;
  DetectionOptions options_;
  std::vector<Policy> policies_;
  /// (client, policy index) -> last fire time.
  std::map<std::pair<std::uint64_t, std::size_t>, SimTime> last_fired_;
  bool running_{false};
  std::uint64_t scans_{0};
  std::uint64_t violations_{0};
};

}  // namespace bs::sec

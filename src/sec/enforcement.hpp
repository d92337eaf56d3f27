// Policy Enforcement component (§III-C): turns detected violations into
// sanctions — blocking a client for a (trust- and severity-scaled) period,
// throttling it with a token bucket, logging, alerting, adjusting trust —
// and feeds the decision back into BlobSeer through the admission hook of
// every service node, so blocked clients are rejected before they consume
// any service capacity.
#pragma once

#include <functional>
#include <map>

#include "common/token_bucket.hpp"
#include "rpc/rpc.hpp"
#include "sec/policy.hpp"
#include "sec/trust.hpp"

namespace bs::sec {

struct Violation {
  ClientId client{};
  const Policy* policy{nullptr};
  SimTime detected_at{0};
};

class PolicyEnforcement {
 public:
  struct ActionLogEntry {
    SimTime time{0};
    ClientId client{};
    std::string policy;
    Severity severity{Severity::low};
    Action action;
  };

  PolicyEnforcement(sim::Simulation& sim, TrustManager& trust);

  /// Applies all actions of a violated policy.
  void handle(const Violation& violation);

  /// Admission predicate (installed on BlobSeer nodes).
  [[nodiscard]] Result<void> admission_check(const rpc::Envelope& env,
                                             const char* req_name);

  /// Installs this enforcement's admission hook on a node.
  void attach(rpc::Node& node);

  [[nodiscard]] bool is_blocked(ClientId client, SimTime now) const;
  [[nodiscard]] bool is_throttled(ClientId client, SimTime now) const {
    auto it = throttles_.find(client.value);
    return it != throttles_.end() && it->second.until > now;
  }

  /// Clears an active sanction (manual operator override).
  void pardon(ClientId client);

  void set_action_observer(std::function<void(const ActionLogEntry&)> obs) {
    observer_ = std::move(obs);
  }

  [[nodiscard]] const std::vector<ActionLogEntry>& action_log() const {
    return log_;
  }
  [[nodiscard]] std::size_t blocked_count(SimTime now) const;
  [[nodiscard]] std::uint64_t rejections() const { return rejections_; }

 private:
  void apply(const Violation& v, const Action& action);

  sim::Simulation& sim_;
  TrustManager& trust_;
  struct Throttle {
    TokenBucket bucket;
    SimTime until{simtime::kInfinite};  // expiry (kInfinite = until pardon)
  };

  std::map<std::uint64_t, SimTime> blocked_;  // client -> expiry
  std::map<std::uint64_t, Throttle> throttles_;
  std::vector<ActionLogEntry> log_;
  std::function<void(const ActionLogEntry&)> observer_;
  std::uint64_t rejections_{0};
};

}  // namespace bs::sec

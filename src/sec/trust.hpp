// Trust management module (§V self-protection direction): maintains a trust
// value per user from past actions — violations cut it multiplicatively,
// sustained clean activity restores it slowly — and derives the threshold
// scale that makes policies adaptive per user.
#pragma once

#include <map>

#include "common/types.hpp"
#include "sec/policy.hpp"

namespace bs::sec {

/// Trust starts at 0.8 and stays in [0.05, 1.0]; trust.cpp holds the
/// cuts, the recovery step and the threshold-scale floor.
class TrustManager {
 public:
  [[nodiscard]] double trust(ClientId client) const;

  /// Applies a violation of the given severity.
  void record_violation(ClientId client, Severity severity);

  /// Applies an explicit trust delta (the trust(delta) policy action).
  void adjust(ClientId client, double delta);

  /// One clean observation interval for the client.
  void record_clean(ClientId client);

  /// Multiplier applied to policy thresholds for this client
  /// (0.4..1.0, linear in trust).
  [[nodiscard]] double threshold_scale(ClientId client) const;

 private:
  std::map<std::uint64_t, double> trust_;
};

}  // namespace bs::sec

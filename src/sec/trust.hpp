// Trust management module (§V self-protection direction): maintains a trust
// value per user from past actions — violations cut it multiplicatively,
// sustained clean activity restores it slowly — and derives the threshold
// scale that makes policies adaptive per user.
#pragma once

#include <map>

#include "common/types.hpp"
#include "sec/policy.hpp"

namespace bs::sec {

struct TrustOptions {
  double initial{0.8};
  double min_trust{0.05};
  /// Multiplicative cut per violation by severity.
  double cut_low{0.9};
  double cut_medium{0.7};
  double cut_high{0.4};
  /// Additive recovery per clean observation interval.
  double recovery{0.01};
  double max_trust{1.0};
  /// Threshold scale at zero trust (1.0 at full trust): low-trust clients
  /// face proportionally stricter policy thresholds.
  double min_threshold_scale{0.4};
};

class TrustManager {
 public:
  explicit TrustManager(TrustOptions options = TrustOptions())
      : options_(options) {}

  [[nodiscard]] double trust(ClientId client) const;

  /// Applies a violation of the given severity.
  void record_violation(ClientId client, Severity severity);

  /// Applies an explicit trust delta (the trust(delta) policy action).
  void adjust(ClientId client, double delta);

  /// One clean observation interval for the client.
  void record_clean(ClientId client);

  /// Multiplier applied to policy thresholds for this client
  /// (min_threshold_scale..1.0, linear in trust).
  [[nodiscard]] double threshold_scale(ClientId client) const;

 private:
  TrustOptions options_;
  std::map<std::uint64_t, double> trust_;
};

}  // namespace bs::sec

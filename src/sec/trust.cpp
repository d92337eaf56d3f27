#include "sec/trust.hpp"

#include <algorithm>

namespace bs::sec {
namespace {

constexpr double kInitial = 0.8;
constexpr double kMinTrust = 0.05;
constexpr double kMaxTrust = 1.0;
/// Multiplicative cut per violation by severity.
constexpr double kCutLow = 0.9;
constexpr double kCutMedium = 0.7;
constexpr double kCutHigh = 0.4;
/// Additive recovery per clean observation interval.
constexpr double kRecovery = 0.01;
/// Threshold scale at zero trust (1.0 at full trust): low-trust clients
/// face proportionally stricter policy thresholds.
constexpr double kMinThresholdScale = 0.4;

}  // namespace

double TrustManager::trust(ClientId client) const {
  auto it = trust_.find(client.value);
  return it == trust_.end() ? kInitial : it->second;
}

void TrustManager::record_violation(ClientId client, Severity severity) {
  double cut = kCutMedium;
  switch (severity) {
    case Severity::low: cut = kCutLow; break;
    case Severity::medium: cut = kCutMedium; break;
    case Severity::high: cut = kCutHigh; break;
  }
  const double t = trust(client) * cut;
  trust_[client.value] = std::max(kMinTrust, t);
}

void TrustManager::adjust(ClientId client, double delta) {
  const double t = trust(client) + delta;
  trust_[client.value] = std::clamp(t, kMinTrust, kMaxTrust);
}

void TrustManager::record_clean(ClientId client) { adjust(client, kRecovery); }

double TrustManager::threshold_scale(ClientId client) const {
  const double t = trust(client);
  return kMinThresholdScale + (1.0 - kMinThresholdScale) * t;
}

}  // namespace bs::sec

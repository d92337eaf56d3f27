// Token-bucket rate limiter over simulated time; the enforcement layer uses
// it to throttle clients, and providers use it to model request admission.
#pragma once

#include "common/types.hpp"

namespace bs {

class TokenBucket {
 public:
  /// rate: tokens added per second; burst: bucket capacity.
  TokenBucket(double rate_per_sec, double burst);

  /// Tries to consume `tokens` at time `now`; returns true on success.
  bool try_consume(SimTime now, double tokens = 1.0);

  /// Time at which `tokens` would next be available (>= now).
  [[nodiscard]] SimTime next_available(SimTime now, double tokens = 1.0) const;

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double available(SimTime now) const;

 private:
  void refill(SimTime now);

  double rate_;
  double burst_;
  double tokens_;
  SimTime last_{0};
};

}  // namespace bs

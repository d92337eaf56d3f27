// Reconciliation actor: after a heal (or periodically, as anti-entropy),
// every remote site exchanges its version map with the origin. The origin
// computes the missing ranges, re-synthesizes catch-up custody bundles for
// whatever divergence the custody queues lost (wipes, torn tails), and the
// remote merges the origin's frontier. A round visits the remote sites in
// ascending site order, one exchange at a time, so replays are
// deterministic.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace bs::repl {

class ReplicationPlane;

struct ReconcilerOptions {
  /// Anti-entropy period between unsolicited rounds; a heal kicks a round
  /// immediately.
  SimDuration interval{simtime::seconds(20)};
};

class Reconciler {
 public:
  Reconciler(ReplicationPlane& plane, ReconcilerOptions opts)
      : plane_(plane), opts_(opts) {}

  /// Spawns the periodic loop (idempotent).
  void start();
  void stop();
  /// Runs a round now (heal notification) instead of waiting the interval.
  void kick();

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t exchanges() const { return exchanges_; }
  [[nodiscard]] std::uint64_t catch_up_scheduled() const {
    return catch_up_;
  }

 private:
  sim::Task<void> loop(std::uint64_t generation);
  sim::Task<void> arm_timer(std::shared_ptr<sim::Event> ev, SimDuration d);
  sim::Task<void> round();

  ReplicationPlane& plane_;
  ReconcilerOptions opts_;
  bool running_{false};
  std::uint64_t generation_{0};
  std::uint64_t rounds_{0};
  std::uint64_t exchanges_{0};
  std::uint64_t catch_up_{0};
  std::shared_ptr<sim::Event> wake_;
};

}  // namespace bs::repl

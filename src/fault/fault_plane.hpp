// Deterministic fault-injection plane. Sits above the RPC cluster and turns
// a seeded schedule of fault events into actuator calls: node crash/restart
// (fail-stop, optionally wiping stateful stores), site-pair partitions and
// link degradation (probabilistic drops + latency spikes, enforced by the
// cluster's link-fault hook), and disk slowdowns (capacity scaling through
// the flow scheduler). Every random decision — schedule generation and
// per-message drop rolls — is drawn from seeded RNGs, so a schedule replayed
// on the same workload is bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "rpc/rpc.hpp"

namespace bs::fault {

/// One scheduled fault action. Which fields matter depends on `kind`:
/// crash/restart/slow_disk/restore_disk use `node`; the link kinds use the
/// unordered site pair `{a, b}`.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    crash,         ///< fail-stop; `lose_storage` wipes stateful stores
    restart,       ///< bring a crashed node back up
    partition,     ///< drop every message between sites a and b
    heal,          ///< clear all link rules between a and b
    degrade,       ///< probabilistic drops + extra latency between a and b
    restore_link,  ///< same as heal (named for degrade symmetry)
    slow_disk,     ///< scale a node's disk bandwidth by `disk_factor`
    restore_disk,  ///< restore the node's spec disk bandwidth
    power_loss,    ///< crash every up node at site `a` with a torn tail
    power_restore  ///< restart every down node at site `a`
  };

  SimTime at{0};
  Kind kind{Kind::crash};
  NodeId node{};
  bool lose_storage{false};
  /// Power-loss flavour: the journaled store's last un-synced record is
  /// left half-written (scanned + truncated at recovery).
  bool torn_tail{false};
  net::SiteId a{0};
  net::SiteId b{0};
  double drop_prob{0.0};
  SimDuration extra_latency{0};
  double disk_factor{1.0};

  [[nodiscard]] const char* kind_name() const;
};

/// Bounds for `random_schedule`. The generator keeps schedules *safe* for
/// the chaos harness's readability invariant: every crash is paired with a
/// restart, at most `max_wipe_crashes` crashes lose storage (keep it below
/// the replication factor), and every link/disk fault is healed before
/// `quiesce_fraction` of the horizon so the tail of the run is fault-free.
struct ScheduleOptions {
  SimTime start{0};
  SimTime horizon{simtime::minutes(10)};
  double quiesce_fraction{0.7};

  std::vector<NodeId> crashable;  ///< typically the data-provider nodes
  std::size_t crashes{2};
  std::size_t max_wipe_crashes{0};

  std::size_t site_count{0};  ///< link faults need >= 2 sites
  std::size_t partitions{1};
  std::size_t degrades{1};

  std::size_t disk_slowdowns{1};

  /// Correlated site-wide power losses (every node at the site crashes with
  /// a torn journal tail, then power returns). Off by default — and every
  /// new knob below only draws from the RNG when enabled, so existing
  /// seeded schedules stay bit-identical.
  std::size_t power_losses{0};
  std::vector<net::SiteId> power_loss_sites;  ///< candidate sites
  /// Probability that a scheduled crash leaves a torn journal tail.
  double torn_tail_prob{0.0};
  /// Journaled stores need time to replay after the last restart; shrink
  /// the active fault window by this worst-case replay bound so the
  /// quiescent tail really is quiescent (readability checks pass).
  SimDuration worst_case_recovery{0};

  /// Long partition/heal pairs for disruption-tolerance chaos: outages an
  /// order of magnitude beyond the 30 s link faults, long enough for custody
  /// queues to fill and reconciliation to matter. Off by default, and the
  /// generator only draws from the RNG when enabled, so existing seeded
  /// schedules stay bit-identical.
  std::size_t long_partitions{0};
  SimDuration min_long_partition{simtime::seconds(30)};
  SimDuration max_long_partition{simtime::minutes(5)};
  /// When set, one endpoint of every long partition is
  /// `long_partition_anchor` (geo suites anchor the origin site so every
  /// outage cuts a replication path).
  bool anchor_long_partitions{false};
  net::SiteId long_partition_anchor{0};
};

/// Generates a bounded random fault schedule, sorted by time. Deterministic
/// per seed; independent of any simulation state.
[[nodiscard]] std::vector<FaultEvent> random_schedule(
    std::uint64_t seed, const ScheduleOptions& opts);

class FaultPlane {
 public:
  /// Installs itself as the cluster's link-fault hook. `seed` drives the
  /// per-message drop rolls (schedule generation has its own seed).
  FaultPlane(rpc::Cluster& cluster, std::uint64_t seed = 0xFA17ull);
  ~FaultPlane();
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // -- immediate actuators ------------------------------------------------
  void crash(NodeId node, bool lose_storage = false, bool torn_tail = false);
  void restart(NodeId node);
  /// Correlated failure: crashes every up node at `site` (torn journal
  /// tails — power loss mid-write), in node-id order.
  void power_loss(net::SiteId site);
  /// Restarts every down node at `site`, in node-id order.
  void power_restore(net::SiteId site);
  void partition(net::SiteId a, net::SiteId b);
  void heal(net::SiteId a, net::SiteId b);
  void degrade(net::SiteId a, net::SiteId b, double drop_prob,
               SimDuration extra_latency);
  void slow_disk(NodeId node, double factor);
  void restore_disk(NodeId node);
  /// Heals every link and restores every slowed disk.
  void clear();

  // -- scheduling ---------------------------------------------------------
  /// Applies `ev` at `ev.at` (immediately when that time has passed).
  void schedule(const FaultEvent& ev);
  void schedule_all(const std::vector<FaultEvent>& schedule);

  // -- notifications ------------------------------------------------------
  /// Partition-transition listener (geo-replication plane): fired with
  /// `true` when a site pair becomes partitioned and `false` when the
  /// partition lifts (heal/restore_link/clear, or a degrade overwriting a
  /// partition rule). Degrades themselves never fire it — a lossy link is
  /// still a link.
  using LinkListener =
      std::function<void(net::SiteId, net::SiteId, bool partitioned)>;
  void set_link_listener(LinkListener fn) { link_listener_ = std::move(fn); }

  // -- introspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t faults_applied() const {
    return faults_applied_;
  }

 private:
  struct LinkRule {
    bool partitioned{false};
    double drop_prob{0.0};
    SimDuration extra_latency{0};
  };

  [[nodiscard]] static std::uint64_t pair_key(net::SiteId a, net::SiteId b) {
    const std::uint64_t lo = a < b ? a : b;
    const std::uint64_t hi = a < b ? b : a;
    return (hi << 32) | lo;
  }

  void apply_now(const FaultEvent& ev);
  [[nodiscard]] rpc::Cluster::LinkFault eval(net::SiteId from, net::SiteId to);
  /// Updates a pair's rule and fires the link listener on partition-state
  /// transitions (erase = no rule).
  void set_link_rule(net::SiteId a, net::SiteId b, const LinkRule* rule);

  rpc::Cluster& cluster_;
  Rng drop_rng_;
  std::unordered_map<std::uint64_t, LinkRule> links_;
  std::unordered_map<std::uint64_t, double> slowed_;  ///< NodeId -> factor
  std::uint64_t faults_applied_{0};
  LinkListener link_listener_;
};

}  // namespace bs::fault
